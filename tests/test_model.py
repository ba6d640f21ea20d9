"""Model contracts: grouping embeds, attention, the shared FFN, prediction.

Oracles: a step-by-step scalar attention computation, an unrolled tied-weight
FFN, the zero-logit uniform case, the full-sequence float64 layer, and
finite differences end to end in float64 (with float32 held to the float64
gradients within a tolerance set from float32 epsilon).
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import assert_grads_close, float64_model, numeric_grad, traced_peak
from oracles import (attention, embed_groups, ffn, full_sequence_probs, grads_of,
                     predict, transformer_layer, weight_of)
from trc.coder import Encoder
from trc.model import (
    GRAD_BLOCK,
    ModelConfig,
    TraceModel,
    VOCAB,
    backward,
    forward_probs,
    nll_loss,
    parameter_count,
    step_shapes,
    weight_shapes,
)
from trc.nn import SLICE, adam_step, fill_uniform
from trc.pipeline import compress

TINY = ModelConfig(hidden_dim=16, ffn_dim=32, group_size=2, context_len=4,
                   shared_ffn_repeats=2, num_heads=2)


# ---------------------------------------------------------------------------
# config and counts


def test_config_defaults_and_window():
    cfg = ModelConfig()
    assert (cfg.hidden_dim, cfg.ffn_dim, cfg.group_size, cfg.context_len,
            cfg.shared_ffn_repeats, cfg.num_heads) == (256, 4096, 4, 8, 2, 8)
    assert cfg.window == 32
    assert TINY.window == 8


def test_config_rejects_bad_shapes(monkeypatch):
    # A ModelConfig is a plain value: each bad shape constructs, and compress
    # refuses it through ContainerHeader.check before it codes a symbol.
    def no_symbol(*args):
        raise AssertionError("a symbol was coded")

    monkeypatch.setattr(Encoder, "encode_symbol", no_symbol)
    for shape in ({"hidden_dim": 0}, {"ffn_dim": -4}, {"hidden_dim": 10, "group_size": 4},
                  {"hidden_dim": 12, "num_heads": 8, "group_size": 2}):
        cfg = ModelConfig(**shape)
        with pytest.raises(ValueError):
            compress(b"some bytes", cfg, seed=1, lanes=1)


def test_config_is_frozen():
    cfg = ModelConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.hidden_dim = 128


def _weights(model):
    return [getattr(model, name) for name in weight_shapes(model.config)]


def test_parameter_count_matches_shape_sum():
    for cfg in (ModelConfig(), TINY,
                ModelConfig(hidden_dim=64, ffn_dim=128, group_size=1,
                            context_len=3, num_heads=4)):
        model = TraceModel(cfg, seed=1)
        assert parameter_count(cfg) == sum(w.value.size for w in _weights(model))


def test_parameter_count_default_value():
    # 256*64 + 8*256 + 4*256^2 + 2*256*4096 + 256*256
    n = parameter_count(ModelConfig())
    assert n == 2_443_264
    assert abs(n - 2_400_000) / 2_400_000 < 0.05


def test_parameter_count_grouping_shrinks_embedding():
    base = dict(hidden_dim=256, ffn_dim=4096, context_len=8, num_heads=8)
    g1 = parameter_count(ModelConfig(group_size=1, **base))
    g4 = parameter_count(ModelConfig(group_size=4, **base))
    assert g1 - g4 == VOCAB * (256 - 64)


def test_parameter_count_independent_of_repeats():
    a = parameter_count(ModelConfig(shared_ffn_repeats=1))
    b = parameter_count(ModelConfig(shared_ffn_repeats=2))
    c = parameter_count(ModelConfig(shared_ffn_repeats=7))
    assert a == b == c


def test_shared_ffn_is_one_parameter_pair():
    model = TraceModel(ModelConfig(shared_ffn_repeats=3), seed=5)
    names = [n for n in dir(model) if n.startswith("w")]
    ffn_params = [model.w1, model.w2]
    assert len(ffn_params) == 2
    assert model.w1.value.shape == (256, 4096)
    assert model.w2.value.shape == (4096, 256)
    assert "w3" not in names


# ---------------------------------------------------------------------------
# initialization


def test_same_seed_bit_identical_weights():
    a = TraceModel(TINY, seed=77)
    b = TraceModel(TINY, seed=77)
    for wa, wb in zip(_weights(a), _weights(b)):
        assert wa.value.tobytes() == wb.value.tobytes()


def test_different_seeds_differ():
    a = TraceModel(TINY, seed=77)
    b = TraceModel(TINY, seed=78)
    assert not np.array_equal(a.byte_embedding.value, b.byte_embedding.value)


def test_init_drawn_in_slices_equals_one_draw_per_weight():
    # w1 and w2 are two SLICE runs long, so init draws them in pieces; each
    # weight must still be one run of draws from its flat offset, the sum of
    # the sizes of the weights before it, and both moments must start at zero
    config = ModelConfig(hidden_dim=64, ffn_dim=2048, num_heads=4)
    model = TraceModel(config, seed=11)
    lo = 0
    for name, (fan_in, fan_out) in weight_shapes(config).items():
        n = fan_in * fan_out
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        want = fill_uniform(11, lo, n, -bound, bound).astype(np.float32)
        w = getattr(model, name)
        assert np.array_equal(w.value.reshape(-1), want), name
        for state in (w.m, w.v):
            assert state.dtype == np.float32 and state.shape == (fan_in, fan_out), name
            assert not state.any(), name
        lo += n
    assert max(a * b for a, b in weight_shapes(config).values()) > SLICE


def test_init_respects_glorot_bounds():
    model = TraceModel(TINY, seed=3)
    for p in _weights(model):
        fan_in, fan_out = p.value.shape
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        data = p.value
        assert data.dtype == np.float32
        assert np.all(np.abs(data) < bound)
        # a draw this wide that stayed in a half-range would be astronomically unlucky
        assert data.max() > 0.5 * bound
        assert data.min() < -0.5 * bound


# ---------------------------------------------------------------------------
# embed_groups


def test_embed_groups_shape_default_config():
    model = TraceModel(ModelConfig(), seed=1)
    out = embed_groups(bytes(range(32)), model)
    assert out.shape == (8, 256)


def test_embed_groups_concatenates_in_byte_order():
    model = TraceModel(TINY, seed=9)
    history = bytes([10, 20, 30, 40, 50, 60, 70, 80])
    out = embed_groups(history, model)
    emb = model.byte_embedding.value.astype(np.float64)
    pos = model.positional_embedding.value
    want = np.stack([
        np.concatenate([emb[history[2 * j]], emb[history[2 * j + 1]]])
        for j in range(4)
    ]) + pos
    np.testing.assert_array_equal(out, want)


def test_embed_groups_g1_is_per_byte_embedding():
    cfg = ModelConfig(hidden_dim=16, ffn_dim=32, group_size=1, context_len=4,
                      num_heads=2)
    model = TraceModel(cfg, seed=4)
    history = bytes([5, 0, 255, 17])
    out = embed_groups(history, model)
    want = (model.byte_embedding.value[list(history)].astype(np.float64)
            + model.positional_embedding.value)
    np.testing.assert_array_equal(out, want)


def test_embed_groups_locality_of_byte_zero():
    model = TraceModel(TINY, seed=2)
    h1 = bytearray(range(8))
    h2 = bytearray(h1)
    h2[0] = 200
    a = embed_groups(bytes(h1), model)
    b = embed_groups(bytes(h2), model)
    assert not np.array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1:], b[1:])


def test_embed_groups_rejects_bad_history():
    model = TraceModel(TINY, seed=2)
    with pytest.raises(ValueError):
        embed_groups(bytes(7), model)
    with pytest.raises(ValueError):
        embed_groups(bytes(9), model)
    with pytest.raises(ValueError):
        embed_groups([0, 1, 2, 3, 4, 5, 6, 300], model)


# ---------------------------------------------------------------------------
# attention


def test_attention_single_position_collapses():
    cfg = ModelConfig(hidden_dim=8, ffn_dim=16, group_size=2, context_len=1,
                      num_heads=2)
    model = TraceModel(cfg, seed=6)
    x = np.random.default_rng(0).standard_normal((1, 8)).astype(np.float32)
    out = attention(x, model)
    want = x @ model.wv.value @ model.wo.value
    np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-7)


def test_attention_identical_rows_give_identical_rows():
    model = TraceModel(TINY, seed=8)
    row = np.random.default_rng(1).standard_normal(16).astype(np.float32)
    x = np.tile(row, (4, 1))
    out = attention(x, model)
    for i in range(1, 4):
        np.testing.assert_array_equal(out[i], out[0])


def test_attention_matches_scalar_oracle():
    cfg = ModelConfig(hidden_dim=4, ffn_dim=8, group_size=1, context_len=2,
                      num_heads=1)
    model = TraceModel(cfg, seed=11)
    rng = np.random.default_rng(12)
    for p in (model.wq, model.wk, model.wv, model.wo):
        p.value[:] = rng.standard_normal((4, 4)).astype(np.float32)
    x32 = rng.standard_normal((2, 4)).astype(np.float32)

    x = x32.astype(np.float64)
    q = x @ model.wq.value.astype(np.float64)
    k = x @ model.wk.value.astype(np.float64)
    v = x @ model.wv.value.astype(np.float64)
    scores = q @ k.T / math.sqrt(4.0)
    probs = np.empty_like(scores)
    for i in range(2):
        e = np.exp(scores[i] - scores[i].max())
        probs[i] = e / e.sum()
    want = probs @ v @ model.wo.value.astype(np.float64)

    got = attention(x32, model)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_attention_multihead_differs_from_single_head():
    # same weights, different head split: outputs must differ generically
    cfg2 = ModelConfig(hidden_dim=16, ffn_dim=32, group_size=2, context_len=4,
                       num_heads=2)
    cfg1 = dataclasses.replace(cfg2, num_heads=1)
    m2 = TraceModel(cfg2, seed=13)
    m1 = TraceModel(cfg1, seed=13)
    x = np.random.default_rng(2).standard_normal((4, 16)).astype(np.float32)
    a2 = attention(x, m2)
    a1 = attention(x, m1)
    assert not np.allclose(a1, a2)


# ---------------------------------------------------------------------------
# transformer layer


def test_layer_zero_ffn_is_attention_residual():
    for repeats in (1, 3):
        cfg = dataclasses.replace(TINY, shared_ffn_repeats=repeats)
        model = TraceModel(cfg, seed=14)
        model.w1.value[:] = 0.0
        model.w2.value[:] = 0.0
        x = np.random.default_rng(3).standard_normal((4, 16))
        out = transformer_layer(x, model)
        want = attention(x, model) + x
        np.testing.assert_array_equal(out, want)


def test_layer_n1_composes_single_ffn_residual():
    cfg = dataclasses.replace(TINY, shared_ffn_repeats=1)
    model = TraceModel(cfg, seed=15)
    x = np.random.default_rng(4).standard_normal((4, 16))
    out = transformer_layer(x, model)
    a = attention(x, model) + x
    want = ffn(a, model) + a
    np.testing.assert_array_equal(out, want)


def test_layer_n2_equals_unrolled_tied_ffn():
    model = TraceModel(TINY, seed=16)
    assert model.config.shared_ffn_repeats == 2
    x = np.random.default_rng(5).standard_normal((4, 16))
    out = transformer_layer(x, model)
    a = attention(x, model) + x
    y1 = ffn(a, model) + a
    y2 = ffn(y1, model) + y1
    np.testing.assert_array_equal(out, y2)


# ---------------------------------------------------------------------------
# predict


def test_predict_is_valid_distribution():
    for cfg, seed in ((TINY, 21), (ModelConfig(hidden_dim=32, ffn_dim=48,
                                               group_size=4, context_len=2,
                                               num_heads=4), 22)):
        model = TraceModel(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            history = bytes(rng.integers(0, 256, cfg.window, dtype=np.uint8))
            p = predict(history, model)
            assert p.shape == (256,)
            assert np.all(p > 0.0)
            assert abs(p.sum() - 1.0) < 1e-6


def test_predict_zero_head_is_exactly_uniform():
    model = TraceModel(TINY, seed=23)
    model.output_head.value[:] = 0.0
    p = predict(bytes(8), model)
    assert np.all(p == p[0])
    np.testing.assert_allclose(p, 1.0 / 256.0, rtol=1e-7)


def test_predict_same_seed_bit_identical():
    a = TraceModel(TINY, seed=24)
    b = TraceModel(TINY, seed=24)
    history = bytes(range(8))
    assert np.array_equal(predict(history, a), predict(history, b))


def test_predict_sees_the_oldest_byte():
    model = TraceModel(TINY, seed=25)
    h1 = bytearray(range(8))
    h2 = bytearray(h1)
    h2[0] ^= 0xFF
    diff = np.abs(predict(bytes(h1), model) - predict(bytes(h2), model)).max()
    assert diff > 0.0


def test_predict_matches_full_layer_path():
    model = TraceModel(TINY, seed=26)
    history = bytes([3, 1, 4, 1, 5, 9, 2, 6])
    fast = predict(history, model)
    full = full_sequence_probs(history, model)[-1]
    np.testing.assert_allclose(fast, full, rtol=1e-5, atol=1e-8)


def test_forward_probs_consistent_across_batch_sizes():
    model = TraceModel(TINY, seed=27)
    rng = np.random.default_rng(6)
    histories = rng.integers(0, 256, (3, 8), dtype=np.int64)
    batched = forward_probs(model, histories)
    for i in range(3):
        single = forward_probs(model, histories[i:i + 1])[0]
        np.testing.assert_allclose(batched[i], single, rtol=1e-5, atol=1e-8)


def test_forward_probs_rejects_bad_shape():
    model = TraceModel(TINY, seed=28)
    with pytest.raises(ValueError):
        forward_probs(model, np.zeros((2, 7), dtype=np.int64))


@pytest.mark.parametrize("byte", [300, -1])
def test_forward_probs_rejects_bytes_out_of_range(byte):
    # the embedding lookup clips row numbers, so forward_probs checks every
    # history whose dtype can hold a byte outside [0, 255]
    model = TraceModel(TINY, seed=28)
    with pytest.raises(ValueError, match="must lie in"):
        forward_probs(model, np.full((1, TINY.window), byte, dtype=np.int64))


def test_predict_memorizes_repeating_stream():
    cfg = ModelConfig(hidden_dim=32, ffn_dim=64, group_size=2, context_len=4,
                      shared_ffn_repeats=2, num_heads=4)
    model = TraceModel(cfg, seed=29)
    a, b = ord("a"), ord("b")
    windows = np.array([[a, b] * 4, [b, a] * 4], dtype=np.int64)
    targets = np.array([a, b], dtype=np.int64)

    def step(w, grad):
        adam_step(w.value, grad, w.m, w.v, model.steps, lr=0.01)

    for _ in range(500):
        forward_probs(model, windows)
        model.steps += 1
        backward(model, targets, step)
    p0 = predict(bytes([a, b] * 4), model)
    p1 = predict(bytes([b, a] * 4), model)
    assert p0[a] > 0.9
    assert p1[b] > 0.9


# ---------------------------------------------------------------------------
# gradients end to end


def test_full_model_gradcheck_tiny_config():
    run_model_gradcheck(TINY, seed=31)


def test_full_model_gradcheck_single_head_ungrouped_config():
    run_model_gradcheck(dataclasses.replace(TINY, shared_ffn_repeats=1, group_size=1,
                                            num_heads=1), seed=32)


def run_model_gradcheck(cfg, seed):
    """Every parameter gradient vs central finite differences, all in f64."""
    model = float64_model(cfg, seed)
    rng = np.random.default_rng(seed)
    histories = rng.integers(0, 256, (2, cfg.window), dtype=np.int64)
    targets = rng.integers(0, 256, 2, dtype=np.int64)

    def loss_value():
        return nll_loss(forward_probs(model, histories), targets)

    forward_probs(model, histories)
    grads = grads_of(model, targets)

    used_rows = np.unique(histories)
    for name, analytic in grads.items():
        p = getattr(model, name)
        if name == "byte_embedding":
            # untouched vocabulary rows: gradient must be exactly zero
            mask = np.ones(256, dtype=bool)
            mask[used_rows] = False
            assert np.all(analytic[mask] == 0.0)
            sub_analytic = analytic[used_rows]
            # fancy indexing copies, so finite differences run on the live rows
            numeric = np.zeros_like(sub_analytic)
            flat = numeric.reshape(-1)
            live = p.value
            k = 0
            for r in used_rows:
                for cidx in range(live.shape[1]):
                    keep = live[r, cidx]
                    live[r, cidx] = keep + 1e-3
                    hi = loss_value()
                    live[r, cidx] = keep - 1e-3
                    lo = loss_value()
                    live[r, cidx] = keep
                    flat[k] = (hi - lo) / 2e-3
                    k += 1
            assert_grads_close(sub_analytic, numeric)
        else:
            numeric = numeric_grad(loss_value, [p.value], step=1e-3)[0]
            assert_grads_close(analytic, numeric)


def test_float32_step_gradients_track_float64():
    # One step's gradients at the production dtype against the same step in
    # float64. Each float32 operation rounds to eps32 relative and the
    # backward chains about a dozen of them, so 32 eps32 of each parameter's
    # largest gradient bounds the difference (about 3 eps32 is typical).
    cfg = ModelConfig(hidden_dim=32, ffn_dim=64, group_size=2, context_len=4,
                      shared_ffn_repeats=2, num_heads=4)
    m32 = TraceModel(cfg, seed=33)
    m64 = float64_model(cfg, seed=33)
    rng = np.random.default_rng(33)
    histories = rng.integers(0, 256, (16, cfg.window), dtype=np.int64)
    targets = rng.integers(0, 256, 16, dtype=np.int64)
    tol = 32 * np.finfo(np.float32).eps
    # backward turns the probabilities into the logit gradient, so keep copies
    p32, p64 = (forward_probs(model, histories).copy() for model in (m32, m64))
    g32, g64 = (grads_of(model, targets) for model in (m32, m64))
    np.testing.assert_allclose(p32, p64, rtol=tol, atol=0)
    for name, grad in g32.items():
        assert grad.dtype == np.float32
        assert np.abs(grad - g64[name]).max() <= tol * np.abs(g64[name]).max()


@pytest.mark.parametrize("lanes", [5, 64])
@pytest.mark.parametrize("build", [TraceModel, float64_model], ids=["float32", "float64"])
def test_backward_forms_the_logit_gradient_in_place_bit_for_bit(build, lanes):
    # backward turns the forward pass's probabilities into (p - onehot) / B
    # in place. The head's gradient must be y.T @ that gradient formed from a
    # copy of p, with int64 targets, to the bit: the same float operations in
    # the same dtype. This holds on any BLAS build, unlike the goldens.
    model = build(TINY, 37)
    rng = np.random.default_rng(lanes)
    histories = rng.integers(0, 256, (lanes, TINY.window), dtype=np.uint8)
    targets = rng.integers(0, 256, lanes).astype(np.uint8)   # as the pipeline passes them
    dlogits = forward_probs(model, histories).copy()
    dlogits[np.arange(lanes), targets.astype(np.int64)] -= 1.0
    dlogits /= lanes
    want = model.step.y.T @ dlogits
    got = grads_of(model, targets)["output_head"]
    assert got.dtype == want.dtype == model.output_head.value.dtype
    assert np.array_equal(got, want)


def test_backward_hands_each_weight_over_once_after_its_last_read():
    # The callback poisons each weight as it is handed over, as an in-place
    # update may: any later read of that value by backward would spoil a
    # gradient handed over after it.
    model = float64_model(TINY, seed=34)
    rng = np.random.default_rng(34)
    histories = rng.integers(0, 256, (3, TINY.window), dtype=np.int64)
    targets = rng.integers(0, 256, 3, dtype=np.int64)
    forward_probs(model, histories)
    clean = grads_of(model, targets)
    forward_probs(model, histories)  # backward consumed the first pass
    find = weight_of(model)
    handed = []

    def poison(weight, grad):
        handed.append((find(weight)[0], grad.copy()))
        weight.value.fill(np.nan)

    backward(model, targets, poison)
    assert [name for name, _ in handed] == [
        "output_head", "w2", "w1", "wo", "wq", "wk", "wv",
        "positional_embedding", "byte_embedding"]
    for name, grad in handed:
        assert np.isfinite(grad).all(), name
        assert np.array_equal(grad, clean[name]), name


def test_ffn_gradients_arrive_in_row_blocks_that_join_bit_for_bit():
    # w1 (64, 8192) and w2 (8192, 64) each hold two GRAD_BLOCKs, so each is
    # handed over in blocks of 32 and 4,096 rows. Joined in the order they
    # arrive, the blocks must be the whole products to the bit: rows lo:hi
    # of a.T @ b are a[:, lo:hi].T @ b, the same sums.
    config = ModelConfig(hidden_dim=64, ffn_dim=8192, num_heads=4)
    h, f = config.hidden_dim, config.ffn_dim
    model = TraceModel(config, seed=38)
    rng = np.random.default_rng(38)
    forward_probs(model, rng.integers(0, 256, (2, config.window), dtype=np.uint8))
    s, handed = model.step, []
    grads = grads_of(model, np.array([5, 9], dtype=np.uint8), handed)
    assert np.array_equal(grads["w1"], s.ys.reshape(-1, h).T @ s.us.reshape(-1, f))
    assert np.array_equal(grads["w2"], s.ths.reshape(-1, f).T @ s.dys.reshape(-1, h))
    assert max(size for _, _, size in handed) <= GRAD_BLOCK
    assert [name for name, _ in itertools.groupby(name for name, _, _ in handed)] == list(grads)
    for name, cols in (("w1", f), ("w2", h)):
        blocks = [(row, size // cols) for n, row, size in handed if n == name]
        assert len(blocks) == 2
        assert [row for row, _ in blocks] == [0, blocks[0][1]]
        assert sum(rows for _, rows in blocks) == len(getattr(model, name).value)


def test_the_paper_step_table_holds_no_ffn_weight_sized_gradient():
    # at 64 lanes, grad holds one (B, f) application, as large as one
    # GRAD_BLOCK, where a whole w1 gradient would be four times that
    shapes = step_shapes(ModelConfig(), 64)
    assert "act" not in shapes
    assert shapes["grad"] == (GRAD_BLOCK,) == (64 * 4096,)
    assert sum(math.prod(shape) for shape in shapes.values()) == 1_970_176


def test_a_second_backward_on_one_forward_raises():
    # backward writes gradients over the activations it reads, so running
    # it again would hand over wrong gradients; it refuses until the next
    # forward. The buffers stay on the model, and the next forward pass of
    # the same shape works in them again.
    model = float64_model(TINY, seed=35)
    rng = np.random.default_rng(35)
    histories = rng.integers(0, 256, (3, TINY.window), dtype=np.int64)
    forward_probs(model, histories)
    buffers = dict(model.buffers)
    assert list(buffers) == list(step_shapes(TINY, 3))
    grads_of(model, [1, 2, 3])
    assert model.step is None
    with pytest.raises(ValueError, match="consumed"):
        grads_of(model, [1, 2, 3])
    forward_probs(model, histories[:2])
    assert all(model.buffers[name] is buf for name, buf in buffers.items())
    assert len(grads_of(model, [1, 2])) == len(weight_shapes(TINY))


def test_a_step_after_the_first_allocates_no_step_sized_array():
    # Every step-sized array lives in the model's buffers, so once one step
    # has made them, a step of the benchmark's tiny config over 256 lanes
    # (forward, loss, backward and Adam) allocates at most 512 KB at its
    # peak, the size of two of its (B, c, h) arrays, where its table holds
    # 1.9 MB.
    config = ModelConfig(hidden_dim=32, ffn_dim=64, num_heads=4)
    model = TraceModel(config, seed=36)
    rng = np.random.default_rng(36)
    histories = rng.integers(0, 256, (256, config.window), dtype=np.uint8)
    targets = rng.integers(0, 256, 256, dtype=np.uint8)

    def update_weight(w, grad):
        adam_step(w.value, grad, w.m, w.v, model.steps, 1e-3)

    def step():
        nll_loss(forward_probs(model, histories), targets)
        model.steps += 1
        backward(model, targets, update_weight)

    step()
    buffers = dict(model.buffers)
    with traced_peak() as peak:
        step()
        assert peak() <= 512 << 10
    assert all(model.buffers[name] is buf for name, buf in buffers.items())
