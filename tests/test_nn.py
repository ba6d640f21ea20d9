"""Array kernels, the hand-written backward, the trainable state, Adam,
and the PRNG.

Ground truth comes from in-test oracles: a scalar triple-loop matmul, closed
forms for softmax and gelu, and central finite differences in float64 for
each part of the model's backward.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import assert_grads_close, float64_model, numeric_grad
from oracles import TextbookAdam, grads_of, rng_uniform, splitmix64
from trc.model import (ModelConfig, TraceModel, backward, forward_probs, nll_loss,
                       parameter_count, weight_shapes)
from trc.nn import (
    SLICE,
    adam_step,
    fill_uniform,
    gather_rows,
    gelu,
    gelu_backward,
    matmul,
    scatter_rows,
    softmax_rows,
)

SMALL = ModelConfig(hidden_dim=8, ffn_dim=12, group_size=2, context_len=3,
                    shared_ffn_repeats=2, num_heads=2)

# ---------------------------------------------------------------------------
# oracles


def matmul_oracle(a, b):
    """Triple loop with a float64 accumulator, k summed in increasing order."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.empty((m, n), dtype=np.float32)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = np.float32(acc)
    return out


def gelu_oracle(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x**3)))


def softmax_oracle(row):
    row = np.asarray(row, dtype=np.float64)
    e = np.exp(row - row.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# forward contracts


def test_matmul_matches_triple_loop_exactly():
    # small integers: every product and partial sum is exact in float32, so
    # any summation order the kernel picks gives the oracle's bits
    rng = np.random.default_rng(7)
    a = rng.integers(-8, 9, (5, 7)).astype(np.float32)
    b = rng.integers(-8, 9, (7, 3)).astype(np.float32)
    got = matmul(a, b)
    want = matmul_oracle(a, b)
    assert got.dtype == np.float32
    assert np.array_equal(got, want)
    assert np.array_equal(matmul(np.asfortranarray(a), b), want)  # transposed-layout path


def test_matmul_batched_matches_per_slice():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 3, 6), dtype=np.float32)
    b = rng.standard_normal((4, 6, 2), dtype=np.float32)
    got = matmul(a, b)
    for i in range(4):
        want = matmul(a[i], b[i])
        assert np.array_equal(got[i], want)


def test_matmul_shape_mismatch_raises():
    a = np.zeros((2, 3), dtype=np.float32)
    b = np.zeros((4, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        matmul(a, b)


def _gelu(x):
    """gelu(x) in a new array, its tanh discarded."""
    out = np.empty_like(x)
    gelu(x, np.empty_like(x), out)
    return out


def test_gelu_closed_form_points():
    x = np.array([0.0, 1.0, -1.0, 10.0, -10.0, 0.5], dtype=np.float64)
    t = np.empty_like(x)
    got = np.empty_like(x)
    gelu(x, t, got)
    want = np.array([gelu_oracle(v) for v in x])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    assert got[0] == 0.0
    assert abs(got[1] - 0.8411919906082768) < 1e-12
    np.testing.assert_allclose(got[3], 10.0, rtol=1e-9)
    assert abs(got[4]) < 1e-7
    c = math.sqrt(2.0 / math.pi)
    np.testing.assert_allclose(t, np.tanh(c * (x + 0.044715 * x ** 3)), rtol=1e-15, atol=0)
    got32 = _gelu(x.astype(np.float32))
    assert got32.dtype == np.float32
    np.testing.assert_allclose(got32, want, rtol=1e-6, atol=1e-7)


def test_gelu_backward_with_kept_tanh_matches_central_differences():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-6.0, 6.0, 200), [0.0, -1e-3, 1e-3, 8.0, -8.0]])
    g = rng.standard_normal(x.shape)
    t = np.empty_like(x)
    gelu(x, t, np.empty_like(x))
    got = g.copy()
    gelu_backward(x, t, got)
    h = 1e-5
    fd = (_gelu(x + h) - _gelu(x - h)) / (2.0 * h)
    np.testing.assert_allclose(got, g * fd, rtol=1e-7, atol=1e-9)
    t32 = np.empty(x.shape, dtype=np.float32)
    gelu(x.astype(np.float32), t32, np.empty_like(t32))
    got32 = g.astype(np.float32)
    gelu_backward(x.astype(np.float32), t32, got32)
    assert got32.dtype == np.float32
    # near saturation the last bit of a float32 tanh (6e-8) is scaled by
    # |x|*c*(1 + 3a*x^2), about 28 at |x| = 6
    np.testing.assert_allclose(got32, g * fd, rtol=1e-5, atol=1e-5)


def test_softmax_uniform_and_shifted_rows():
    x = np.array([[0.0, 0.0, 0.0, 0.0], [5.0, 5.0, 5.0, 5.0]], dtype=np.float32)
    p = softmax_rows(x)
    np.testing.assert_allclose(p, 0.25, rtol=1e-6)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-6)


def test_softmax_known_ratio():
    x = np.array([[math.log(2.0), 0.0]], dtype=np.float64)
    p = softmax_rows(x)
    np.testing.assert_allclose(p, [[2.0 / 3.0, 1.0 / 3.0]], rtol=1e-12)


def test_softmax_extreme_logits_stay_positive_and_finite():
    x = np.array([[1000.0, 0.0], [-1000.0, 0.0]], dtype=np.float32)
    p = softmax_rows(x)
    assert np.all(np.isfinite(p))
    assert np.all(p > 0.0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-6)
    assert p[0, 0] > 0.999
    assert p[1, 1] > 0.999
    assert np.all(np.isfinite(np.log(p)))


def test_softmax_matches_oracle_random_rows():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 9)).astype(np.float64)
    p = softmax_rows(x)
    for i in range(6):
        np.testing.assert_allclose(p[i], softmax_oracle(x[i]), rtol=1e-12)


def test_gather_and_take_forward():
    table = np.arange(20, dtype=np.float32).reshape(5, 4)
    idx = np.array([4, 0, 0, 2], dtype=np.int64)
    out = gather_rows(table, idx)
    assert np.array_equal(out, table[idx])
    # the model passes (B, c*g) uint8 byte windows
    idx = np.array([[4, 1, 1], [0, 3, 2]], dtype=np.uint8)
    out = gather_rows(table, idx)
    assert out.shape == (2, 3, 4) and out.dtype == np.float32
    assert np.array_equal(out, table[idx])

    # nll_loss takes each row's target probability
    probs = np.array([[0.5, 0.25, 0.25], [0.125, 0.125, 0.75]], dtype=np.float64)
    loss = nll_loss(probs, np.array([1, 2]))
    assert type(loss) is float
    assert loss == pytest.approx(-(math.log(0.25) + math.log(0.75)) / 2, rel=1e-15)


def test_scatter_rows_equals_add_at_on_repeated_bytes():
    # small-integer gradients sum exactly in any order, so the sort-and-reduce
    # must give np.add.at's result bit for bit, zero rows included, whatever
    # its scratch held before
    rng = np.random.default_rng(11)
    for shape, d in (((4, 12), 8), ((64, 32), 64), ((1, 1), 3), ((3, 5), 1)):
        idx = rng.integers(40, 48, size=shape)     # few values, many repeats
        g = rng.integers(-8, 9, size=shape + (d,)).astype(np.float32)
        want = np.zeros((256, d), dtype=np.float32)
        np.add.at(want, idx.reshape(-1), g.reshape(-1, d))
        for dtype in (np.uint8, np.int64):
            got = np.full((256, d), 7.0, dtype=np.float32)
            scatter_rows(got, idx.astype(dtype), g, np.full_like(g, np.nan))
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the model's backward, part by part, vs finite differences (all in float64)


def _fd_check(cfg, names, histories, targets, seed=0):
    """Gradients backward hands over for the named parameters vs central
    differences of the loss; returns every gradient by name."""
    model = float64_model(cfg, seed)
    histories = np.asarray(histories, dtype=np.int64)

    def loss_value():
        return nll_loss(forward_probs(model, histories), targets)

    forward_probs(model, histories)
    grads = grads_of(model, targets)
    for name in names:
        numeric = numeric_grad(loss_value, [getattr(model, name).value])[0]
        assert_grads_close(grads[name], numeric)
    return grads


def _batch(cfg, b, seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 256, (b, cfg.window), dtype=np.int64),
            rng.integers(0, 256, b, dtype=np.int64))


def test_backward_matmul_chain():
    # head and the shared FFN: matmul -> gelu -> matmul -> matmul
    cfg = dataclasses.replace(SMALL, shared_ffn_repeats=1)
    _fd_check(cfg, ("w1", "w2", "output_head"), *_batch(cfg, 3, 21))


def test_backward_batched_matmul():
    # the per-head batched products of last-position attention
    cfg = dataclasses.replace(SMALL, num_heads=4)
    _fd_check(cfg, ("wq", "wk", "wv", "wo"), *_batch(cfg, 3, 22))


def test_backward_softmax_log_take():
    # the loss the logit gradient belongs to: the mean of logsumexp minus
    # the target's logit
    rng = np.random.default_rng(23)
    logits = rng.standard_normal((3, 5))
    idx = np.array([2, 0, 1], dtype=np.int64)
    want = np.mean(np.log(np.exp(logits).sum(axis=1)) - logits[np.arange(3), idx])
    assert nll_loss(softmax_rows(logits), idx) == pytest.approx(want, rel=1e-14)


def test_backward_add_broadcast():
    # one positional table is added to every lane: its gradient sums them
    _fd_check(SMALL, ("positional_embedding",), *_batch(SMALL, 4, 24))


def test_backward_shape_ops():
    # bytes grouped 4 to a position and 4 heads of width 2: the reshapes
    # and transposes of both must route gradients to the right entries
    cfg = dataclasses.replace(SMALL, group_size=4, num_heads=4)
    _fd_check(cfg, ("wk", "wv", "wq"), *_batch(cfg, 2, 25))


def test_backward_gather_accumulates_repeats():
    histories = np.array([[1, 7, 1, 1, 7, 1], [7, 7, 7, 1, 1, 1]])
    grad = _fd_check(SMALL, ("byte_embedding",), histories, np.array([1, 7]))["byte_embedding"]
    used = np.zeros(256, dtype=bool)
    used[[1, 7]] = True
    assert np.all(grad[~used] == 0.0)
    assert np.all(grad[used] != 0.0)


def test_diamond_reuse_sums_both_paths():
    # the FFN weights are used on three paths and each residual feeds two
    cfg = dataclasses.replace(SMALL, shared_ffn_repeats=3)
    _fd_check(cfg, ("w1", "w2"), *_batch(cfg, 2, 26))


def test_backward_mean_gives_equal_shares():
    histories, targets = _batch(SMALL, 1, 27)

    def grads(reps):
        model = float64_model(SMALL, 0)
        forward_probs(model, np.repeat(histories, reps, axis=0))
        return grads_of(model, np.repeat(targets, reps))

    one, three = grads(1), grads(3)
    for name, grad in one.items():
        np.testing.assert_allclose(three[name], grad, rtol=1e-12, atol=1e-15)


def test_backward_overwrites_across_calls():
    model = float64_model(SMALL, 0)
    histories = _batch(SMALL, 2, 29)[0]
    forward_probs(model, histories)
    once = grads_of(model, [3, 4])
    forward_probs(model, histories)  # backward consumed the first pass
    twice = grads_of(model, [3, 4])
    assert list(twice) == list(once)
    for name, grad in once.items():
        assert np.array_equal(twice[name], grad), name


def test_backward_rejects_mismatched_logit_grad():
    # no forward pass, or targets for another lane count (one would
    # broadcast over the lanes): backward raises and hands over nothing
    model = float64_model(SMALL, 0)
    handed = []
    with pytest.raises(ValueError):
        backward(model, [3, 4], lambda w, g: handed.append(w))
    histories, targets = _batch(SMALL, 2, 30)
    forward_probs(model, histories)
    for wrong in (targets[:1], np.append(targets, 5)):
        with pytest.raises(ValueError):
            backward(model, wrong, lambda w, g: handed.append(w))
    assert handed == []
    # a refused call consumes nothing
    assert len(grads_of(model, targets)) == len(weight_shapes(SMALL))


# ---------------------------------------------------------------------------
# the trainable state and Adam


def _adam(value, grad, m=None, v=None):
    """Flat float arrays and fresh moments for adam_step."""
    value = np.asarray(value)
    grad = np.broadcast_to(np.asarray(grad, dtype=value.dtype), value.shape).copy()
    return value, grad, np.zeros_like(value), np.zeros_like(value)


def test_adam_zero_grad_keeps_values():
    state = _adam(np.array([1.0, -2.0], dtype=np.float32), 0.0)
    before = state[0].copy()
    adam_step(*state, 1, lr=0.01)
    assert np.array_equal(state[0], before)


def test_adam_first_step_moves_by_lr():
    # constant gradient 1: bias-corrected mhat=1, vhat=1, so the step is
    # lr / (1 + eps) regardless of magnitude scaling
    state = _adam(np.zeros((3,), dtype=np.float32), 1.0)
    adam_step(*state, 1, lr=0.05)
    np.testing.assert_allclose(state[0], -0.05, rtol=1e-5)


def test_adam_constant_grad_many_steps():
    state = _adam(np.zeros((1,), dtype=np.float64), 2.0)
    for t in range(1, 51):
        state[1][:] = 2.0   # adam_step overwrites the gradient
        adam_step(*state, t, lr=0.001)
    # each step with constant gradient moves about -lr
    np.testing.assert_allclose(state[0], -0.05, rtol=1e-3)


def test_adam_leaves_grads_and_counts_steps():
    # adam_step works in the gradient it is handed, so a caller that needs
    # its gradient again hands over a copy and keeps its own. The step
    # number is the caller's count: under a constant gradient each
    # bias-corrected step moves by lr, and a second step numbered 1 would
    # move by 1.34 lr.
    value, grad, m, v = _adam(np.ones((2,), dtype=np.float32), 3.0)
    for t in (1, 2):
        handed = grad.copy()
        adam_step(value, handed, m, v, t, lr=0.01)
        assert np.array_equal(grad, [3.0, 3.0])
        assert not np.array_equal(handed, grad)
    np.testing.assert_allclose(value, 1.0 - 2 * 0.01, rtol=1e-6)


@pytest.mark.parametrize("size", [1, SLICE - 1, SLICE + 1, 3 * SLICE + 7])
def test_adam_tracks_textbook_oracle(size):
    # gradients from 1e-10 to 10 in magnitude, so both the folded step size
    # and the folded epsilon decide digits
    rng = np.random.default_rng(size)
    start = rng.uniform(1.0, 2.0, size)
    scale = 10.0 ** rng.uniform(-10.0, 1.0, size)
    value, grad, m, v = _adam(start.copy(), 0.0)
    oracle = TextbookAdam(start, lr=1e-3)
    for t in range(1, 201):
        grad[:] = scale * rng.standard_normal(size)
        oracle.step(grad)   # first: adam_step overwrites the gradient
        adam_step(value, grad, m, v, t, lr=1e-3)
    np.testing.assert_allclose(value, oracle.value, rtol=1e-12, atol=0)


def test_parameter_holds_value_grad_and_moments_only():
    # the model's trainable state is each weight's value and two moments, and
    # no gradient: no array hangs off the model but through a weight, and
    # each weight's three arrays own their data in the weight's shape
    cfg = dataclasses.replace(SMALL, group_size=1)   # odd-sized weights too
    model = TraceModel(cfg, seed=0)
    assert not [name for name in model.__slots__
                if isinstance(getattr(model, name, None), np.ndarray)]
    arrays = []
    for name, shape in weight_shapes(cfg).items():
        w = getattr(model, name)
        assert w._fields == ("value", "m", "v")
        for a in w:
            assert a.shape == shape and a.dtype == np.float32
            assert a.flags.owndata and a.flags.c_contiguous
        arrays += w
    assert sum(a.nbytes for a in arrays) == 12 * parameter_count(cfg)


def test_adam_rejects_bad_lr():
    state = _adam(np.ones((1,), dtype=np.float32), 0.0)
    with pytest.raises(ValueError):
        adam_step(*state, 1, lr=0.0)
    with pytest.raises(ValueError):
        adam_step(*state, 1, lr=-1e-3)


def test_adam_descends_quadratic():
    # minimize (x - 3)^2 by hand-fed gradients
    value, grad, m, v = _adam(np.array([0.0], dtype=np.float32), 0.0)
    for t in range(1, 2001):
        grad[:] = 2.0 * (float(value[0]) - 3.0)
        adam_step(value, grad, m, v, t, lr=0.05)
    assert abs(float(value[0]) - 3.0) < 0.05


# ---------------------------------------------------------------------------
# PRNG


def _units(draws):
    """SplitMix64 draws as fill_uniform maps them into [0, 1)."""
    return np.array([(d >> 11) * 2.0 ** -53 for d in draws])


def test_rng_matches_splitmix_reference():
    # seed 0's first output as the SplitMix64 reference code publishes it
    draws = splitmix64(0)
    first = [next(draws) for _ in range(100)]
    assert first[0] == 0xE220A8397B1DCDAF
    assert np.array_equal(fill_uniform(0, 0, 100, 0.0, 1.0), _units(first))


def test_rng_known_first_output_seed_1234():
    want = _units([next(splitmix64(1234))])
    assert np.array_equal(fill_uniform(1234, 0, 1, 0.0, 1.0), want)


def test_rng_uniform_range_and_determinism():
    xs = fill_uniform(42, 0, 10_000, -0.25, 0.25)
    assert np.all((-0.25 <= xs) & (xs < 0.25))
    assert abs(np.mean(xs)) < 0.01
    assert np.array_equal(fill_uniform(42, 0, 10_000, -0.25, 0.25), xs)


def test_rng_uniform_rejects_empty_range():
    with pytest.raises(ValueError):
        fill_uniform(1, 0, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        fill_uniform(1, 0, 4, 2.0, -2.0)


def test_fill_uniform_equals_scalar_loop():
    draws = splitmix64(99)
    want = np.array([rng_uniform(draws, -0.1, 0.3) for _ in range(257)])
    assert np.array_equal(fill_uniform(99, 0, 257, -0.1, 0.3), want)
    assert np.array_equal(fill_uniform(99, 257, 3, -0.1, 0.3),
                          [rng_uniform(draws, -0.1, 0.3) for _ in range(3)])


def test_fill_uniform_from_offset_equals_slice_of_longer_run():
    # a seed 5 below 2^64 wraps the state on the first draw
    for seed in (0, 7, (1 << 64) - 5):
        for k, n in ((1, 5), (63, 130), (1000, 1)):
            assert np.array_equal(fill_uniform(seed, k, n, -1.0, 1.0),
                                  fill_uniform(seed, 0, k + n, -1.0, 1.0)[k:])


def test_distinct_seeds_distinct_streams():
    assert not np.array_equal(fill_uniform(1, 0, 4, 0.0, 1.0),
                              fill_uniform(2, 0, 4, 0.0, 1.0))
