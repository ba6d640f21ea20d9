"""Array kernels, the hand-written backward, Adam, and the PRNG.

Ground truth comes from in-test oracles: a scalar triple-loop matmul, closed
forms for softmax and gelu, and central finite differences in float64 for
each part of the model's backward.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import assert_grads_close, float64_model, numeric_grad
from oracles import TextbookAdam, rng_uniform
from trc.model import ModelConfig, backward, forward_probs, nll_loss
from trc.nn import (
    SLICE,
    Parameter,
    Rng64,
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


def splitmix_oracle(state):
    """One SplitMix64 draw; returns (new_state, output)."""
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4E1C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return state, z ^ (z >> 31)


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


def test_gelu_closed_form_points():
    x = np.array([0.0, 1.0, -1.0, 10.0, -10.0, 0.5], dtype=np.float64)
    t = np.empty_like(x)
    got = gelu(x, t)
    want = np.array([gelu_oracle(v) for v in x])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    assert got[0] == 0.0
    assert abs(got[1] - 0.8411919906082768) < 1e-12
    np.testing.assert_allclose(got[3], 10.0, rtol=1e-9)
    assert abs(got[4]) < 1e-7
    c = math.sqrt(2.0 / math.pi)
    np.testing.assert_allclose(t, np.tanh(c * (x + 0.044715 * x ** 3)), rtol=1e-15, atol=0)
    t32 = np.empty(x.shape, dtype=np.float32)
    got32 = gelu(x.astype(np.float32), t32)
    assert got32.dtype == np.float32
    np.testing.assert_allclose(got32, want, rtol=1e-6, atol=1e-7)


def test_gelu_backward_with_kept_tanh_matches_central_differences():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-6.0, 6.0, 200), [0.0, -1e-3, 1e-3, 8.0, -8.0]])
    g = rng.standard_normal(x.shape)
    t = np.empty_like(x)
    gelu(x, t)
    got = g.copy()
    gelu_backward(x, t, got)
    h = 1e-5
    fd = (gelu(x + h, np.empty_like(x)) - gelu(x - h, np.empty_like(x))) / (2.0 * h)
    np.testing.assert_allclose(got, g * fd, rtol=1e-7, atol=1e-9)
    t32 = np.empty(x.shape, dtype=np.float32)
    gelu(x.astype(np.float32), t32)
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

    # nll_loss takes each row's target probability
    probs = np.array([[0.5, 0.25, 0.25], [0.125, 0.125, 0.75]], dtype=np.float64)
    loss, grad = nll_loss(probs, np.array([1, 2]))
    assert loss == pytest.approx(-(math.log(0.25) + math.log(0.75)) / 2, rel=1e-15)
    np.testing.assert_array_equal(grad, [[0.25, -0.375, 0.125], [0.0625, 0.0625, -0.125]])


def test_scatter_rows_equals_add_at_on_repeated_bytes():
    # small-integer gradients sum exactly in any order, so the sort-and-reduce
    # must give np.add.at's result bit for bit, zero rows included
    rng = np.random.default_rng(11)
    for shape, d in (((4, 12), 8), ((64, 32), 64), ((1, 1), 3), ((3, 5), 1)):
        idx = rng.integers(40, 48, size=shape)     # few values, many repeats
        g = rng.integers(-8, 9, size=shape + (d,)).astype(np.float32)
        want = np.zeros((256, d), dtype=np.float32)
        np.add.at(want, idx.reshape(-1), g.reshape(-1, d))
        for dtype in (np.uint8, np.int64):
            got = np.full((256, d), 7.0, dtype=np.float32)
            scatter_rows(got, idx.astype(dtype), g)
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the model's backward, part by part, vs finite differences (all in float64)


def _fd_check(cfg, names, histories, targets, seed=0):
    """Gradients backward writes for the named parameters vs central
    differences of the loss."""
    model = float64_model(cfg, seed)
    histories = np.asarray(histories, dtype=np.int64)

    def loss_value():
        return nll_loss(forward_probs(model, histories), targets)[0]

    _, dlogits = nll_loss(forward_probs(model, histories), targets)
    backward(model, dlogits)
    for name in names:
        p = getattr(model, name)
        numeric = numeric_grad(loss_value, [p.value])[0]
        assert_grads_close(p.grad, numeric)
    return model


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
    rng = np.random.default_rng(23)
    logits = rng.standard_normal((3, 5))
    idx = np.array([2, 0, 1], dtype=np.int64)

    def run():
        return nll_loss(softmax_rows(logits), idx)[0]

    _, analytic = nll_loss(softmax_rows(logits), idx)
    assert_grads_close(analytic, numeric_grad(run, [logits])[0])


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
    model = _fd_check(SMALL, ("byte_embedding",), histories, np.array([1, 7]))
    used = np.zeros(256, dtype=bool)
    used[[1, 7]] = True
    assert np.all(model.byte_embedding.grad[~used] == 0.0)
    assert np.all(model.byte_embedding.grad[used] != 0.0)


def test_diamond_reuse_sums_both_paths():
    # the FFN weights are used on three paths and each residual feeds two
    cfg = dataclasses.replace(SMALL, shared_ffn_repeats=3)
    _fd_check(cfg, ("w1", "w2"), *_batch(cfg, 2, 26))


def test_backward_mean_gives_equal_shares():
    histories, targets = _batch(SMALL, 1, 27)
    one = float64_model(SMALL, 0)
    three = float64_model(SMALL, 0)
    for model, reps in ((one, 1), (three, 3)):
        _, dlogits = nll_loss(forward_probs(model, np.repeat(histories, reps, axis=0)),
                              np.repeat(targets, reps))
        backward(model, dlogits)
    for p1, p3 in zip(one.parameters(), three.parameters()):
        np.testing.assert_allclose(p3.grad, p1.grad, rtol=1e-12, atol=1e-15)


def test_backward_zero_scale_gives_zeros():
    model = float64_model(SMALL, 0)
    _, dlogits = nll_loss(forward_probs(model, _batch(SMALL, 2, 28)[0]), [3, 4])
    backward(model, dlogits)
    backward(model, 0.0 * dlogits)
    for p in model.parameters():
        assert np.array_equal(p.grad, np.zeros_like(p.grad))


def test_backward_overwrites_across_calls():
    model = float64_model(SMALL, 0)
    _, dlogits = nll_loss(forward_probs(model, _batch(SMALL, 2, 29)[0]), [3, 4])
    backward(model, dlogits)
    once = [p.grad.copy() for p in model.parameters()]
    backward(model, dlogits)
    for p, g in zip(model.parameters(), once):
        assert np.array_equal(p.grad, g)


def test_backward_rejects_mismatched_logit_grad():
    model = float64_model(SMALL, 0)
    with pytest.raises(ValueError):
        backward(model, np.zeros((2, 256)))  # no forward pass yet
    forward_probs(model, _batch(SMALL, 2, 30)[0])
    with pytest.raises(ValueError):
        backward(model, np.zeros((3, 256)))


# ---------------------------------------------------------------------------
# Parameter and Adam


def test_parameter_rejects_non_finite():
    with pytest.raises(ValueError):
        Parameter(np.array([1.0, np.inf], dtype=np.float32))


def test_adam_zero_grad_keeps_values():
    p = Parameter(np.array([1.0, -2.0], dtype=np.float32))
    before = p.value.copy()
    adam_step([p], lr=0.01)
    assert np.array_equal(p.value, before)
    assert p.step_count == 1


def test_adam_first_step_moves_by_lr():
    # constant gradient 1: bias-corrected mhat=1, vhat=1, so the step is
    # lr / (1 + eps) regardless of magnitude scaling
    p = Parameter(np.zeros((3,), dtype=np.float32))
    p.grad[:] = 1.0
    adam_step([p], lr=0.05)
    np.testing.assert_allclose(p.value, -0.05, rtol=1e-5)


def test_adam_constant_grad_many_steps():
    p = Parameter(np.zeros((1,), dtype=np.float64))
    for _ in range(50):
        p.grad[:] = 2.0
        adam_step([p], lr=0.001)
    # each step with constant gradient moves about -lr
    np.testing.assert_allclose(p.value, -0.05, rtol=1e-3)


def test_adam_leaves_grads_and_counts_steps():
    # backward overwrites every grad, so adam_step reads them and leaves
    # them as they are
    p = Parameter(np.ones((2,), dtype=np.float32))
    p.grad[:] = 3.0
    adam_step([p], lr=0.01)
    assert np.array_equal(p.grad, [3.0, 3.0])
    adam_step([p], lr=0.01)
    assert np.array_equal(p.grad, [3.0, 3.0])
    assert p.step_count == 2


@pytest.mark.parametrize("size", [1, SLICE - 1, SLICE + 1, 3 * SLICE + 7])
def test_adam_tracks_textbook_oracle(size):
    # gradients from 1e-10 to 10 in magnitude, so both the folded step size
    # and the folded epsilon decide digits
    rng = np.random.default_rng(size)
    start = rng.uniform(1.0, 2.0, size)
    scale = 10.0 ** rng.uniform(-10.0, 1.0, size)
    p = Parameter(start)
    oracle = TextbookAdam(start, lr=1e-3)
    for _ in range(200):
        grad = scale * rng.standard_normal(size)
        p.grad[:] = grad
        adam_step([p], lr=1e-3)
        oracle.step(grad)
    assert p.step_count == 200
    np.testing.assert_allclose(p.value, oracle.value, rtol=1e-12, atol=0)


def test_parameter_holds_value_grad_and_moments_only():
    p = Parameter(np.zeros((3, 5), dtype=np.float32))
    arrays = {name: getattr(p, name) for name in p.__slots__
              if isinstance(getattr(p, name), np.ndarray)}
    assert set(arrays) == {"value", "grad", "m", "v"}
    for a in arrays.values():
        assert a.shape == (3, 5) and a.dtype == np.float32 and a.flags.c_contiguous
    assert sum(a.nbytes for a in arrays.values()) == 4 * p.value.nbytes


def test_adam_rejects_bad_lr():
    p = Parameter(np.ones((1,), dtype=np.float32))
    with pytest.raises(ValueError):
        adam_step([p], lr=0.0)
    with pytest.raises(ValueError):
        adam_step([p], lr=-1e-3)


def test_adam_descends_quadratic():
    # minimize (x - 3)^2 by hand-fed gradients
    p = Parameter(np.array([0.0], dtype=np.float32))
    for _ in range(2000):
        p.grad[:] = 2.0 * (float(p.value[0]) - 3.0)
        adam_step([p], lr=0.05)
    assert abs(float(p.value[0]) - 3.0) < 0.05


# ---------------------------------------------------------------------------
# PRNG


def test_rng_matches_splitmix_reference():
    rng = Rng64(seed=0)
    state = 0
    for _ in range(100):
        state, want = splitmix_oracle(state)
        assert rng.next_u64() == want


def test_rng_known_first_output_seed_1234():
    state, want = splitmix_oracle(1234)
    assert Rng64(seed=1234).next_u64() == want


def test_rng_uniform_range_and_determinism():
    rng = Rng64(seed=42)
    xs = [rng_uniform(rng, -0.25, 0.25) for _ in range(10_000)]
    assert all(-0.25 <= x < 0.25 for x in xs)
    assert abs(np.mean(xs)) < 0.01
    rng2 = Rng64(seed=42)
    ys = [rng_uniform(rng2, -0.25, 0.25) for _ in range(10_000)]
    assert xs == ys


def test_rng_uniform_rejects_empty_range():
    rng = Rng64(seed=1)
    with pytest.raises(ValueError):
        fill_uniform(rng, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        fill_uniform(rng, 4, 2.0, -2.0)


def test_fill_uniform_equals_scalar_loop():
    rng_a = Rng64(seed=99)
    out = fill_uniform(rng_a, 257, -0.1, 0.3)

    rng_b = Rng64(seed=99)
    want = np.array([rng_uniform(rng_b, -0.1, 0.3) for _ in range(257)])
    assert np.array_equal(out, want)
    assert rng_a.state == rng_b.state


def test_distinct_seeds_distinct_streams():
    a = [Rng64(seed=1).next_u64() for _ in range(4)]
    b = [Rng64(seed=2).next_u64() for _ in range(4)]
    assert a != b
