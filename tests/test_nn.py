"""Tensor ops, autodiff, Adam, and the PRNG.

Ground truth comes from in-test oracles: a scalar triple-loop matmul, closed
forms for softmax and gelu, and central finite differences for every backward
pass.
"""

import math

import numpy as np
import pytest

from conftest import assert_grads_close, numeric_grad
from oracles import rng_uniform
from trc.nn import (
    Parameter,
    Rng64,
    Tensor,
    adam_step,
    add,
    backward,
    fill_uniform,
    gather_rows,
    gelu,
    last_position,
    log,
    matmul,
    mean_all,
    neg,
    reshape,
    scale,
    softmax_rows,
    take_per_row,
    transpose,
)

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
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 7), dtype=np.float32)
    b = rng.standard_normal((7, 3), dtype=np.float32)
    got = matmul(Tensor(a), Tensor(b)).data
    want = matmul_oracle(a, b)
    assert got.dtype == np.float32
    assert np.array_equal(got, want)


def test_matmul_batched_matches_per_slice():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 3, 6), dtype=np.float32)
    b = rng.standard_normal((4, 6, 2), dtype=np.float32)
    got = matmul(Tensor(a), Tensor(b)).data
    for i in range(4):
        want = matmul(Tensor(a[i]), Tensor(b[i])).data
        assert np.array_equal(got[i], want)


def test_matmul_shape_mismatch_raises():
    a = Tensor(np.zeros((2, 3), dtype=np.float32))
    b = Tensor(np.zeros((4, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        matmul(a, b)


def test_gelu_closed_form_points():
    x = np.array([0.0, 1.0, -1.0, 10.0, -10.0, 0.5], dtype=np.float64)
    got = gelu(Tensor(x)).data
    want = np.array([gelu_oracle(v) for v in x])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    assert got[0] == 0.0
    assert abs(got[1] - 0.8411919906082768) < 1e-12
    np.testing.assert_allclose(got[3], 10.0, rtol=1e-9)
    assert abs(got[4]) < 1e-7


def test_softmax_uniform_and_shifted_rows():
    x = Tensor(np.array([[0.0, 0.0, 0.0, 0.0], [5.0, 5.0, 5.0, 5.0]], dtype=np.float32))
    p = softmax_rows(x).data
    np.testing.assert_allclose(p, 0.25, rtol=1e-6)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-6)


def test_softmax_known_ratio():
    x = Tensor(np.array([[math.log(2.0), 0.0]], dtype=np.float64))
    p = softmax_rows(x).data
    np.testing.assert_allclose(p, [[2.0 / 3.0, 1.0 / 3.0]], rtol=1e-12)


def test_softmax_extreme_logits_stay_positive_and_finite():
    x = Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]], dtype=np.float32))
    p = softmax_rows(x).data
    assert np.all(np.isfinite(p))
    assert np.all(p > 0.0)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-6)
    assert p[0, 0] > 0.999
    assert p[1, 1] > 0.999


def test_softmax_matches_oracle_random_rows():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 9)).astype(np.float64)
    p = softmax_rows(Tensor(x)).data
    for i in range(6):
        np.testing.assert_allclose(p[i], softmax_oracle(x[i]), rtol=1e-12)


def test_shape_ops_roundtrip_values():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 4)).astype(np.float32)
    t = Tensor(x)
    assert np.array_equal(reshape(t, (6, 4)).data, x.reshape(6, 4))
    assert np.array_equal(transpose(t, (0, 2, 1)).data, x.transpose(0, 2, 1))
    assert np.array_equal(last_position(t).data, x[:, -1, :])


def test_gather_and_take_forward():
    table = np.arange(20, dtype=np.float32).reshape(5, 4)
    idx = np.array([4, 0, 0, 2], dtype=np.int64)
    out = gather_rows(Tensor(table), idx).data
    assert np.array_equal(out, table[idx])

    probs = np.arange(12, dtype=np.float32).reshape(3, 4)
    cols = np.array([1, 3, 0], dtype=np.int64)
    got = take_per_row(Tensor(probs), cols).data
    assert np.array_equal(got, np.array([1.0, 7.0, 8.0], dtype=np.float32))


def test_reductions_and_scalar_ops():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64))
    assert float(mean_all(x).data) == 2.5
    assert np.array_equal(neg(x).data, -x.data)
    assert np.array_equal(scale(x, 0.5).data, x.data * 0.5)
    np.testing.assert_allclose(log(x).data, np.log(x.data), rtol=1e-15)


def test_add_broadcasts_trailing_shape():
    a = np.ones((2, 3, 4), dtype=np.float32)
    b = np.arange(12, dtype=np.float32).reshape(3, 4)
    out = add(Tensor(a), Tensor(b)).data
    assert out.shape == (2, 3, 4)
    assert np.array_equal(out, a + b)


# ---------------------------------------------------------------------------
# backward passes vs finite differences (all in float64)


def _fd_check(build_loss, shapes, seed, step=1e-3):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s).astype(np.float64) for s in shapes]
    params = [Parameter(a) for a in arrays]
    loss = build_loss(params)
    backward(loss)
    analytic = [p.grad.copy() for p in params]

    def run():
        return float(build_loss(params).data)

    numeric = numeric_grad(run, [p.value.data for p in params], step=step)
    for a, n in zip(analytic, numeric):
        assert_grads_close(a, n)


def test_backward_matmul_chain():
    _fd_check(
        lambda ps: mean_all(gelu(matmul(ps[0].value, ps[1].value))),
        [(3, 4), (4, 2)],
        seed=21,
    )


def test_backward_batched_matmul():
    _fd_check(
        lambda ps: mean_all(gelu(matmul(ps[0].value, ps[1].value))),
        [(2, 3, 4), (2, 4, 3)],
        seed=22,
    )


def test_backward_softmax_log_take():
    idx = np.array([2, 0, 1], dtype=np.int64)

    def build(ps):
        p = softmax_rows(ps[0].value)
        return neg(mean_all(log(take_per_row(p, idx))))

    _fd_check(build, [(3, 5)], seed=23)


def test_backward_add_broadcast():
    def build(ps):
        return mean_all(gelu(add(ps[0].value, ps[1].value)))

    _fd_check(build, [(2, 3, 4), (3, 4)], seed=24)


def test_backward_shape_ops():
    def build(ps):
        t = transpose(reshape(ps[0].value, (2, 3, 4)), (0, 2, 1))
        return mean_all(gelu(last_position(t)))

    _fd_check(build, [(6, 4)], seed=25)


def test_backward_gather_accumulates_repeats():
    idx = np.array([1, 1, 0, 3], dtype=np.int64)

    def build(ps):
        return mean_all(gelu(gather_rows(ps[0].value, idx)))

    _fd_check(build, [(4, 3)], seed=26)


def test_backward_scale_and_neg():
    def build(ps):
        return mean_all(scale(neg(gelu(ps[0].value)), 1.7))

    _fd_check(build, [(4, 4)], seed=27)


def test_backward_mean_gives_equal_shares():
    p = Parameter(np.zeros((2, 2), dtype=np.float32))
    backward(mean_all(p.value))
    assert np.array_equal(p.grad, np.full((2, 2), 0.25))


def test_backward_zero_scale_gives_zeros():
    p = Parameter(np.ones((2, 2), dtype=np.float32))
    backward(scale(mean_all(gelu(p.value)), 0.0))
    assert np.array_equal(p.grad, np.zeros((2, 2)))


def test_backward_accumulates_across_calls():
    p = Parameter(np.ones((2,), dtype=np.float32))
    backward(mean_all(p.value))
    backward(scale(mean_all(p.value), 2.0))
    assert np.array_equal(p.grad, np.full((2,), 1.5))


def test_backward_rejects_non_scalar():
    p = Parameter(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        backward(gelu(p.value))


def test_diamond_reuse_sums_both_paths():
    p = Parameter(np.array([0.7, -0.3], dtype=np.float64))
    x = p.value
    loss = mean_all(add(gelu(x), scale(x, 2.0)))
    backward(loss)

    def run():
        x2 = p.value
        return float(mean_all(add(gelu(x2), scale(x2, 2.0))).data)

    numeric = numeric_grad(run, [p.value.data])
    assert_grads_close(p.grad, numeric[0])


# ---------------------------------------------------------------------------
# Parameter and Adam


def test_parameter_rejects_non_finite():
    with pytest.raises(ValueError):
        Parameter(np.array([1.0, np.inf], dtype=np.float32))


def test_adam_zero_grad_keeps_values():
    p = Parameter(np.array([1.0, -2.0], dtype=np.float32))
    before = p.value.data.copy()
    adam_step([p], lr=0.01)
    assert np.array_equal(p.value.data, before)
    assert p.step_count == 1


def test_adam_first_step_moves_by_lr():
    # constant gradient 1: bias-corrected mhat=1, vhat=1, so the step is
    # lr / (1 + eps) regardless of magnitude scaling
    p = Parameter(np.zeros((3,), dtype=np.float32))
    p.grad[:] = 1.0
    adam_step([p], lr=0.05)
    np.testing.assert_allclose(p.value.data, -0.05, rtol=1e-5)


def test_adam_constant_grad_many_steps():
    p = Parameter(np.zeros((1,), dtype=np.float64))
    for _ in range(50):
        p.grad[:] = 2.0
        adam_step([p], lr=0.001)
    # each step with constant gradient moves about -lr
    np.testing.assert_allclose(p.value.data, -0.05, rtol=1e-3)


def test_adam_clears_grads_and_counts_steps():
    p = Parameter(np.ones((2,), dtype=np.float32))
    p.grad[:] = 3.0
    adam_step([p], lr=0.01)
    assert np.array_equal(p.grad, np.zeros((2,)))
    p.grad[:] = 3.0
    adam_step([p], lr=0.01)
    assert p.step_count == 2


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
        p.grad[:] = 2.0 * (float(p.value.data[0]) - 3.0)
        adam_step([p], lr=0.05)
    assert abs(float(p.value.data[0]) - 3.0) < 0.05


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
