"""Tests for the reverse-mode autodiff core.

Every differentiable op is checked against central finite differences at
random inputs kept away from non-smooth points (relu kinks, softmax ties).
"""

import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from hetlink import ndiff
from hetlink.ndiff import Adam, NdiffError, Parameter, Tensor, backward, glorot

from conftest import csr_arrays


def fd_grad(fn, x, h=1e-6):
    """Central-difference gradient of a scalar fn at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def check_op(build, x, rtol=1e-5):
    """Compare autodiff grads of sum(build(p)) against finite differences."""
    p = Parameter(x.copy(), "p")
    loss = ndiff.sum_all(build(p))
    backward(loss)

    def scalar(arr):
        return float(ndiff.sum_all(build(Tensor(arr))).data)

    expected = fd_grad(scalar, x.copy())
    np.testing.assert_allclose(p.grad, expected, rtol=rtol, atol=1e-7)


RNG = np.random.default_rng(42)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def test_grad_add_broadcast():
    b = RNG.standard_normal(4)
    check_op(lambda p: ndiff.add(p, b), RNG.standard_normal((3, 4)))


def test_grad_sub():
    b = RNG.standard_normal((3, 4))
    check_op(lambda p: ndiff.sub(b, p), RNG.standard_normal((3, 4)))


def test_grad_mul():
    b = RNG.standard_normal((3, 4))
    check_op(lambda p: ndiff.mul(p, b), RNG.standard_normal((3, 4)))


def test_grad_mul_both_sides_of_same_parameter():
    # p appears twice; gradients from both paths must accumulate.
    check_op(lambda p: ndiff.mul(p, p), RNG.standard_normal((2, 3)))


def test_grad_scalar_mul_and_neg():
    check_op(lambda p: ndiff.neg(ndiff.scalar_mul(p, 2.5)), RNG.standard_normal((2, 2)))


def test_grad_matmul_left_and_right():
    a = RNG.standard_normal((3, 4))
    b = RNG.standard_normal((4, 5))
    check_op(lambda p: ndiff.matmul(p, b), a.copy())
    check_op(lambda p: ndiff.matmul(a, p), b.copy())


def test_grad_sparse_matmul():
    s = sp.random(6, 4, density=0.5, random_state=0, format="csr")
    check_op(lambda p: ndiff.sparse_matmul(s, p), RNG.standard_normal((4, 3)))


def test_sparse_matmul_matches_dense():
    s = sp.random(5, 5, density=0.4, random_state=1, format="csr")
    x = RNG.standard_normal((5, 2))
    np.testing.assert_allclose(ndiff.sparse_matmul(s, Tensor(x)).data, s.toarray() @ x)


def test_grad_concat():
    b = RNG.standard_normal((3, 2))
    check_op(lambda p: ndiff.concat([p, Tensor(b)], axis=1), RNG.standard_normal((3, 4)))


def test_grad_reshape():
    check_op(lambda p: ndiff.reshape(p, (6,)), RNG.standard_normal((2, 3)))


def test_grad_gather_rows_with_repeats():
    idx = np.array([0, 2, 2, 1])
    check_op(lambda p: ndiff.gather_rows(p, idx), RNG.standard_normal((3, 4)))


def test_grad_scatter_rows():
    base = RNG.standard_normal((5, 3))
    idx = np.array([1, 4])
    check_op(lambda p: ndiff.scatter_rows(base, idx, p), RNG.standard_normal((2, 3)))


def test_grad_segment_sum():
    seg = np.array([0, 0, 1, 2, 2, 2])
    check_op(lambda p: ndiff.segment_sum(p, seg, 3), RNG.standard_normal((6, 2)))


def test_segment_sum_forward_oracle():
    x = np.arange(8, dtype=float).reshape(4, 2)
    out = ndiff.segment_sum(Tensor(x), np.array([1, 0, 1, 1]), 2).data
    np.testing.assert_allclose(out, [[2.0, 3.0], [10.0, 13.0]])


@pytest.mark.parametrize("n, k", [(0, 3), (1, 1), (7, 4), (500, 37)])
def test_segment_sum_by_indicator_equals_by_index_bitwise(n, k):
    """A prebuilt indicator operator gives the index form's sums and
    gradients, and the gradient is each row's segment gradient, as
    g[segments] reads it."""
    rng = np.random.default_rng(n + 1)
    seg = rng.integers(0, k, n)
    x = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-8, 8, (n, 1))
    w = rng.standard_normal((k, 5))
    indicator = ndiff.segment_indicator(seg, k)
    outs, grads = [], []
    for segments in (seg, indicator):
        p = Parameter(x, "p")
        out = ndiff.segment_sum(p, segments, k)
        backward(ndiff.sum_all(ndiff.mul(out, w)))
        outs.append(out.data.tobytes())
        grads.append(p.grad.tobytes())
    assert outs[0] == outs[1]
    assert grads[0] == grads[1] == w[seg].tobytes()
    with pytest.raises(NdiffError, match="segments"):
        ndiff.segment_sum(Tensor(x), indicator, k + 1)


@given(st.integers(1, 40).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.integers(0, k - 1), max_size=60))))
@example((3, [2, 0, 1, 0, 2, 2, 1]))    # unsorted
@example((8, [4, 4, 1, 6, 1]))          # segments 0, 2, 3, 5 and 7 empty
@example((3, []))                       # every segment empty
@example((0, []))
@example((1, [0, 0, 0, 0]))             # a single row
@settings(max_examples=60, deadline=None)
def test_segment_indicator_holds_the_coo_build_bitwise(case):
    """The direct CSR build holds the arrays scipy's COO constructor makes
    from the same entries, so its products add in the same order."""
    k, segments = case
    seg, n = np.asarray(segments, dtype=np.int64), len(segments)
    coo = sp.csr_matrix((np.ones(n), (seg, np.arange(n))), shape=(k, n))
    assert csr_arrays(ndiff.segment_indicator(seg, k).matrix) == csr_arrays(coo)


@pytest.mark.parametrize("segments, k, bad", [
    ([0, -1, 1], 3, -1), ([0, 3, 1], 3, 3), ([0, 5, -2], 3, -2), ([0], 0, 0)])
def test_segment_indicator_names_a_segment_id_outside_its_range(segments, k, bad):
    with pytest.raises(NdiffError, match=rf"^segment id {bad} outside the {k} segments$"):
        ndiff.segment_indicator(segments, k)
    with pytest.raises(NdiffError, match=rf"^segment id {bad} outside"):
        ndiff.segment_sum(Tensor(np.ones((len(segments), 2))), segments, k)


@pytest.mark.parametrize("fmt", ["csr", "csc"])
def test_sparse_matmul_backward_reuses_its_transpose_bitwise(fmt):
    """A scipy matrix, an operator over its CSR copy and the operator
    constant_csr builds from that copy's arrays give the same products and
    the gradients of `s.T @ g`; an operator's kept transpose is built by the
    first backward, and neither it nor the operator can be changed in place,
    while a plain matrix changed in place gets fresh gradients."""
    rng = np.random.default_rng(7)
    s = sp.random(40, 30, density=0.2, random_state=3, format=fmt)
    s.data *= 10.0 ** rng.integers(-8, 8, s.nnz)
    csr = s.tocsr(copy=True)
    op = ndiff.SparseOperator(csr.copy())
    built = ndiff.constant_csr(csr.data, csr.indices, np.diff(csr.indptr), 30)
    assert csr_arrays(built.matrix) == csr_arrays(csr)
    x = rng.standard_normal((30, 4))
    g = rng.standard_normal((40, 4))

    def grad(m):
        p = Parameter(x, "p")
        out = ndiff.sparse_matmul(m, p)
        backward(ndiff.sum_all(ndiff.mul(out, g)))
        return out.data.tobytes(), p.grad.tobytes()

    first = grad(op)
    assert first == grad(built)
    transposes = [op._transpose, built._transpose]
    assert None not in transposes
    assert first == grad(op) == grad(built) == grad(s)
    assert first == (np.asarray(s @ x).tobytes(), np.asarray(s.T @ g).tobytes())
    for operator, transpose in zip((op, built), transposes):
        assert operator.T is operator.T is transpose
        for m in (operator.matrix, transpose.matrix):
            for a in (m.data, m.indices, m.indptr):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = a[0]
    s.data *= 2.0
    assert grad(s)[1] == np.asarray(s.T @ g).tobytes() != first[1]


@pytest.mark.parametrize("n, k", [(0, 3), (1, 1), (7, 4), (500, 37)])
def test_segment_sums_equal_add_at_bitwise(n, k):
    """segment_sum, gather_rows' gradient and segment_softmax add rows in
    index order, so they equal the np.add.at loop bit for bit."""
    rng = np.random.default_rng(n)
    seg = rng.integers(0, k, n)
    x = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-8, 8, (n, 1))

    ref = np.zeros((k, 5))
    np.add.at(ref, seg, x)
    assert ndiff.segment_sum(Tensor(x), seg, k).data.tobytes() == ref.tobytes()

    p = Parameter(rng.standard_normal((k, 5)), "p")
    backward(ndiff.sum_all(ndiff.mul(ndiff.gather_rows(p, seg), x)))
    assert p.grad.tobytes() == ref.tobytes()

    logits = x[:, 0]
    maxes = np.full(k, -np.inf)
    np.maximum.at(maxes, seg, logits)
    e = np.exp(logits - maxes[seg])
    denom = np.zeros(k)
    np.add.at(denom, seg, e)
    out = ndiff.segment_softmax(Tensor(logits), seg, k).data
    assert out.tobytes() == (e / denom[seg]).tobytes()


def test_grad_mean_rows_sum_axis1_sum_all():
    check_op(ndiff.mean_rows, RNG.standard_normal((4, 3)))
    check_op(ndiff.sum_axis1, RNG.standard_normal((4, 3)))
    check_op(ndiff.sum_all, RNG.standard_normal((4, 3)))


def test_grad_l2_normalize_rows():
    x = RNG.standard_normal((4, 5)) + 0.5
    check_op(ndiff.l2_normalize_rows, x, rtol=1e-4)


def test_l2_normalize_rows_unit_norm():
    out = ndiff.l2_normalize_rows(Tensor(RNG.standard_normal((7, 3)))).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-9)


# ---------------------------------------------------------------------------
# nonlinearities


def _away_from_zero(shape):
    x = RNG.standard_normal(shape)
    return np.where(np.abs(x) < 0.05, 0.1, x)


def test_grad_leaky_relu():
    check_op(lambda p: ndiff.leaky_relu(p, 0.2), _away_from_zero((4, 4)))


def test_grad_elu_sigmoid_softplus():
    x = RNG.standard_normal((3, 5))
    check_op(ndiff.elu, x.copy(), rtol=1e-4)
    check_op(ndiff.sigmoid, x.copy(), rtol=1e-4)
    check_op(ndiff.softplus, x.copy(), rtol=1e-4)


def test_grad_softmax():
    w = RNG.standard_normal(6)
    check_op(lambda p: ndiff.mul(ndiff.softmax(p), w), RNG.standard_normal(6), rtol=1e-4)


def test_softmax_sums_to_one_and_rejects_2d():
    out = ndiff.softmax(Tensor(RNG.standard_normal(9) * 10)).data
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(out >= 0)
    with pytest.raises(NdiffError):
        ndiff.softmax(Tensor(np.ones((2, 2))))


def test_grad_segment_softmax():
    seg = np.array([0, 0, 1, 1, 1])
    weights = RNG.standard_normal(5)
    check_op(lambda p: ndiff.mul(ndiff.segment_softmax(p, seg, 2), weights),
             RNG.standard_normal(5), rtol=1e-4)


def test_segment_softmax_sums_to_one_per_segment():
    seg = np.array([0, 2, 0, 2, 2])
    out = ndiff.segment_softmax(Tensor(RNG.standard_normal(5)), seg, 3).data
    assert np.sum(out[seg == 0]) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(out[seg == 2]) == pytest.approx(1.0, abs=1e-12)


def test_dropout_identity_when_not_training():
    x = RNG.standard_normal((3, 3))
    out = ndiff.dropout(Tensor(x), 0.5, training=False)
    np.testing.assert_array_equal(out.data, x)


def test_dropout_preserves_expectation_and_needs_rng():
    x = np.ones((2000, 1))
    out = ndiff.dropout(Tensor(x), 0.4, training=True, rng=np.random.default_rng(0))
    kept = out.data[out.data != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.6)
    assert abs(out.data.mean() - 1.0) < 0.05
    with pytest.raises(NdiffError):
        ndiff.dropout(Tensor(x), 0.4, training=True)


def test_dropout_keeps_a_boolean_mask_and_gives_the_float_masks_floats():
    x, g = RNG.standard_normal((40, 7)), RNG.standard_normal((40, 7))
    out = ndiff.dropout(Parameter(x, "x"), 0.3, training=True, rng=np.random.default_rng(5))
    # the float64 mask dropout kept before it kept the draw's bools
    mask = (np.random.default_rng(5).random(x.shape) >= 0.3) / (1.0 - 0.3)
    assert out.data.tobytes() == (x * mask).tobytes()
    assert out._backward(g)[0].tobytes() == (g * mask).tobytes()
    held = [c.cell_contents for c in out._backward.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    assert [(a.dtype, a.shape) for a in held] == [(np.dtype(bool), x.shape)]


# ---------------------------------------------------------------------------
# backward-pass mechanics


def test_backward_requires_scalar():
    p = Parameter(np.ones((2, 2)), "p")
    with pytest.raises(NdiffError):
        backward(ndiff.mul(p, p))


def test_backward_accumulates_across_calls():
    p = Parameter(np.array([3.0]), "p")
    backward(ndiff.sum_all(ndiff.mul(p, p)))
    backward(ndiff.sum_all(ndiff.mul(p, p)))
    np.testing.assert_allclose(p.grad, [12.0])
    p.zero_grad()
    np.testing.assert_allclose(p.grad, [0.0])


def test_backward_diamond_graph():
    # p feeds two branches that rejoin; d/dp [p*p + 2p] = 2p + 2.
    p = Parameter(np.array([4.0]), "p")
    backward(ndiff.sum_all(ndiff.add(ndiff.mul(p, p), ndiff.scalar_mul(p, 2.0))))
    np.testing.assert_allclose(p.grad, [10.0])


def test_backward_refuses_a_second_walk_of_one_loss():
    p = Parameter(np.array([3.0]), "p")
    loss = ndiff.sum_all(ndiff.mul(p, p))
    backward(loss)
    with pytest.raises(NdiffError, match="earlier backward freed"):
        backward(loss)
    np.testing.assert_allclose(p.grad, [6.0])


def test_backward_refuses_a_loss_that_reaches_a_walked_tape():
    # the second loss reaches `shared` whose tape the first backward freed:
    # refused before any gradient is added, p's included
    p = Parameter(np.array([3.0]), "p")
    shared = ndiff.mul(p, p)
    backward(ndiff.sum_all(shared))
    with pytest.raises(NdiffError, match="earlier backward freed"):
        backward(ndiff.sum_all(ndiff.add(shared, p)))
    np.testing.assert_allclose(p.grad, [6.0])


def test_backward_frees_the_forward_arrays_of_the_tape():
    # Tensor has no __weakref__ slot, so the references are to its ndarrays
    p = Parameter(RNG.standard_normal((4, 3)), "p")
    loss = ndiff.sum_all(ndiff.elu(ndiff.matmul(p, p.data.T)))
    elu_node = loss._parents[0]
    refs = [weakref.ref(elu_node.data), weakref.ref(elu_node._parents[0].data)]
    del elu_node
    backward(loss)
    assert loss._parents == () and loss._backward is None
    assert [ref() for ref in refs] == [None, None]
    assert loss.data.size == 1 and p.grad.any()


def test_constants_do_not_get_grads():
    t = Tensor(np.ones(3))
    p = Parameter(np.ones(3), "p")
    backward(ndiff.sum_all(ndiff.mul(p, t)))
    assert not t.needs_grad
    np.testing.assert_allclose(p.grad, np.ones(3))


def test_no_grad_records_no_tape_until_it_closes():
    p = Parameter(np.array([1.0, -2.0, 3.0]), "p")
    with ndiff.no_grad():
        with ndiff.no_grad():
            inner = ndiff.mul(p, p)
        outer = ndiff.add(inner, p)
    for t in (inner, outer):
        assert not t.needs_grad and t._parents == () and t._backward is None
    assert outer.data.tobytes() == ndiff.add(ndiff.mul(p, p), p).data.tobytes()
    with pytest.raises(ValueError):
        with ndiff.no_grad():
            raise ValueError
    backward(ndiff.sum_all(ndiff.mul(p, p)))
    np.testing.assert_array_equal(p.grad, 2 * p.data)


def test_no_grad_in_one_thread_leaves_another_recording():
    p = Parameter(np.ones(2), "p")
    opened, checked = threading.Event(), threading.Event()
    seen = []

    def hold_no_grad():
        with ndiff.no_grad():
            opened.set()
            checked.wait(10)
            seen.append(ndiff.mul(p, p).needs_grad)

    worker = threading.Thread(target=hold_no_grad)
    worker.start()
    assert opened.wait(10)
    assert ndiff.mul(p, p).needs_grad
    checked.set()
    worker.join(10)
    assert not worker.is_alive()
    assert seen == [False]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_composite_expression_matches_fd(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 4))

    def build(p):
        h = ndiff.elu(ndiff.matmul(p, w))
        return ndiff.mul(ndiff.sigmoid(h), ndiff.softplus(p))

    check_op(build, x, rtol=1e-3)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_first_step_moves_by_lr():
    # With bias correction, the first Adam step is lr * sign(grad).
    p = Parameter(np.array([1.0, -2.0]), "p")
    opt = Adam([p], lr=0.1)
    p.grad[:] = [0.5, -3.0]
    opt.step()
    np.testing.assert_allclose(p.data, [1.0 - 0.1, -2.0 + 0.1], rtol=1e-6)


def test_adam_converges_on_quadratic():
    p = Parameter(np.array([5.0]), "p")
    opt = Adam([p], lr=0.2)
    for _ in range(200):
        backward(ndiff.sum_all(ndiff.mul(p, p)))
        opt.step()
    assert abs(p.data[0]) < 1e-2


def test_adam_weight_decay_is_decoupled():
    # Zero gradient: decay should shrink weights multiplicatively, and the
    # Adam update itself (from a zero grad) contributes nothing.
    p = Parameter(np.array([2.0]), "p")
    opt = Adam([p], lr=0.1, weight_decay=0.5)
    p.grad[:] = 0.0
    opt.step()
    np.testing.assert_allclose(p.data, [2.0 * (1 - 0.1 * 0.5)])


def test_adam_rejects_nonfinite_grads_and_duplicate_names():
    p = Parameter(np.array([1.0]), "p")
    opt = Adam([p])
    p.grad[:] = np.nan
    with pytest.raises(NdiffError):
        opt.step()
    with pytest.raises(NdiffError):
        Adam([Parameter(np.zeros(1), "x"), Parameter(np.zeros(1), "x")])


def test_adam_zeroes_grads_after_step():
    p = Parameter(np.array([1.0]), "p")
    opt = Adam([p], lr=0.1)
    p.grad[:] = 1.0
    opt.step()
    np.testing.assert_allclose(p.grad, [0.0])


def test_glorot_respects_limit_and_seed():
    r1 = glorot(np.random.default_rng(0), (50, 30))
    r2 = glorot(np.random.default_rng(0), (50, 30))
    np.testing.assert_array_equal(r1, r2)
    limit = np.sqrt(6.0 / 80)
    assert np.all(np.abs(r1) <= limit)

