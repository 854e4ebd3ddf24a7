"""Minimal dense-tensor reverse-mode autodiff and the Adam optimizer.

Everything is float64 numpy underneath.  A forward pass builds an implicit
tape through parent links; ``backward(loss)`` walks it once in reverse
topological order, accumulates gradients into every reachable
:class:`Parameter` and frees each node as it goes: a tape serves one backward
and keeps no forward array after it.  Inside ``with no_grad():`` no op
records a node.  Rank <= 2 tensors are sufficient for all encoders.  Only this
module knows that a :class:`SparseOperator`, which ``constant_csr`` returns,
holds a scipy CSR matrix: callers use its ``@`` and ``.T``.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np
import scipy.sparse as sp


class NdiffError(Exception):
    pass


class Tensor:
    __slots__ = ("data", "_parents", "_backward", "needs_grad")

    def __init__(self, data, parents=(), backward=None, needs_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self._parents = parents
        self._backward = backward
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, needs_grad={self.needs_grad})"


class Parameter(Tensor):
    """Trainable tensor with a gradient slot and a stable name."""

    __slots__ = ("name", "grad")

    def __init__(self, data, name: str):
        super().__init__(np.array(data, dtype=np.float64), needs_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# per thread (and asyncio task): one thread's no_grad leaves another's tape be
_recording = contextvars.ContextVar("ndiff_recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Within it, ops return constant tensors: no tape, so no backward."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def tape_node(data, parents, backward) -> Tensor:
    """The op result `data`, recorded on the tape with `backward` (the
    gradient of each parent, in order, from the result's) when a parent needs
    a gradient and no no_grad is open; a constant tensor otherwise."""
    if not (_recording.get() and any(p.needs_grad for p in parents)):
        return Tensor(data)
    return Tensor(data, parents=tuple(parents), backward=backward, needs_grad=True)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum grad down to `shape` to undo numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# -- basic ops -------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
    return tape_node(out, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def back(g):
        return _unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)
    return tape_node(out, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def back(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)
    return tape_node(out, (a, b), back)


def scalar_mul(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)

    def back(g):
        return (g * c,)
    return tape_node(a.data * c, (a,), back)


def neg(a) -> Tensor:
    return scalar_mul(a, -1.0)


def matmul(a, b) -> Tensor:
    """2-D @ 2-D or 2-D @ 1-D dense matrix product."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise NdiffError(f"matmul supports 2-D @ 1/2-D, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise NdiffError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def back(g):
        if b.data.ndim == 1:
            return np.outer(g, b.data), a.data.T @ g
        return g @ b.data.T, a.data.T @ g
    return tape_node(out, (a, b), back)


class SparseOperator:
    """A constant sparse matrix that `sparse_matmul` multiplies by many times,
    such as a graph's adjacency; `constant_csr` builds every one.

    It answers `op @ x` with an ndarray and `op.T` with its transpose, as a
    scipy matrix does, and `sparse_matmul` and the encoders use nothing else.
    It takes the CSR `matrix` over and makes its arrays read-only.  The
    transpose, an operator too, is built on first use and kept; its product
    adds each output row's terms in the order of `matrix.T @ g`, so gradients
    are bit-for-bit the same."""
    __slots__ = ("matrix", "_transpose")

    def __init__(self, matrix):
        for a in (matrix.data, matrix.indices, matrix.indptr):
            a.flags.writeable = False
        self.matrix = matrix
        self._transpose = None

    @property
    def shape(self):
        return self.matrix.shape

    def __matmul__(self, x) -> np.ndarray:
        return self.matrix @ x

    @property
    def T(self) -> "SparseOperator":
        if self._transpose is None:
            self._transpose = SparseOperator(self.matrix.T.tocsr())
        return self._transpose


def sparse_matmul(s, x) -> Tensor:
    """Constant sparse matrix times tensor; s is never differentiated.

    `s` is anything with `@` and `.T`: a `SparseOperator`, whose backward
    reuses its kept transpose, or a scipy sparse matrix, whose `.T` is made
    anew on each backward."""
    x = _as_tensor(x)

    def back(g):
        return (s.T @ g,)
    return tape_node(s @ x.data, (x,), back)


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise NdiffError("concat of nothing")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def back(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))
    return tape_node(out, tensors, back)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def back(g):
        return (g.reshape(a.shape),)
    return tape_node(out, (a,), back)


def constant_csr(data, cols, counts, n_cols: int) -> SparseOperator:
    """The operator of the (len(counts), n_cols) CSR matrix whose row i holds
    the next counts[i] of `data`, at the same places of `cols`.  The one
    builder of the package's sparse operators: its index arrays are int32, or
    int64 once a dimension or the entry count reaches 2**31, which is how
    scipy stores them, so it skips a scan of their contents."""
    shape = (len(counts), n_cols)
    idx = np.int32 if max(*shape, len(cols)) < 2**31 else np.int64
    indptr = np.zeros(shape[0] + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    return SparseOperator(sp.csr_matrix((data, cols.astype(idx), indptr), shape=shape))


def segment_indicator(segments, num_segments: int) -> SparseOperator:
    """(num_segments, len(segments)) operator with a one at (segments[j], j).

    Its product with rows adds each segment's rows in index order, exactly
    as np.add.at does, so the sums are bit-for-bit the same."""
    segments = np.asarray(segments, dtype=np.int64)
    n = len(segments)
    if n and not 0 <= segments.min() <= segments.max() < num_segments:
        bad = segments.min() if segments.min() < 0 else segments.max()
        raise NdiffError(f"segment id {bad} outside the {num_segments} segments")
    # CSR order, as scipy's COO conversion leaves it: by segment, then by index
    return constant_csr(np.ones(n), np.argsort(segments, kind="stable"),
                        np.bincount(segments, minlength=num_segments), n)


def gather_rows(a, idx) -> Tensor:
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data[idx]

    def back(g):
        return (segment_indicator(idx, a.shape[0]) @ g,)
    return tape_node(out, (a,), back)


def scatter_rows(base, idx, rows) -> Tensor:
    """Copy of `base` with rows at `idx` replaced by `rows`."""
    base, rows = _as_tensor(base), _as_tensor(rows)
    idx = np.asarray(idx, dtype=np.int64)
    out = base.data.copy()
    out[idx] = rows.data

    def back(g):
        gb = g.copy()
        gb[idx] = 0.0
        return gb, g[idx]
    return tape_node(out, (base, rows), back)


def segment_sum(a, segments, num_segments: int) -> Tensor:
    """Sum rows of `a` grouped by segment id.

    `segments` is the segment id of each row, or the operator that
    `segment_indicator` built from them; pass the operator when the grouping
    is reused, so it and its transpose are built once."""
    if not isinstance(segments, SparseOperator):
        segments = segment_indicator(segments, num_segments)
    elif segments.shape[0] != num_segments:
        raise NdiffError(f"indicator has {segments.shape[0]} segments, "
                         f"expected {num_segments}")
    return sparse_matmul(segments, a)


def mean_rows(a) -> Tensor:
    """Column means: (n, d) -> (d,).  Errors on zero rows."""
    a = _as_tensor(a)
    n = a.shape[0]
    if n == 0:
        raise NdiffError("mean_rows of empty tensor")
    out = a.data.mean(axis=0)

    def back(g):
        return (np.broadcast_to(g / n, a.shape).copy(),)
    return tape_node(out, (a,), back)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)

    def back(g):
        return (np.full(a.shape, float(g)),)
    return tape_node(a.data.sum(), (a,), back)


def sum_axis1(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise NdiffError("sum_axis1 expects a 2-D tensor")
    out = a.data.sum(axis=1)

    def back(g):
        return (np.repeat(g[:, None], a.shape[1], axis=1),)
    return tape_node(out, (a,), back)


NORM_EPS = 1e-12


def l2_normalize_rows(a) -> Tensor:
    """Rows scaled to unit L2 norm, NORM_EPS added to each norm (gradient
    projected off the row direction)."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise NdiffError("l2_normalize_rows expects a 2-D tensor")
    norms = np.sqrt((a.data ** 2).sum(axis=1, keepdims=True)) + NORM_EPS
    out = a.data / norms

    def back(g):
        dots = (g * out).sum(axis=1, keepdims=True)
        return ((g - out * dots) / norms,)
    return tape_node(out, (a,), back)


# -- activations -----------------------------------------------------------

def leaky_relu(a, slope: float = 0.01) -> Tensor:
    a = _as_tensor(a)
    out = np.where(a.data >= 0, a.data, slope * a.data)

    def back(g):
        return (g * np.where(a.data >= 0, 1.0, slope),)
    return tape_node(out, (a,), back)


def elu(a) -> Tensor:
    a = _as_tensor(a)
    out = np.where(a.data > 0, a.data, np.expm1(np.minimum(a.data, 0.0)))

    def back(g):
        return (g * np.where(a.data > 0, 1.0, out + 1.0),)
    return tape_node(out, (a,), back)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ex = np.exp(a.data[~pos])
    out[~pos] = ex / (1.0 + ex)

    def back(g):
        return (g * out * (1.0 - out),)
    return tape_node(out, (a,), back)


def softplus(a) -> Tensor:
    """log(1 + e^x) via the overflow-free identity max(x,0) + log1p(e^-|x|)."""
    a = _as_tensor(a)
    out = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(a.data, -500, 500)))

    def back(g):
        return (g * sig,)
    return tape_node(out, (a,), back)


def softmax(a) -> Tensor:
    """Stable softmax of a 1-D tensor."""
    a = _as_tensor(a)
    if a.data.ndim != 1 or a.data.size == 0:
        raise NdiffError("softmax expects a non-empty 1-D tensor")
    z = a.data - a.data.max()
    e = np.exp(z)
    out = e / e.sum()

    def back(g):
        return (out * (g - np.dot(g, out)),)
    return tape_node(out, (a,), back)


def segment_softmax(logits, segments, num_segments: int) -> Tensor:
    """Softmax within each segment of a 1-D logit tensor."""
    a = _as_tensor(logits)
    if a.data.ndim != 1:
        raise NdiffError("segment_softmax expects 1-D logits")
    segments = np.asarray(segments, dtype=np.int64)
    maxes = np.full(num_segments, -np.inf)
    np.maximum.at(maxes, segments, a.data)
    e = np.exp(a.data - maxes[segments])
    denom = np.bincount(segments, weights=e, minlength=num_segments)
    out = e / denom[segments]

    def back(g):
        dot = np.bincount(segments, weights=g * out, minlength=num_segments)
        return (out * (g - dot[segments]),)
    return tape_node(out, (a,), back)


def dropout(a, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    if not 0.0 <= rate < 1.0:
        raise NdiffError("dropout rate must be in [0, 1)")
    a = _as_tensor(a)
    if not training or rate == 0.0:
        return a
    if rng is None:
        raise NdiffError("training-mode dropout needs an explicit rng")
    keep = rng.random(a.shape) >= rate      # bools: one byte an entry in the closure

    def back(g):
        return (g * (keep / (1.0 - rate)),)
    return tape_node(a.data * (keep / (1.0 - rate)), (a,), back)


# -- backward pass ---------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(p) into every reachable Parameter's grad slot,
    freeing each node once its parents' gradients exist.  NdiffError, before
    any grad, on a spent tape: a non-Parameter needing a grad with no backward."""
    if loss.data.size != 1:
        raise NdiffError("backward requires a scalar loss")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)] if loss.needs_grad else []
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is None and not isinstance(node, Parameter):
            raise NdiffError("backward reached a tape that an earlier backward freed")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.needs_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if isinstance(node, Parameter) and g is not None:
            node.grad += g.reshape(node.grad.shape)
        elif g is not None:
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.needs_grad:
                    continue
                grads[id(parent)] = grads[id(parent)] + pg if id(parent) in grads else pg
        node._parents, node._backward = (), None       # a Parameter has neither anyway


# -- optimizer -------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) with decoupled weight decay;
    zeroes grads after each step."""

    def __init__(self, params, lr: float = 1e-3, weight_decay: float = 0.0):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise NdiffError("duplicate parameter names")
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {p.name: np.zeros_like(p.data) for p in self.params}
        self._v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self) -> None:
        self.t += 1
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise NdiffError(f"non-finite gradient for parameter {p.name!r}")
            m = self._m[p.name]
            v = self._v[p.name]
            m[...] = ADAM_BETA1 * m + (1 - ADAM_BETA1) * p.grad
            v[...] = ADAM_BETA2 * v + (1 - ADAM_BETA2) * p.grad ** 2
            m_hat = m / (1 - ADAM_BETA1 ** self.t)
            v_hat = v / (1 - ADAM_BETA2 ** self.t)
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            p.zero_grad()


def glorot(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in, fan_out = (shape[0], shape[-1]) if len(shape) > 1 else (shape[0], shape[0])
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)

