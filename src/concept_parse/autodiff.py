"""Reverse-mode automatic differentiation over numpy arrays.

A forward op builds a :class:`Tensor` node holding its result and a closure
that maps the output gradient to input gradients. The graph's leaves are the
:class:`Parameter` tensors that ops read. ``backward`` walks the recorded graph
in reverse topological order and adds gradients in place into their ``grad``.
Graph recording is on unless the current thread (or context) is in
``no_grad``. An affine map is one node, and so is each transformer sublayer:
`mha` (four projections, attention and the merge of the heads) and
`feed_forward` (affine, GELU, affine), each with one hand-written vjp. Their
forwards take the products and sums of the composed ops in the same order, so
they are bit-equal to them. The forwards of layer norm, softmax, log-softmax,
GELU and attention are plain-array ``*_kernel`` functions, which the stepwise
decoder calls too. The kernels reduce with ``np.add.reduce`` and
``np.maximum.reduce`` (through `row_max`), not with ``ndarray.mean``, ``.sum``
or ``.max``: those methods are Python-level wrappers around the same ufunc
reductions, and on the decoder's (beams, width) arrays the wrapper costs more
than the reduction. The results are bit-equal. Kernels and vjps write their
temporaries into arrays they allocated themselves (``out=``, ``+=``), never into
an input: the decoder passes views of its state, and `add` hands one gradient
array to both of its inputs.

Parameters live in an :class:`Arena`: one contiguous buffer per role (values,
gradients, Adam's first and second moments) and one Adam step counter for a
group of parameters. Each parameter's ``data`` and ``grad`` are views into the
arena's buffers, and assigning to them copies into the views, so a view is
never rebound. ``adam_step`` updates whole arenas in place, as one flat
multi-tensor update. Parameters and ``vjp`` closures hold views of the
values, so ``backward`` must finish before ``adam_step`` changes them.

Also home to the warmup/decay learning-rate schedule. A checkpoint is an
arena's value buffer as raw bytes (`ConceptModel.save`), so the arena layout is
the file layout.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import NonFiniteError, NotScalarError, ShapeError, require_count, require_real

DTYPES = {"single": np.float32, "double": np.float64}

_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


class no_grad:
    """Context manager that disables graph recording for cheap inference.

    The flag is a context variable, so other threads keep recording.
    """

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


class Tensor:
    """A node in the computation graph wrapping an ndarray. An op's node
    requires grad when it has a ``vjp``; a leaf does only if it is a `Parameter`."""

    __slots__ = ("data", "parents", "vjp", "requires_grad")

    def __init__(self, data: np.ndarray,
                 parents: tuple["Tensor", ...] = (),
                 vjp: Optional[Callable] = None):
        self.data = data
        self.parents = parents
        self.vjp = vjp
        self.requires_grad = vjp is not None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Arena:
    """Flat value, gradient and Adam moment buffers shared by a group of parameters.

    ``step`` is the group's one Adam step counter, and ``count`` the number
    of parameters viewing the buffers, so that `adam_step` can check it was
    given all of them. The arena holds no reference to its parameters:
    dropping them frees it without waiting for the cycle collector.
    """

    __slots__ = ("data", "grad", "m", "v", "step", "count")

    def __init__(self, size: int, count: int, dtype):
        self.data = np.zeros(size, dtype=dtype)
        self.grad = np.zeros(size, dtype=dtype)
        self.m = np.zeros(size, dtype=dtype)
        self.v = np.zeros(size, dtype=dtype)
        self.step = 0
        self.count = count


class Parameter(Tensor):
    """A graph leaf whose value and gradient are views into an `Arena`.

    Ops record a parameter as they record any `Tensor`. `arena_parameters`
    lays parameters out in one arena. ``span`` is the parameter's slice of the
    flat buffers. Assigning to ``data`` or ``grad`` copies into the view and
    needs the same shape, so a parameter never detaches from its arena.
    """

    __slots__ = ("name", "arena", "span", "grad")

    def __init__(self, name: str, shape: tuple[int, ...], arena: Arena, offset: int):
        # the first write of each slot skips the guard in __setattr__, which a
        # model build would otherwise run in Python for every slot of every parameter
        span = slice(offset, offset + math.prod(shape))
        for attr, value in (("name", name), ("arena", arena), ("span", span),
                            ("data", arena.data[span].reshape(shape)), ("parents", ()),
                            ("vjp", None), ("requires_grad", True),
                            ("grad", arena.grad[span].reshape(shape))):
            object.__setattr__(self, attr, value)

    def __setattr__(self, attr: str, value) -> None:
        # data and grad are bound once, then written through; plain slots keep
        # reads fast, and decode_step reads every weight on every step
        if attr in ("data", "grad") and hasattr(self, attr):
            view, value = getattr(self, attr), np.asarray(value)
            if value.shape != view.shape:
                raise ShapeError(f"cannot assign shape {value.shape} to "
                                 f"{self.name}.{attr} of shape {view.shape}")
            np.copyto(view, value)
        else:
            object.__setattr__(self, attr, value)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def arena_parameters(shapes: Mapping[str, tuple[int, ...]], dtype) -> dict[str, Parameter]:
    """Zero-valued parameters of the given shapes, laid out in order in one arena."""
    arena = Arena(sum(math.prod(shape) for shape in shapes.values()), len(shapes), dtype)
    params: dict[str, Parameter] = {}
    offset = 0
    for name, shape in shapes.items():
        params[name] = Parameter(name, shape, arena, offset)
        offset = params[name].span.stop
    return params


def constant(data: np.ndarray) -> Tensor:
    """Wrap an array as a non-differentiable graph input."""
    return Tensor(np.asarray(data))


def _node(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError("forward op produced NaN or Inf values")
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        return Tensor(data, tuple(parents), vjp)
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape its operand had before broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _node(out, (a, b), vjp)


def scale(a: Tensor, factor: float) -> Tensor:
    out = a.data * factor

    def vjp(g):
        return (g * factor,)

    return _node(out, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.

    A 2-D ``b`` is applied as one GEMM over ``a``'s rows, with no per-batch
    partial gradients to sum; weights go through `affine`, so this path serves
    only the output head's product with the bank. Otherwise both operands are
    stacks of matrices broadcast against each other.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    if b.data.ndim == 2:
        a2 = a.data.reshape(-1, a.data.shape[-1])
        out = (a2 @ b.data).reshape(a.data.shape[:-1] + b.data.shape[1:])

        def vjp_2d(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ b.data.T).reshape(a.data.shape), a2.T @ g2

        return _node(out, (a, b), vjp_2d)
    out = a.data @ b.data

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _node(out, (a, b), vjp)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """y = x @ weight + bias over the last dimension; one node, one GEMM over x's rows."""
    if weight.data.ndim != 2 or x.data.shape[-1] != weight.data.shape[0]:
        raise ShapeError(f"affine shapes disagree: {x.data.shape} @ {weight.data.shape}")
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out = x2 @ weight.data
    out += bias.data
    out = out.reshape(x.data.shape[:-1] + weight.data.shape[1:])

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g2 @ weight.data.T).reshape(x.data.shape), x2.T @ g2, g2.sum(axis=0)

    return _node(out, (x, weight, bias), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return _node(out, (a,), vjp)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = np.transpose(a.data, axes)
    inverse = np.argsort(axes)

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _node(out, (a,), vjp)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        shapes = [t.data.shape for t in tensors]
        raise ShapeError(f"cannot concatenate shapes {shapes} on axis {axis}") from None
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _node(out, tuple(tensors), vjp)


def gather_rows(table: Tensor, ids: Union[np.ndarray, slice]) -> Tensor:
    """Embedding lookup: rows of ``table`` selected by an integer array or a slice."""
    out = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        if isinstance(ids, slice):  # distinct rows: one write, no accumulation
            gt[ids] = g
        else:
            np.add.at(gt, ids, g)
        return (gt,)

    return _node(out, (table,), vjp)


def take_index(a: Tensor, index: int, axis: int) -> Tensor:
    """Select one position along an axis, dropping that axis."""
    out = np.take(a.data, index, axis=axis)

    def vjp(g):
        ga = np.zeros_like(a.data)
        slices: list = [slice(None)] * a.data.ndim
        slices[axis] = index
        ga[tuple(slices)] = g
        return (ga,)

    return _node(out, (a,), vjp)


def take_along_last(a: Tensor, ids: np.ndarray) -> Tensor:
    """Pick one entry per row along the last axis; ``ids`` matches leading dims."""
    out = np.take_along_axis(a.data, ids[..., None], axis=-1)[..., 0]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, ids[..., None], g[..., None], axis=-1)
        return (ga,)

    return _node(out, (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def vjp(g):
        return (np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False),)

    return _node(out, (a,), vjp)


# rows from which `row_max` reduces a transposed copy; the decoder's (beams,
# heads, n) and (beams, m + n) arrays have fewer, and there the copy costs more
_ROW_MAX_COPY_ROWS = 64


def row_max(x: np.ndarray) -> np.ndarray:
    """``np.maximum.reduce(x, axis=-1, keepdims=True)``, bit for bit.

    A reduce along the last axis runs one short inner loop per row. From 64
    rows on, the max is taken down the columns of a (last axis, rows) copy,
    one vectorised pass per position in a row; a max does not round, so the
    result is the same.
    """
    n = x.shape[-1]
    if x.size < _ROW_MAX_COPY_ROWS * n:
        return np.maximum.reduce(x, axis=-1, keepdims=True)
    return np.maximum.reduce(x.reshape(-1, n).T.copy(), axis=0).reshape(x.shape[:-1] + (1,))


def softmax_kernel(x: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax over the last axis (max-subtraction form)."""
    e = x - row_max(x)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def softmax(z: Tensor) -> Tensor:
    """Softmax over the last axis; the forward is `softmax_kernel`."""
    y = softmax_kernel(z.data)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return _node(y, (z,), vjp)


def attention_kernel(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     mask: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Attention of ``q`` (..., tq, hd) over ``k`` and ``v`` (..., tk, hd), ``mask``
    added to the scaled logits; returns the mix and the softmax weights. `mha`
    and the stepwise decoder both call it."""
    logits = q @ k.swapaxes(-1, -2)
    logits *= 1.0 / math.sqrt(q.shape[-1])
    if mask is not None:
        logits += mask
    weights = softmax_kernel(logits)
    return weights @ v, weights


def mha(x: Tensor, w: Tensor, b: Tensor, heads: int,
        mask: Optional[np.ndarray] = None, kv: Optional[Tensor] = None) -> Tensor:
    """A multi-head attention sublayer over (B, T, d) inputs as one node.

    ``w`` (4, d, d) stacks the projections Wq, Wk, Wv and Wo, and ``b`` (4, d)
    their biases, in that order. Queries are projected from ``x``, keys and
    values from ``kv``, or from ``x`` when ``kv`` is None (self-attention,
    where ``x`` is one parent). The projections are split into ``heads``,
    `attention_kernel` runs with the constant ``mask``, and the merged heads go
    through the output projection. Each product and sum is the one `affine`
    and `attention_kernel` compute over that projection's slice of ``w`` and
    ``b``, so the forward equals that composed sublayer bit for bit. The
    backward sums a self-attention input's gradient as ((query + key) + value),
    the order the composed graph adds it in, and writes slice i of the weight
    and bias gradients from projection i's input rows and output gradient.
    """
    d = x.data.shape[-1]
    source = x if kv is None else kv
    if x.data.ndim != 3 or source.data.ndim != 3 or d % heads \
            or source.data.shape[::2] != x.data.shape[::2] \
            or w.data.shape != (4, d, d) or b.data.shape != (4, d):
        raise ShapeError(f"attention over {x.data.shape} and {source.data.shape} needs "
                         f"{heads} heads that divide d, a (4, d, d) weight and a (4, d) bias")
    (wq, wk, wv, wo), (bq, bk, bv, bo) = w.data, b.data
    batch, hd = x.data.shape[0], d // heads
    x2, s2 = x.data.reshape(-1, d), source.data.reshape(-1, d)

    def heads_of(rows, weight, bias):
        out = rows @ weight
        out += bias
        return out.reshape(batch, -1, heads, hd).transpose(0, 2, 1, 3)

    def merge(per_head):
        return per_head.transpose(0, 2, 1, 3).reshape(-1, d)

    qh, kh, vh = heads_of(x2, wq, bq), heads_of(s2, wk, bk), heads_of(s2, wv, bv)
    mix, probs = attention_kernel(qh, kh, vh, mask)
    merged = merge(mix)
    out = merged @ wo
    out += bo

    def vjp(g):
        g2 = g.reshape(-1, d)
        gm = (g2 @ wo.T).reshape(batch, -1, heads, hd).transpose(0, 2, 1, 3)
        gl = gm @ vh.swapaxes(-1, -2)
        # the softmax Jacobian, then the logits' scale
        gl -= np.add.reduce(gl * probs, axis=-1, keepdims=True)
        gl *= probs
        gl /= math.sqrt(hd)
        gq = merge(gl @ kh)
        gk = merge(gl.swapaxes(-1, -2) @ qh)
        del gl
        gv = merge(probs.swapaxes(-1, -2) @ gm)
        del gm
        gx = gq @ wq.T
        gs = gk @ wk.T
        if kv is None:
            gx += gs
            gs = gx
        gs += gv @ wv.T
        inputs = (gx.reshape(x.data.shape),) if kv is None else \
            (gx.reshape(x.data.shape), gs.reshape(kv.data.shape))
        gw, gb = np.empty_like(w.data), np.empty_like(b.data)
        for i, (rows, grad) in enumerate(((x2, gq), (s2, gk), (s2, gv), (merged, g2))):
            np.matmul(rows.T, grad, out=gw[i])
            np.add.reduce(grad, axis=0, out=gb[i])
        return inputs + (gw, gb)

    parents = (x,) + (() if kv is None else (kv,)) + (w, b)
    return _node(out.reshape(x.data.shape), parents, vjp)


def log_softmax_kernel(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis: shifted logits minus their log-sum-exp."""
    shifted = x - row_max(x)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    return shifted


def log_softmax(z: Tensor) -> Tensor:
    """Log-softmax over the last axis; the forward is `log_softmax_kernel`."""
    out = log_softmax_kernel(z.data)

    def vjp(g):
        gz = np.exp(out)
        gz *= g.sum(axis=-1, keepdims=True)
        return (np.subtract(g, gz, out=gz),)

    return _node(out, (z,), vjp)


_LN_EPS = 1e-5


def normalize_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero mean and unit variance over the last axis: layer norm without its
    gain and bias. Returns the normalized input and the inverse deviation."""
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xhat = x - mu
    inv = np.add.reduce(np.multiply(xhat, xhat), axis=-1, keepdims=True)
    inv /= n
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return xhat, inv


def layer_norm_kernel(x: np.ndarray, gain: np.ndarray, bias: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`normalize_kernel`, then gain and bias; returns the result and the
    normalized input and inverse deviation, which the graph op's vjp reuses."""
    xhat, inv = normalize_kernel(x)
    out = xhat * gain
    out += bias
    return out, xhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer norm over the last axis; the forward is `layer_norm_kernel`."""
    if x.data.shape[-1] < 2:
        raise ShapeError("layer_norm needs a last dimension of at least 2")
    out, xhat, inv = layer_norm_kernel(x.data, gain.data, bias.data)

    def vjp(g):
        n = g.shape[-1]
        gy = g * gain.data
        scratch = gy * xhat
        mean_gy_xhat = np.add.reduce(scratch, axis=-1, keepdims=True)
        mean_gy_xhat /= n
        mean_gy = np.add.reduce(gy, axis=-1, keepdims=True)
        mean_gy /= n
        # the input gradient inv * (gy - mean_gy - xhat * mean_gy_xhat), in gy's buffer
        gy -= mean_gy
        gy -= np.multiply(xhat, mean_gy_xhat, out=scratch)
        gy *= inv
        axes = tuple(range(g.ndim - 1))
        return (gy,
                np.multiply(g, xhat, out=scratch).sum(axis=axes),
                g.sum(axis=axes))

    return _node(out, (x, gain, bias), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximate GELU of an array; returns the result and the tanh term.

    The one GELU forward: the graph ops and the stepwise decoder all call it,
    so the paths agree bit for bit. The cube is ``x * x * x`` because
    float32 ``x ** 3`` takes numpy's slow power loop, about 100x slower.
    """
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = x * 0.5
    out *= t + 1.0
    return out, t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The derivative of `gelu_kernel` at ``x``, given its tanh term ``t``:
    0.5 (1 + t) + 0.5 x (1 - t²) du/dx, with u the tanh's argument."""
    du = x * x
    du *= 3 * 0.044715
    du += 1.0
    du *= _GELU_C
    dx = t * t
    np.subtract(1.0, dx, out=dx)
    slope = x * 0.5
    slope *= dx
    slope *= du
    np.add(t, 1.0, out=dx)
    dx *= 0.5
    dx += slope
    return dx


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    out, t = gelu_kernel(x.data)

    def vjp(g):
        dx = gelu_grad(x.data, t)
        dx *= g
        return (dx,)

    return _node(out, (x,), vjp)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The feed-forward sublayer, affine, GELU, affine, over x's last axis as
    one node; its output and gradients equal those of `affine`, `gelu` and
    `affine` bit for bit."""
    if w1.data.ndim != 2 or w2.data.ndim != 2 or x.data.shape[-1] != w1.data.shape[0] \
            or w1.data.shape[1] != w2.data.shape[0]:
        raise ShapeError(f"feed-forward shapes disagree: {x.data.shape} through "
                         f"{w1.data.shape} and {w2.data.shape}")
    x2 = x.data.reshape(-1, x.data.shape[-1])
    pre = x2 @ w1.data
    pre += b1.data
    hidden, t = gelu_kernel(pre)
    out = hidden @ w2.data
    out += b2.data

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        gpre = gelu_grad(pre, t)
        gpre *= g2 @ w2.data.T
        return ((gpre @ w1.data.T).reshape(x.data.shape), x2.T @ gpre, gpre.sum(axis=0),
                hidden.T @ g2, g2.sum(axis=0))

    return _node(out.reshape(x.data.shape[:-1] + w2.data.shape[1:]), (x, w1, b1, w2, b2), vjp)


def backward(loss: Tensor) -> None:
    """Add d(loss)/d(parameter) in place into every reachable Parameter's grad,
    once each: the contributions of the ops that read a parameter are summed first.

    Repeated calls without zeroing keep summing.
    """
    if loss.data.size != 1:
        raise NotScalarError(f"backward requires a scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    # iterative topological order; graphs can be deeper than the recursion limit
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node))
        if node.vjp is None:  # a parameter, the graph's only kind of leaf
            np.add(node.grad, g, out=node.grad)
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if parent.requires_grad:
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg


# optimizer and schedule


@dataclass(frozen=True)
class Schedule:
    """Linear warmup to the base rate, then linear decay to zero."""

    base_lr: float
    warmup_proportion: float
    total_steps: int

    def __post_init__(self) -> None:
        require_real("base_lr", self.base_lr, "at least 0", lambda v: v >= 0)
        require_real("warmup_proportion", self.warmup_proportion, "in [0, 1]",
                     lambda v: 0 <= v <= 1)
        require_count("total_steps", self.total_steps, 0)


def lr_at(schedule: Schedule, step: int) -> float:
    """Learning rate at an optimizer step; clamps to 0 past the horizon. The last
    scheduled step, ``total_steps``, gets lr 0 (open under ROADMAP item 6)."""
    total = schedule.total_steps
    if step > total:
        return 0.0
    warmup = math.ceil(schedule.warmup_proportion * total)
    if warmup > 0 and step < warmup:
        return schedule.base_lr * step / warmup
    return schedule.base_lr * (total - step) / max(total - warmup, 1)


# elements per pass of the flat update: its scratch stays small next to the arena
_ADAM_CHUNK = 1 << 15


def _whole_arenas(params: Iterable[Parameter]) -> list[Arena]:
    """The arenas of ``params`` in first-seen order; raises unless each is given whole."""
    members: dict[int, tuple[Arena, set[int]]] = {}
    for p in params:
        members.setdefault(id(p.arena), (p.arena, set()))[1].add(id(p))
    for arena, ids in members.values():
        if len(ids) != arena.count:
            raise ValueError(f"adam_step was given {len(ids)} of an arena's "
                             f"{arena.count} parameters; it updates whole arenas")
    return [arena for arena, _ in members.values()]


def adam_step(params: Iterable[Parameter], lr: float,
              betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
              weight_decay: float = 0.0) -> None:
    """One bias-corrected Adam update with decoupled weight decay, in place.

    ``params`` must hold every parameter of each arena it reaches. Each
    arena's flat data, m and v buffers are updated with ``out=`` ufuncs, a
    chunk at a time through two chunk-sized scratch arrays, under the arena's
    one step counter (the multi-tensor Adam of apex and PyTorch). Weight decay
    is a separate multiplicative shrink before the gradient-driven update
    (Loshchilov & Hutter, 2019); gradients are zeroed afterwards. Each
    expression keeps the operand order of the per-parameter update, so the
    result is bit-equal to it. A NaN or infinite gradient in any arena raises
    `NonFiniteError`, naming that arena's next step, and a hyper-parameter
    outside its range (``lr`` and ``weight_decay`` at least 0, ``eps`` above
    0, each beta in [0, 1)) raises `ValueError`, both before anything is written.
    """
    b1, b2 = betas
    for name, value, bound, within in (
            ("lr", lr, "at least 0", lambda v: v >= 0),
            ("weight_decay", weight_decay, "at least 0", lambda v: v >= 0),
            ("eps", eps, "above 0", lambda v: v > 0),
            ("betas[0]", b1, "in [0, 1)", lambda v: 0 <= v < 1),
            ("betas[1]", b2, "in [0, 1)", lambda v: 0 <= v < 1)):
        require_real(name, value, bound, within)
    arenas = _whole_arenas(params)
    for arena in arenas:
        if not np.isfinite(arena.grad).all():
            raise NonFiniteError(f"Adam step {arena.step + 1}: a gradient holds NaN or Inf")
    for arena in arenas:
        arena.step += 1
        c1 = 1.0 - b1 ** arena.step
        c2 = 1.0 - b2 ** arena.step
        size = arena.data.size
        scratch_s = np.empty(min(size, _ADAM_CHUNK), dtype=arena.data.dtype)
        scratch_t = np.empty_like(scratch_s)
        for start in range(0, size, _ADAM_CHUNK):
            chunk = slice(start, min(start + _ADAM_CHUNK, size))
            data, g, m, v = (arena.data[chunk], arena.grad[chunk],
                             arena.m[chunk], arena.v[chunk])
            s, t = scratch_s[:data.size], scratch_t[:data.size]
            # m = b1 * m + (1 - b1) * g
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=s)
            np.add(m, s, out=m)
            # v = b2 * v + (1 - b2) * (g * g)
            np.multiply(v, b2, out=v)
            np.multiply(g, g, out=s)
            np.multiply(s, 1.0 - b2, out=s)
            np.add(v, s, out=v)
            if weight_decay:
                # data = data - (lr * weight_decay) * data
                np.multiply(data, lr * weight_decay, out=s)
                np.subtract(data, s, out=data)
            # data = data - (lr * m_hat) / (sqrt(v_hat) + eps)
            np.divide(m, c1, out=s)
            np.multiply(s, lr, out=s)
            np.divide(v, c2, out=t)
            np.sqrt(t, out=t)
            np.add(t, eps, out=t)
            np.divide(s, t, out=s)
            np.subtract(data, s, out=data)
        arena.grad.fill(0)


# initialization


def trunc_normal(rng: np.random.Generator, shape: tuple[int, ...],
                 dtype=np.float32) -> np.ndarray:
    """Normal(0, 0.02) resampled until all draws fall within two deviations."""
    std = 0.02
    values = rng.normal(0.0, std, size=shape)
    flat, limit = values.reshape(-1), 2.0 * std
    out = np.flatnonzero(np.abs(flat) > limit)  # ascending: the order of a mask's draws
    for _ in range(16):
        if not out.size:
            break
        flat[out] = rng.normal(0.0, std, size=out.size)
        out = out[np.abs(flat[out]) > limit]
    return np.clip(values, -limit, limit).astype(dtype)

