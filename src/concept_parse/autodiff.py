"""Reverse-mode automatic differentiation over numpy arrays.

A forward op builds a :class:`Tensor` node holding its result and a closure
that maps the output gradient to input gradients. ``backward`` walks the
recorded graph in reverse topological order and accumulates gradients into
:class:`Parameter` slots. The forwards of layer norm, softmax, log-softmax
and GELU are plain-array ``*_kernel`` functions, which the stepwise decoder
calls too. Also home to the Adam optimizer, the warmup/decay learning-rate
schedule, and the binary parameter checkpoint format.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import NonFiniteError, NotScalarError, ShapeError

DTYPES = {"single": np.float32, "double": np.float64}
_PRECISION_CODE = {"single": 0, "double": 1}
_PRECISION_NAME = {code: name for name, code in _PRECISION_CODE.items()}

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording for cheap inference."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


class Tensor:
    """A node in the computation graph wrapping an ndarray."""

    __slots__ = ("data", "parents", "vjp", "requires_grad", "param")

    def __init__(self, data: np.ndarray,
                 parents: tuple["Tensor", ...] = (),
                 vjp: Optional[Callable] = None,
                 requires_grad: bool = False,
                 param: Optional["Parameter"] = None):
        self.data = data
        self.parents = parents
        self.vjp = vjp
        self.requires_grad = requires_grad
        self.param = param

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter:
    """A trainable array with its gradient accumulator and Adam state."""

    __slots__ = ("name", "data", "grad", "m", "v", "step")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = data
        self.grad = np.zeros_like(data)
        self.m = np.zeros_like(data)
        self.v = np.zeros_like(data)
        self.step = 0

    def leaf(self) -> Tensor:
        """Graph leaf view of this parameter's current value."""
        if _grad_enabled:
            return Tensor(self.data, requires_grad=True, param=self)
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def constant(data: np.ndarray) -> Tensor:
    """Wrap an array as a non-differentiable graph input."""
    return Tensor(np.asarray(data))


def _node(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    if not np.isfinite(data).all():
        raise NonFiniteError("forward op produced NaN or Inf values")
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, parents=tuple(parents), vjp=vjp, requires_grad=True)
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

    A 2-D ``b`` (a weight) is applied as one GEMM: the leading axes of ``a``
    are flattened into rows, so the forward is one (rows, d) @ (d, e) product
    and the weight gradient one (d, rows) @ (rows, e) product, with no
    per-batch partial gradients to sum. Otherwise both operands are stacks of
    matrices broadcast against each other, as in attention's q . k^T.
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
    """y = x @ weight + bias over the last dimension."""
    return add(matmul(x, weight), bias)


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
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _node(out, tuple(tensors), vjp)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: rows of ``table`` selected by an integer array."""
    out = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
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


def softmax_kernel(x: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax over the last axis (max-subtraction form)."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(z: Tensor) -> Tensor:
    """Softmax over the last axis; the forward is `softmax_kernel`."""
    y = softmax_kernel(z.data)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return _node(y, (z,), vjp)


def log_softmax_kernel(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis: shifted logits minus their log-sum-exp."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax(z: Tensor) -> Tensor:
    """Log-softmax over the last axis; the forward is `log_softmax_kernel`."""
    out = log_softmax_kernel(z.data)
    y = np.exp(out)

    def vjp(g):
        return (g - y * g.sum(axis=-1, keepdims=True),)

    return _node(out, (z,), vjp)


def layer_norm_kernel(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                      eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize over the last axis, then apply gain and bias.

    Returns the result, the normalized input and the inverse deviation; the
    graph op's vjp reuses the last two.
    """
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    return xhat * gain + bias, xhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer norm over the last axis; the forward is `layer_norm_kernel`."""
    if x.data.shape[-1] < 2:
        raise ShapeError("layer_norm needs a last dimension of at least 2")
    out, xhat, inv = layer_norm_kernel(x.data, gain.data, bias.data, eps)

    def vjp(g):
        gy = g * gain.data
        mean_gy = gy.mean(axis=-1, keepdims=True)
        mean_gy_xhat = (gy * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gy - mean_gy - xhat * mean_gy_xhat)
        axes = tuple(range(g.ndim - 1))
        return (gx,
                (g * xhat).sum(axis=axes),
                g.sum(axis=axes))

    return _node(out, (x, gain, bias), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximate GELU of an array; returns the result and the tanh term.

    The one GELU forward: the graph op and the stepwise decoder both call it,
    so the two paths agree bit for bit. The cube is ``x * x * x`` because
    float32 ``x ** 3`` takes numpy's slow power loop, about 100x slower.
    """
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    out, t = gelu_kernel(x.data)

    def vjp(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * x.data ** 2)
        dx = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * du
        return (g * dx,)

    return _node(out, (x,), vjp)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(parameter) into every reachable Parameter's grad slot.

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
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.param is not None:
            node.param.grad = node.param.grad + g
        if node.vjp is None:
            continue
        parent_grads = node.vjp(g)
        for parent, pg in zip(node.parents, parent_grads):
            if not parent.requires_grad or pg is None:
                continue
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
        if not 0.0 <= self.warmup_proportion <= 1.0:
            raise ValueError(
                f"warmup proportion must lie in [0, 1], got {self.warmup_proportion}")


def lr_at(schedule: Schedule, step: int) -> float:
    """Learning rate at an optimizer step; clamps to 0 past the horizon."""
    total = schedule.total_steps
    if step > total:
        return 0.0
    warmup = math.ceil(schedule.warmup_proportion * total)
    if warmup > 0 and step < warmup:
        return schedule.base_lr * step / warmup
    if total == warmup:
        return schedule.base_lr if step < total else 0.0
    return schedule.base_lr * (total - step) / (total - warmup)


def adam_step(params: Iterable[Parameter], lr: float,
              betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
              weight_decay: float = 0.0) -> None:
    """One bias-corrected Adam update with decoupled weight decay.

    Weight decay is applied as a separate multiplicative shrink before the
    gradient-driven update; gradients are zeroed afterwards.
    """
    b1, b2 = betas
    for p in params:
        p.step += 1
        p.m = b1 * p.m + (1.0 - b1) * p.grad
        p.v = b2 * p.v + (1.0 - b2) * (p.grad * p.grad)
        m_hat = p.m / (1.0 - b1 ** p.step)
        v_hat = p.v / (1.0 - b2 ** p.step)
        if weight_decay:
            p.data = p.data - lr * weight_decay * p.data
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
        p.zero_grad()


# initialization


def trunc_normal(rng: np.random.Generator, shape: tuple[int, ...],
                 std: float = 0.02, dtype=np.float32) -> np.ndarray:
    """Normal(0, std) resampled until all draws fall within two deviations."""
    values = rng.normal(0.0, std, size=shape)
    limit = 2.0 * std
    for _ in range(16):
        mask = np.abs(values) > limit
        if not mask.any():
            break
        values[mask] = rng.normal(0.0, std, size=int(mask.sum()))
    return np.clip(values, -limit, limit).astype(dtype)


# checkpoint io

_MAGIC = b"CPTENSR\x00"
_VERSION = 1


def save_parameters(params: dict[str, Parameter], path: Union[str, Path],
                    precision: str) -> None:
    """Write parameters as the flat little-endian binary checkpoint format.

    Layout: magic, u32 version, u8 precision code, then for each parameter
    u32 name length, utf-8 name, u32 rank, u64 dims, row-major values.
    """
    dtype = "<f4" if precision == "single" else "<f8"
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<IB", _VERSION, _PRECISION_CODE[precision]))
        for name, p in params.items():
            encoded = name.encode("utf-8")
            handle.write(struct.pack("<I", len(encoded)))
            handle.write(encoded)
            handle.write(struct.pack("<I", p.data.ndim))
            for dim in p.data.shape:
                handle.write(struct.pack("<Q", dim))
            handle.write(np.ascontiguousarray(p.data).astype(dtype).tobytes())
    tmp.replace(path)


def load_parameters(path: Union[str, Path]) -> tuple[dict[str, np.ndarray], str]:
    """Read a checkpoint back as named arrays plus its precision name.

    A file that is not a checkpoint, that ends inside a field, or that holds
    a parameter name that is not UTF-8 raises ``ValueError`` naming the path.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:8] != _MAGIC:
        raise ValueError(f"{path}: not a parameter checkpoint (bad magic)")
    offset = 8

    def take(size: int) -> bytes:
        nonlocal offset
        end = offset + size
        if end > len(blob):
            raise ValueError(
                f"{path}: truncated checkpoint ({len(blob)} bytes, a field needs {end})")
        chunk = blob[offset:end]
        offset = end
        return chunk

    version, code = struct.unpack("<IB", take(5))
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if code not in _PRECISION_NAME:
        raise ValueError(f"{path}: unknown precision code {code}")
    precision = _PRECISION_NAME[code]
    dtype = np.dtype("<f4" if precision == "single" else "<f8")
    arrays: dict[str, np.ndarray] = {}
    while offset < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: parameter name is not UTF-8 ({exc})") from exc
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank))
        count = int(np.prod(dims)) if rank else 1
        values = np.frombuffer(take(count * dtype.itemsize), dtype=dtype)
        arrays[name] = values.reshape(dims).astype(DTYPES[precision])
    return arrays, precision
