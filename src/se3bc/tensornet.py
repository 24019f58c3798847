"""Minimal reverse-mode differentiable compute core on numpy.

A Tensor wraps a floating ndarray. It keeps a floating input's dtype and
makes anything else float64, and ops compute in the dtype numpy promotes
their inputs to. ParamSet stores its parameters as float32, so a model trains
in float32; ops on float64 arrays stay float64, as finite-difference checks of
the gradients need.
Ops executed while a GradientTape is active append nodes to it in creation
order, which is already a topological order, so backward() is a single
reverse sweep. A tape supports exactly one backward pass.

Ops accept arbitrary leading batch dimensions; the documented shapes below
are the trailing ones. Finiteness is checked once per recording, not per op:
backward() raises NumericFaultError when the loss is not finite, naming the
first recorded op whose output is not, and when a leaf gradient it returns is
not finite. A non-finite value that cannot reach the loss therefore no longer
raises. Op outputs made outside a tape (inference, untracked inputs) are
checked as they are made, and so is every Tensor built directly. backward()
drops each op's vjp and output once it has run, which frees the op's saved
arrays without the garbage collector.

Threading: a tape and the tensors recorded on it belong to one thread
(the active-tape stack is thread-local); independent tapes may run
concurrently.
"""

from __future__ import annotations

import functools
import math
import threading
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

ROPE_BASE = 10000.0
LAYER_NORM_EPS = 1e-5
# Guards row normalization against zero-norm rows.
NORMALIZE_EPS = 1e-12
QUERY_INIT_STD = 0.02


class TensorError(ValueError):
    """Invalid tensor operation (shape mismatch, bad arguments)."""


class NumericFaultError(ArithmeticError):
    """An op produced NaN or Inf."""


class TapeError(RuntimeError):
    """Tape contract violation (reuse after backward, foreign nodes)."""


def _floating(data) -> np.ndarray:
    """data as an ndarray: a floating dtype is kept, anything else becomes float64."""
    a = np.asarray(data)
    return a if a.dtype.kind == "f" else a.astype(np.float64)


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []


_TLS = _ThreadState()


class _Node:
    __slots__ = ("op", "node_id", "parents", "vjp", "tensor", "out")

    def __init__(self, op, node_id, parents, vjp, tensor=None, out=None):
        self.op = op
        self.node_id = node_id
        self.parents = parents  # one per op input: its _Node, or None if untracked
        self.vjp = vjp  # grad_out -> list of grads, one per op input; None for leaves
        self.tensor = tensor  # set for leaves so backward can key results
        self.out = out  # the op's output array (not its Tensor, so no cycle); None for leaves


class GradientTape:
    """Append-only op record; one backward pass per recording."""

    def __init__(self):
        self.nodes = []
        self.consumed = False

    def __enter__(self):
        _TLS.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TLS.stack.pop()
        if popped is not self:
            raise TapeError("tape stack corrupted")
        return False

    def _record(self, op, parents, vjp, tensor=None, out=None):
        node = _Node(op, len(self.nodes), parents, vjp, tensor, out)
        self.nodes.append(node)
        return node


def recording() -> bool:
    """Whether a GradientTape is active on this thread."""
    return bool(_TLS.stack)


class Tensor:
    """Dense array with an optional tape node.

    Leaves with requires_grad=True receive gradients from backward(). The
    same leaf may be reused across tapes; it is re-registered per tape.
    """

    __slots__ = ("data", "requires_grad", "_tape", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = _floating(data)
        if not np.isfinite(self.data).all():
            raise NumericFaultError("tensor created with non-finite values")
        self.requires_grad = bool(requires_grad)
        self._tape = None
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def node_id(self):
        return self._node.node_id if self._node is not None else None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _node_on(self, tape):
        """Leaf registration: one node per (tensor, tape) pair."""
        if self._tape is tape and self._node is not None:
            return self._node
        self._tape = tape
        self._node = tape._record("leaf", [], None, tensor=self)
        return self._node


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(op, out_data, inputs, vjp):
    """Wrap an op result, recording it when any input is tracked.

    A recorded output is not checked here: its array stays on its node, and
    backward() checks the loss and names this op if the fault reached it. An
    output that is not recorded is checked now and raises NumericFaultError
    naming the op.
    """
    out = Tensor.__new__(Tensor)  # skips __init__'s per-tensor finiteness check
    if type(out_data) is not np.ndarray or out_data.dtype.kind != "f":
        out_data = _floating(out_data)
    out.data = out_data
    out.requires_grad = False
    out._tape = out._node = None
    stack = _TLS.stack
    if stack:
        tape = stack[-1]
        parents = [t._node_on(tape) if t.requires_grad or t._tape is tape else None for t in inputs]
        if any(p is not None for p in parents):
            out._tape = tape
            out._node = tape._record(op, parents, vjp, out=out.data)
            return out
    if not np.isfinite(out.data).all():
        raise NumericFaultError(f"op {op!r} produced non-finite values")
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to `shape` (reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


# --- elementwise and linear-algebra primitives ---


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    return _make(
        "add", out, [a, b], lambda g: [_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)]
    )


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    return _make("scale", a.data * c, [a], lambda g: [g * c])


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise TensorError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise TensorError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def vjp(g):
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), a.shape)
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, b.shape)
        return [ga, gb]

    return _make("matmul", out, [a, b], vjp)


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    a = as_tensor(a)
    try:
        out = a.data.swapaxes(axis1, axis2)
    except ValueError:
        raise TensorError(f"cannot swap axes {axis1}, {axis2} of {a.shape}") from None
    return _make("swapaxes", out, [a], lambda g: [g.swapaxes(axis1, axis2)])


def split_heads(a, heads: int) -> Tensor:
    """(..., T, d) -> (..., heads, T, d/heads) as one tape node: head h reads
    columns [h * d/heads, (h + 1) * d/heads) of every row. A view, not a copy."""
    a = as_tensor(a)
    shape = a.shape
    out = a.data.reshape(shape[:-1] + (heads, shape[-1] // heads)).swapaxes(-3, -2)
    return _make("split_heads", out, [a], lambda g: [g.swapaxes(-3, -2).reshape(shape)])


def merge_heads(a) -> Tensor:
    """(..., heads, T, dh) -> (..., T, heads * dh) as one tape node; the
    inverse of split_heads."""
    a = as_tensor(a)
    rows = a.data.swapaxes(-3, -2)
    out = rows.reshape(rows.shape[:-2] + (rows.shape[-2] * rows.shape[-1],))
    return _make("merge_heads", out, [a], lambda g: [g.reshape(rows.shape).swapaxes(-3, -2)])


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise TensorError("concat of an empty list")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _make("concat", out, tensors, lambda g: list(np.split(g, splits, axis=axis)))


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    a = as_tensor(a)
    dim = a.data.shape[axis]
    if start < 0 or start + length > dim:
        raise TensorError(f"narrow [{start}, {start + length}) outside axis of size {dim}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[idx] = g
        return [full]

    return _make("narrow", a.data[idx], [a], vjp)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """tanh-approximation GELU (smooth everywhere).

    Forward and vjp build their terms in place on their own fresh arrays,
    in the same operation order as the textbook formula.
    """
    a = as_tensor(a)
    x = a.data
    t = x * x
    t *= 0.044715
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5

    def vjp(g):
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t^2) * C * (1 + 3 * 0.044715 * x^2))
        dinner = x * x
        dinner *= 3 * 0.044715
        dinner += 1.0
        dinner *= _GELU_C
        dt = t * t
        np.subtract(1.0, dt, out=dt)
        dt *= x
        dt *= 0.5
        dt *= dinner
        np.add(t, 1.0, out=dinner)
        dinner *= 0.5
        dinner += dt
        dinner *= g
        return [dinner]

    return _make("gelu", out, [a], vjp)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _make("sigmoid", out, [a], lambda g: [g * out * (1.0 - out)])


def softmax(a) -> Tensor:
    """exp(a - max) / sum(exp(a - max)) along the last axis.

    The row max is taken over a transposed contiguous copy, where numpy
    reduces whole rows at once instead of one short row at a time; a max is
    exact in any order, so the bits are those of `a.max(axis=-1)`. The
    exponent and the normalisation then work in place on one fresh array,
    and the vjp on one more, in the formula's order.
    """
    a = as_tensor(a)
    x = a.data
    row_max = x.reshape(-1, x.shape[-1]).T.copy().max(axis=0)
    out = x - row_max.reshape(x.shape[:-1] + (1,))
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def vjp(g):  # out * (g - sum(g * out))
        gx = g * out
        dot = gx.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= out
        return [gx]

    return _make("softmax", out, [a], vjp)


def layer_norm(a, gain, bias) -> Tensor:
    """Normalize to zero mean / unit variance along the last axis, then
    apply the (d,) affine: xhat * gain + bias.

    One tape node; its vjp returns the gradients of a, gain and bias.
    """
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    x = a.data
    d = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.square(xhat).sum(axis=-1, keepdims=True) / d + LAYER_NORM_EPS)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data
    gd = gain.data

    def vjp(g):
        g2 = g.reshape(-1, d)
        tmp = g * xhat
        d_gain = tmp.reshape(-1, d).sum(axis=0)
        gx = g * gd  # the gradient of xhat
        np.multiply(gx, xhat, out=tmp)
        gxx = tmp.sum(axis=-1, keepdims=True) / d
        gx -= gx.sum(axis=-1, keepdims=True) / d
        np.multiply(xhat, gxx, out=tmp)
        gx -= tmp
        gx *= inv
        return [gx, d_gain, g2.sum(axis=0)]

    return _make("layer_norm", out, [a, gain, bias], vjp)


def normalize_rows(a) -> Tensor:
    """Scale each last-axis row to unit Euclidean norm."""
    a = as_tensor(a)
    x = a.data
    norm = np.sqrt((x**2).sum(axis=-1, keepdims=True) + NORMALIZE_EPS)
    y = x / norm

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return [(g - y * dot) / norm]

    return _make("normalize_rows", y, [a], vjp)


def l1_loss(pred, target) -> Tensor:
    """Mean over leading axes of last-axis l1 norms.

    For an (H, d) input this is (1/H) sum_h ||target_h - pred_h||_1; extra
    leading batch axes extend the mean. The subgradient at exact agreement
    is 0.
    """
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise TensorError(f"l1_loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    rows = max(1, int(np.prod(pred.shape[:-1])))
    out = np.asarray(np.abs(diff).sum() / rows)
    sgn = np.sign(diff) / rows
    return _make("l1_loss", out, [pred, target], lambda g: [g * sgn, -g * sgn])


@functools.lru_cache(maxsize=64)
def _rope_tables(positions: bytes, d: int, dtype: np.dtype):
    """rope's read-only (T, d/2) cos and sin tables for float64 `positions`
    (as bytes), computed in float64 and rounded to `dtype`; cached, so a
    model's every call with its positions shares one pair."""
    freqs = ROPE_BASE ** (-2.0 * np.arange(d // 2) / d)
    ang = np.frombuffer(positions)[:, None] * freqs[None, :]  # (T, d/2)
    tables = np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)
    for table in tables:
        table.flags.writeable = False
    return tables


def rope(a, positions) -> Tensor:
    """Rotary position embedding on the last axis.

    Adjacent coordinate pairs (2i, 2i+1) of the row at sequence position m
    are rotated by m * ROPE_BASE^(-2i/d). Requires an even last axis. positions
    has one entry per row along the second-to-last axis. The angles are
    computed in float64; their cos/sin tables take the input's dtype and are
    built once per (positions, d, dtype).
    """
    a = as_tensor(a)
    d = a.shape[-1]
    if d % 2 != 0:
        raise TensorError(f"rope needs an even head dimension, got {d}")
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape != (a.shape[-2],):
        raise TensorError(
            f"rope positions shape {positions.shape} does not match sequence length {a.shape[-2]}"
        )
    x = a.data
    cos, sin = _rope_tables(positions.tobytes(), d, x.dtype)
    xe, xo = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = xe * cos - xo * sin
    out[..., 1::2] = xe * sin + xo * cos

    def vjp(g):
        ge, go = g[..., 0::2], g[..., 1::2]
        gx = np.empty_like(g)
        gx[..., 0::2] = ge * cos + go * sin
        gx[..., 1::2] = -ge * sin + go * cos
        return [gx]

    return _make("rope", out, [a], vjp)


def linear(x, w, b=None) -> Tensor:
    """x @ w, plus the bias b when given, as one tape node.

    w is a (d_in, d_out) weight and b a (d_out,) bias; x has any leading
    axes, which the forward folds into one GEMM. The one vjp does the same
    per gradient: d_x = g @ w.T, d_w = x.T @ g and d_b = g summed over rows.
    d_x is not computed for an x no tape tracks (the encoder's observation
    tokens): the vjp returns None in its place.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise TensorError(f"linear needs a >=2-d input and a 2-d weight, got {x.shape} and {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise TensorError(f"linear shape mismatch: {x.shape} @ {w.shape}")
    xd, wd = x.data, w.data
    x2 = xd.reshape(-1, xd.shape[-1])
    out = x2 @ wd
    inputs = [x, w]
    if b is not None:
        b = as_tensor(b)
        if b.shape != wd.shape[1:]:
            raise TensorError(f"linear bias shape {b.shape} does not match weight {w.shape}")
        out += b.data
        inputs.append(b)

    x_tracked = x.requires_grad or x._tape is not None

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        grads = [(g2 @ wd.T).reshape(xd.shape) if x_tracked else None, x2.T @ g2]
        if b is not None:
            grads.append(g2.sum(axis=0))
        return grads

    return _make("linear", out.reshape(xd.shape[:-1] + wd.shape[1:]), inputs, vjp)


def multi_head_attention(
    q_in,
    kv_in,
    heads: int,
    wq,
    wk,
    wv,
    wo,
    bq=None,
    bk=None,
    bv=None,
    bo=None,
    positions=None,
):
    """Scaled dot-product attention with per-head projections.

    Self-attention when q_in is kv_in, cross-attention otherwise. No causal
    mask: queries are parallel slots. All heads run as one batched
    computation on (..., heads, T, d/heads) blocks, which split_heads and
    merge_heads make and undo as one tape node each. When `positions` is
    given, RoPE is applied to the query and key streams before the dot
    product (intended for self-attention, where both streams share the
    positions).

    Built from recorded primitives, so gradients come with it: per call
    4 `linear`, 3 `split_heads`, 1 `swapaxes`, 2 `matmul`, 1 `scale`,
    1 `softmax` and 1 `merge_heads` node, plus 2 `rope` with positions.
    """
    q_in, kv_in = as_tensor(q_in), as_tensor(kv_in)
    d = q_in.shape[-1]
    if d % heads != 0:
        raise TensorError(f"model dim {d} not divisible by {heads} heads")
    q = split_heads(linear(q_in, wq, bq), heads)
    k = split_heads(linear(kv_in, wk, bk), heads)
    v = split_heads(linear(kv_in, wv, bv), heads)
    if positions is not None:
        q = rope(q, positions)
        k = rope(k, positions)
    attn = softmax(scale(matmul(q, swapaxes(k, -1, -2)), 1.0 / math.sqrt(d // heads)))
    return linear(merge_heads(matmul(attn, v)), wo, bo)


# --- backward pass ---


def backward(tape: GradientTape, loss: Tensor) -> dict:
    """Reverse-accumulate gradients of a scalar loss over one tape.

    Returns a dict keyed by leaf Tensor (identity) holding ndarray grads for
    every requires_grad leaf encountered. The tape is consumed.

    Raises NumericFaultError when the loss is not finite, naming the first
    recorded op whose output is not, and when a returned gradient is not
    finite (an overflow in the backward pass).
    """
    if tape.consumed:
        raise TapeError("tape already consumed by a previous backward pass")
    if loss._tape is not tape or loss._node is None:
        raise TapeError("loss was not recorded on this tape")
    if loss.data.size != 1:
        raise TensorError(f"loss must be scalar, got shape {loss.shape}")
    tape.consumed = True
    if not np.isfinite(loss.data).all():
        first = next((n.op for n in tape.nodes if n.out is not None and not np.isfinite(n.out).all()),
                     loss._node.op)
        raise NumericFaultError(f"op {first!r} produced non-finite values")

    grads = {loss._node.node_id: np.ones_like(loss.data)}
    result = {}
    for node in reversed(tape.nodes):
        vjp, node.vjp, node.out = node.vjp, None, None  # frees the op's saved arrays
        g = grads.pop(node.node_id, None)
        if g is None:
            continue
        if vjp is None:  # a leaf
            if node.tensor.requires_grad:
                if not np.isfinite(g).all():
                    raise NumericFaultError(f"backward produced a non-finite gradient of shape {g.shape}")
                result[node.tensor] = g
            continue
        for parent, pg in zip(node.parents, vjp(g)):
            if parent is not None:
                prev = grads.get(parent.node_id)
                grads[parent.node_id] = pg if prev is None else prev + pg
    return result


# --- parameters ---


def _name_seed(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(zlib.crc32(name.encode()),)))


# The dtype parameters are stored and trained in.
PARAM_DTYPE = np.float32


def _views(flat: np.ndarray, shapes) -> list:
    """Consecutive views of `flat`, one of each shape."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return views


class ParamSet:
    """Named parameter tensors, stored as PARAM_DTYPE.

    Each parameter's init stream is derived from (seed, name), so values do
    not depend on creation order. Draws are made in float64 and rounded to
    PARAM_DTYPE. Names are unique and shapes immutable.

    flat_data() lays the parameters out in one contiguous buffer of one
    dtype, in registration order, and makes each parameter's `data` a view
    into it, so that adamw_step updates them all with whole-buffer ufunc
    calls. The buffer is built on first use, not at registration, so a model
    that only runs inference never pays for it. A direct `data =` leaves a
    parameter outside the buffer; the next flat_data() rebuilds the buffer
    from the current values.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._params = {}
        self._flat = None
        self._views = []  # each parameter's `data` as flat_data() last set it

    def _register(self, name, data):
        if name in self._params:
            raise TensorError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data, dtype=PARAM_DTYPE), requires_grad=True)
        self._params[name] = t
        return t

    def linear_weight(self, name: str, fan_in: int, fan_out: int) -> Tensor:
        bound = 1.0 / math.sqrt(fan_in)
        data = _name_seed(self.seed, name).uniform(-bound, bound, size=(fan_in, fan_out))
        return self._register(name, data)

    def zeros(self, name: str, shape) -> Tensor:
        return self._register(name, np.zeros(shape))

    def ones(self, name: str, shape) -> Tensor:
        return self._register(name, np.ones(shape))

    def query_normal(self, name: str, shape) -> Tensor:
        data = _name_seed(self.seed, name).normal(0.0, QUERY_INIT_STD, size=shape)
        return self._register(name, data)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def flat_data(self) -> np.ndarray:
        """The one buffer every parameter's `data` views, built or rebuilt
        (copying each parameter's current values) when a parameter is not
        its view. Raises TensorError when the parameters hold more than one
        dtype."""
        tensors = list(self._params.values())
        if len(tensors) == len(self._views) and all(t.data is v for t, v in zip(tensors, self._views)):
            return self._flat
        dtypes = sorted({t.data.dtype.name for t in tensors})
        if len(dtypes) != 1:
            raise TensorError(f"one parameter buffer holds one dtype, got {dtypes}")
        self._flat = np.concatenate([t.data.reshape(-1) for t in tensors])
        self._views = _views(self._flat, [t.shape for t in tensors])
        for t, view in zip(tensors, self._views):
            t.data = view
        return self._flat


# --- AdamW with linear warmup + cosine decay ---

ADAMW_LR = 1e-3  # peak learning rate
ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8
ADAMW_WEIGHT_DECAY = 1e-4


@dataclass
class OptimizerState:
    """An AdamW run: schedule lengths, moments, steps taken.

    adamw_step makes the moments `m` and `v` on its first call, as flat
    buffers laid out like ParamSet.flat_data(). It also keeps one gradient
    buffer, which the update reuses once the moments are updated, and one
    scratch buffer. All four take the parameters' dtype.
    """

    warmup_steps: int
    total_steps: int
    m: np.ndarray | None = field(init=False, default=None)
    v: np.ndarray | None = field(init=False, default=None)
    step: int = field(init=False, default=0)
    _warned_past_total: bool = field(init=False, default=False)
    _buffers: tuple = field(init=False, default=())  # (gradient, scratch)


def lr_at(state: OptimizerState, step: int) -> float:
    """The lr at 1-based step: linear ramp to ADAMW_LR, then cosine to zero."""
    if step <= state.warmup_steps:
        return ADAMW_LR * step / max(1, state.warmup_steps)
    if step > state.total_steps:
        return 0.0
    span = max(1, state.total_steps - state.warmup_steps)
    progress = (step - state.warmup_steps) / span
    return ADAMW_LR * 0.5 * (1.0 + math.cos(math.pi * progress))


def adamw_step(params: ParamSet, grads: dict, state: OptimizerState) -> None:
    """One decoupled-weight-decay Adam update over params.flat_data().

    grads is backward()'s result, keyed by parameter Tensor, and must hold
    every parameter: a missing one raises TensorError naming it. The
    gradients are gathered, in registration order and cast to the
    parameters' dtype, into the state's one gradient buffer, and one update
    of whole-buffer ufunc calls runs over the flat parameters and moments.
    Python-float constants do not promote the dtype.

    Updates in place: each parameter's `data` array and the moments
    `state.m` and `state.v` are overwritten, not replaced, so a caller that
    keeps a parameter's old values must copy them first. (The first call,
    or the first after a parameter's `data` is reassigned, also moves every
    parameter's `data` into the flat buffer.) The arithmetic follows the
    reference formula's operation order, element by element, so results are
    bit-identical to it:

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1^t) / (sqrt(v / (1 - b2^t)) + eps) + wd * p)

    with (b1, b2) = ADAMW_BETAS, eps = ADAMW_EPS and wd = ADAMW_WEIGHT_DECAY,
    read at call time, and lr = lr_at(state, t). Steps past
    state.total_steps clamp the lr to 0 and warn once; the run continues.
    """
    p = params.flat_data()
    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
        state._buffers = (np.zeros_like(p), np.zeros_like(p))
    m, v = state.m, state.v
    g, tmp = state._buffers
    if m.dtype != p.dtype or m.size != p.size:
        raise TensorError(f"optimizer state ({m.size} x {m.dtype}) does not fit the parameters ({p.size} x {p.dtype})")
    try:
        np.concatenate([grads[t].reshape(-1) for _, t in params.items()], out=g)
    except KeyError as e:
        name = next(name for name, t in params.items() if t is e.args[0])
        raise TensorError(f"adamw_step: no gradient for parameter {name!r}") from None

    state.step += 1
    t = state.step
    if t > state.total_steps and not state._warned_past_total:
        warnings.warn("optimizer stepped past total_steps; lr clamped to 0", stacklevel=2)
        state._warned_past_total = True
    lr = lr_at(state, t)
    b1, b2 = ADAMW_BETAS
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    np.multiply(g, 1.0 - b1, out=tmp)
    m *= b1
    m += tmp
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    v *= b2
    v += tmp
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAMW_EPS
    update = np.divide(m, c1, out=g)  # g is spent: the update reuses its buffer
    update /= tmp
    np.multiply(p, ADAMW_WEIGHT_DECAY, out=tmp)
    update += tmp
    update *= lr
    p -= update
