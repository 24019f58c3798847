"""Minimal reverse-mode differentiable compute core on numpy.

A Tensor wraps a float64 ndarray. Ops executed while a GradientTape is
active append nodes to it in creation order, which is already a topological
order, so backward() is a single reverse sweep. A tape supports exactly one
backward pass.

Ops accept arbitrary leading batch dimensions; the documented shapes below
are the trailing ones. Every op output is checked finite and raises
NumericFaultError otherwise.

Threading: a tape and the tensors recorded on it belong to one thread
(the active-tape stack is thread-local); independent tapes may run
concurrently.
"""

from __future__ import annotations

import json
import math
import struct
import threading
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

ROPE_BASE = 10000.0
LAYER_NORM_EPS = 1e-5
# Guards row normalization against zero-norm rows.
NORMALIZE_EPS = 1e-12


class TensorError(ValueError):
    """Invalid tensor operation (shape mismatch, bad arguments)."""


class NumericFaultError(ArithmeticError):
    """An op produced NaN or Inf."""


class TapeError(RuntimeError):
    """Tape contract violation (reuse after backward, foreign nodes)."""


_TLS = threading.local()


def _tape_stack():
    if not hasattr(_TLS, "stack"):
        _TLS.stack = []
    return _TLS.stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class _Node:
    __slots__ = ("op", "node_id", "parents", "vjp", "tensor")

    def __init__(self, op, node_id, parents, vjp, tensor=None):
        self.op = op
        self.node_id = node_id
        self.parents = parents  # list of _Node for differentiable inputs
        self.vjp = vjp  # grad_out -> list of grads aligned with parents
        self.tensor = tensor  # set for leaves so backward can key results


class GradientTape:
    """Append-only op record; one backward pass per recording."""

    def __init__(self):
        self.nodes = []
        self.consumed = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        if popped is not self:
            raise TapeError("tape stack corrupted")
        return False

    def _record(self, op, parents, vjp, tensor=None):
        node = _Node(op, len(self.nodes), parents, vjp, tensor)
        self.nodes.append(node)
        return node


class Tensor:
    """Dense array with an optional tape node.

    Leaves with requires_grad=True receive gradients from backward(). The
    same leaf may be reused across tapes; it is re-registered per tape.
    """

    __slots__ = ("data", "requires_grad", "_tape", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
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


def _tracked(t: Tensor, tape) -> bool:
    if tape is None:
        return False
    return t.requires_grad or (t._tape is tape and t._node is not None)


def _make(op, out_data, inputs, vjp):
    """Wrap an op result, recording it when any input is tracked."""
    try:
        out = Tensor(out_data)
    except NumericFaultError:
        raise NumericFaultError(f"op {op!r} produced non-finite values") from None
    tape = _active_tape()
    if tape is not None and any(_tracked(t, tape) for t in inputs):
        parents = [t._node_on(tape) for t in inputs if _tracked(t, tape)]
        mask = [_tracked(t, tape) for t in inputs]

        def masked_vjp(g, _vjp=vjp, _mask=mask):
            full = _vjp(g)
            return [gr for gr, m in zip(full, _mask) if m]

        out._tape = tape
        out._node = tape._record(op, parents, masked_vjp)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to `shape` (reverse of numpy broadcasting)."""
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


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    return _make(
        "sub", out, [a, b], lambda g: [_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)]
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    ad, bd = a.data, b.data
    return _make(
        "mul",
        out,
        [a, b],
        lambda g: [_unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)],
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


def transpose_last(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim < 2:
        raise TensorError("transpose_last needs a >=2-d tensor")
    return _make(
        "transpose_last", a.data.swapaxes(-1, -2), [a], lambda g: [g.swapaxes(-1, -2)]
    )


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


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    return _make("relu", np.where(mask, a.data, 0.0), [a], lambda g: [g * mask])


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """tanh-approximation GELU (smooth everywhere)."""
    a = as_tensor(a)
    x = a.data
    x2 = x * x
    inner = _GELU_C * (x + 0.044715 * x2 * x)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
        return [g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)]

    return _make("gelu", out, [a], vjp)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _make("sigmoid", out, [a], lambda g: [g * out * (1.0 - out)])


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return [out * (g - dot)]

    return _make("softmax", out, [a], vjp)


def layer_norm(a, axis: int = -1, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize to zero mean / unit variance along one axis (no affine).

    Affine gain/bias, when wanted, are applied by the caller with mul/add.
    """
    a = as_tensor(a)
    x = a.data
    mu = x.mean(axis=axis, keepdims=True)
    var = x.var(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv

    def vjp(g):
        gm = g.mean(axis=axis, keepdims=True)
        gx = (g * xhat).mean(axis=axis, keepdims=True)
        return [inv * (g - gm - xhat * gx)]

    return _make("layer_norm", xhat, [a], vjp)


def normalize_rows(a, eps: float = NORMALIZE_EPS) -> Tensor:
    """Scale each last-axis row to unit Euclidean norm."""
    a = as_tensor(a)
    x = a.data
    norm = np.sqrt((x**2).sum(axis=-1, keepdims=True) + eps)
    y = x / norm

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return [(g - y * dot) / norm]

    return _make("normalize_rows", y, [a], vjp)


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    shape = a.shape
    return _make("sum_all", np.asarray(a.data.sum()), [a], lambda g: [np.broadcast_to(g, shape).copy()])


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


def rope(a, positions, base: float = ROPE_BASE) -> Tensor:
    """Rotary position embedding on the last axis.

    Adjacent coordinate pairs (2i, 2i+1) of the row at sequence position m
    are rotated by m * base^(-2i/d). Requires an even last axis. positions
    has one entry per row along the second-to-last axis.
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
    freqs = base ** (-2.0 * np.arange(d // 2) / d)
    ang = positions[:, None] * freqs[None, :]  # (T, d/2)
    cos, sin = np.cos(ang), np.sin(ang)
    x = a.data
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
    out = matmul(x, w)
    return add(out, b) if b is not None else out


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
    return_weights=False,
):
    """Scaled dot-product attention with per-head projections.

    Self-attention when q_in is kv_in, cross-attention otherwise. No causal
    mask: queries are parallel slots. When `positions` is given, RoPE is
    applied to the query and key streams of every head before the dot
    product (intended for self-attention, where both streams share the
    positions).

    Built from recorded primitives, so gradients come with it. With
    return_weights=True also returns the per-head attention weights as a
    list of arrays (forward values only).
    """
    q_in, kv_in = as_tensor(q_in), as_tensor(kv_in)
    d = q_in.shape[-1]
    if d % heads != 0:
        raise TensorError(f"model dim {d} not divisible by {heads} heads")
    dh = d // heads
    q = linear(q_in, as_tensor(wq), as_tensor(bq) if bq is not None else None)
    k = linear(kv_in, as_tensor(wk), as_tensor(bk) if bk is not None else None)
    v = linear(kv_in, as_tensor(wv), as_tensor(bv) if bv is not None else None)
    outs = []
    weights = []
    for h in range(heads):
        qh = narrow(q, -1, h * dh, dh)
        kh = narrow(k, -1, h * dh, dh)
        vh = narrow(v, -1, h * dh, dh)
        if positions is not None:
            qh = rope(qh, positions)
            kh = rope(kh, positions)
        scores = scale(matmul(qh, transpose_last(kh)), 1.0 / math.sqrt(dh))
        attn = softmax(scores, axis=-1)
        if return_weights:
            weights.append(attn.data.copy())
        outs.append(matmul(attn, vh))
    out = linear(concat(outs, axis=-1), as_tensor(wo), as_tensor(bo) if bo is not None else None)
    return (out, weights) if return_weights else out


# --- backward pass ---


def backward(tape: GradientTape, loss: Tensor) -> dict:
    """Reverse-accumulate gradients of a scalar loss over one tape.

    Returns a dict keyed by leaf Tensor (identity) holding ndarray grads for
    every requires_grad leaf encountered. The tape is consumed.
    """
    if tape.consumed:
        raise TapeError("tape already consumed by a previous backward pass")
    if loss._tape is not tape or loss._node is None:
        raise TapeError("loss was not recorded on this tape")
    if loss.data.size != 1:
        raise TensorError(f"loss must be scalar, got shape {loss.shape}")
    tape.consumed = True

    grads = {loss._node.node_id: np.ones_like(loss.data)}
    result = {}
    for node in reversed(tape.nodes):
        g = grads.pop(node.node_id, None)
        if g is None:
            continue
        if node.op == "leaf":
            if node.tensor is not None and node.tensor.requires_grad:
                result[node.tensor] = g
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if parent.node_id in grads:
                grads[parent.node_id] = grads[parent.node_id] + pg
            else:
                grads[parent.node_id] = pg
    return result


# --- parameters ---


def _name_seed(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(zlib.crc32(name.encode()),)))


class ParamSet:
    """Named parameter tensors with recorded initialization metadata.

    Each parameter's stream is derived from (seed, name), so values do not
    depend on creation order. Names are unique and shapes immutable.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._params = {}
        self._meta = {}

    def _register(self, name, data, scheme, fan_in=None):
        if name in self._params:
            raise TensorError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        self._meta[name] = {"scheme": scheme, "fan_in": fan_in, "seed": self.seed}
        return t

    def linear_weight(self, name: str, fan_in: int, fan_out: int) -> Tensor:
        bound = 1.0 / math.sqrt(fan_in)
        data = _name_seed(self.seed, name).uniform(-bound, bound, size=(fan_in, fan_out))
        return self._register(name, data, "uniform_fan_in", fan_in)

    def zeros(self, name: str, shape) -> Tensor:
        return self._register(name, np.zeros(shape), "zeros")

    def ones(self, name: str, shape) -> Tensor:
        return self._register(name, np.ones(shape), "ones")

    def query_normal(self, name: str, shape, std: float = 0.02) -> Tensor:
        data = _name_seed(self.seed, name).normal(0.0, std, size=shape)
        return self._register(name, data, "normal_0.02")

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def meta(self, name: str) -> dict:
        return dict(self._meta[name])

    def total_count(self) -> int:
        return int(sum(t.data.size for t in self._params.values()))

    def swap(self, name: str, tensor: Tensor) -> Tensor:
        """Replace a parameter tensor, returning the old one (for probes and
        finite-difference checks over parameters)."""
        old = self._params[name]
        if tensor.data.shape != old.data.shape:
            raise TensorError(f"swap shape mismatch for {name!r}")
        self._params[name] = tensor
        return old

    def grads_by_name(self, grad_map: dict) -> dict:
        """Convert a backward() result to name-keyed grads (zeros if absent)."""
        out = {}
        for name, t in self._params.items():
            g = grad_map.get(t)
            out[name] = np.zeros_like(t.data) if g is None else g
        return out


# --- AdamW with linear warmup + cosine decay ---


@dataclass
class OptimizerConfig:
    lr: float = 2e-4
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    warmup_steps: int = 5000
    total_steps: int = 50000


@dataclass
class OptimizerState:
    config: OptimizerConfig
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    _warned_past_total: bool = False


def lr_at(config: OptimizerConfig, step: int) -> float:
    """Schedule value at 1-based step: linear ramp, then cosine to zero."""
    if step <= config.warmup_steps:
        return config.lr * step / max(1, config.warmup_steps)
    if step > config.total_steps:
        return 0.0
    span = max(1, config.total_steps - config.warmup_steps)
    progress = (step - config.warmup_steps) / span
    return config.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def adamw_step(params: ParamSet, grads: dict, state: OptimizerState) -> None:
    """One decoupled-weight-decay Adam update, in place.

    grads is name-keyed. Steps past total_steps clamp the lr to 0 and warn
    once; the run continues.
    """
    cfg = state.config
    state.step += 1
    t = state.step
    if t > cfg.total_steps and not state._warned_past_total:
        warnings.warn("optimizer stepped past total_steps; lr clamped to 0", stacklevel=2)
        state._warned_past_total = True
    lr = lr_at(cfg, t)
    b1, b2 = cfg.betas
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        state.m[name] = m
        state.v[name] = v
        mhat = m / (1.0 - b1**t)
        vhat = v / (1.0 - b2**t)
        p.data = p.data - lr * (mhat / (np.sqrt(vhat) + cfg.eps) + cfg.weight_decay * p.data)


# --- finite-difference gradient checking ---

# A coordinate whose second difference grows like h (instead of h^2) sits on
# a subgradient kink; it is reported, not failed.
_KINK_CURVATURE = 0.1


@dataclass
class GradCheckResult:
    max_rel_error: float
    n_checked: int
    excluded: list

    def __repr__(self):
        return (
            f"GradCheckResult(max_rel_error={self.max_rel_error:.3e}, "
            f"n_checked={self.n_checked}, excluded={len(self.excluded)})"
        )


def grad_check(fn, inputs, h: float = 1e-6) -> GradCheckResult:
    """Central finite differences vs tape gradients for a scalar function.

    fn maps a list of Tensors to a scalar Tensor and must be deterministic.
    Returns the worst relative error over all input coordinates, excluding
    (and reporting) coordinates detected on an l1-style kink.
    """
    tensors = [Tensor(np.asarray(x, dtype=float), requires_grad=True) for x in inputs]
    with GradientTape() as tape:
        loss = fn(tensors)
    grad_map = backward(tape, loss)
    analytic = [grad_map.get(t, np.zeros_like(t.data)) for t in tensors]

    def eval_at(arrays):
        return float(fn([Tensor(a) for a in arrays]).data)

    base = [t.data.copy() for t in tensors]
    f0 = eval_at(base)
    worst = 0.0
    n_checked = 0
    excluded = []
    for i, arr in enumerate(base):
        flat = arr.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fp = eval_at(base)
            flat[j] = orig - h
            fm = eval_at(base)
            flat[j] = orig
            fd = (fp - fm) / (2.0 * h)
            an = float(analytic[i].reshape(-1)[j])
            if abs(fp - 2.0 * f0 + fm) / h > _KINK_CURVATURE:
                excluded.append((i, j))
                continue
            err = abs(fd - an) / max(1.0, abs(fd), abs(an))
            worst = max(worst, err)
            n_checked += 1
    return GradCheckResult(worst, n_checked, excluded)


# --- ckpt_v1 checkpoint format ---


def _ckpt_paths(path: str):
    stem = path[: -len(".json")] if path.endswith(".json") else path
    return stem + ".json", stem + ".bin"


def save_checkpoint(path: str, params: ParamSet, config_hash: str = "", step: int = 0, extra=None):
    """Write a ckpt_v1 checkpoint: JSON manifest + little-endian f64 blob."""
    manifest_path, blob_path = _ckpt_paths(path)
    entries = [{"name": n, "shape": list(t.data.shape)} for n, t in params.items()]
    manifest = {"schema": "ckpt_v1", "config_hash": config_hash, "step": int(step), "params": entries}
    if extra:
        manifest["extra"] = extra
    with open(blob_path, "wb") as f:
        for _, t in params.items():
            f.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


def load_checkpoint(path: str):
    """Read a ckpt_v1 checkpoint; returns (manifest, name->ndarray)."""
    manifest_path, blob_path = _ckpt_paths(path)
    with open(manifest_path) as f:
        manifest = json.load(f)
    if manifest.get("schema") != "ckpt_v1":
        raise TensorError(f"expected ckpt_v1 manifest, got {manifest.get('schema')!r}")
    with open(blob_path, "rb") as f:
        blob = f.read()
    arrays = {}
    offset = 0
    for entry in manifest["params"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * struct.calcsize("<d")
        if offset + nbytes > len(blob):
            raise TensorError("checkpoint blob truncated")
        arrays[entry["name"]] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(blob):
        raise TensorError("checkpoint blob has trailing bytes")
    return manifest, arrays


def load_into(params: ParamSet, path: str) -> dict:
    """Load checkpoint values into an existing ParamSet (shapes must match)."""
    manifest, arrays = load_checkpoint(path)
    for name, t in params.items():
        if name not in arrays:
            raise TensorError(f"checkpoint missing parameter {name!r}")
        if arrays[name].shape != t.data.shape:
            raise TensorError(
                f"checkpoint shape {arrays[name].shape} != parameter shape {t.data.shape} for {name!r}"
            )
        t.data = arrays[name].copy()
    return manifest
