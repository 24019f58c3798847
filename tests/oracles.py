"""Test oracles and probes for se3bc: code that only tests run.

- `mul` and `sum_all` are tape ops that weight an op's output and reduce it
  to the scalar a gradient check needs; the program records neither.
- `grad_check` compares tape gradients against central finite differences.
- `quat_to_matrix` inverts `geometry.matrix_to_quat`; `skew` is the
  matrix `geometry.exp_so3` builds, and `apply_action` right-composes a
  `RelativeAction` as `Simulator.step` composes its clamped motion.
- `swap` binds a parameter of a ParamSet to another tensor.
- `phase` names the state of a scripted expert's state machine.

Test modules import this one as `import oracles`; pytest collects no tests
from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from se3bc import geometry as geo
from se3bc import simworld as sw
from se3bc import tensornet as tn


def mul(a, b) -> tn.Tensor:
    a, b = tn.as_tensor(a), tn.as_tensor(b)
    ad, bd = a.data, b.data
    return tn._make("mul", ad * bd, [a, b],
                    lambda g: [tn._unbroadcast(g * bd, a.shape), tn._unbroadcast(g * ad, b.shape)])


def sum_all(a) -> tn.Tensor:
    a = tn.as_tensor(a)
    shape = a.shape
    return tn._make("sum_all", np.asarray(a.data.sum()), [a], lambda g: [np.broadcast_to(g, shape).copy()])


# --- finite-difference gradient checking ---

GRAD_CHECK_STEP = 1e-6
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


def grad_check(fn, inputs) -> GradCheckResult:
    """Central finite differences vs tape gradients for a scalar function.

    fn maps a list of Tensors to a scalar Tensor and must be deterministic.
    Returns the worst relative error over all input coordinates, excluding
    (and reporting) coordinates detected on an l1-style kink.
    """
    h = GRAD_CHECK_STEP
    tensors = [tn.Tensor(np.asarray(x, dtype=float), requires_grad=True) for x in inputs]
    with tn.GradientTape() as tape:
        loss = fn(tensors)
    grad_map = tn.backward(tape, loss)
    analytic = [grad_map.get(t, np.zeros_like(t.data)) for t in tensors]

    def eval_at(arrays):
        return float(fn([tn.Tensor(a) for a in arrays]).data)

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


# --- geometry ---


def quat_to_matrix(q) -> np.ndarray:
    """(w, x, y, z) to a rotation matrix; raises GeometryError unless q is
    four finite values with unit norm within geometry.ORTHO_ATOL."""
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape != (4,):
        raise geo.GeometryError(f"quaternion must be a 4-vector, got shape {q.shape}")
    if not all(map(math.isfinite, q.tolist())):
        raise geo.GeometryError("quaternion has non-finite components")
    if abs(geo.norm(q) - 1.0) > geo.ORTHO_ATOL:
        raise geo.GeometryError("quaternion is not unit norm")
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def skew(v) -> np.ndarray:
    """Skew-symmetric matrix [v]_x such that [v]_x w = v x w."""
    x, y, z = geo._as_vec3(v, "v")
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def apply_action(t: np.ndarray, a: geo.RelativeAction) -> np.ndarray:
    """Right-compose a relative action onto a pose; inverse of geometry.relative_action."""
    return geo.check_se3(t) @ geo.pose_to_se3(np.concatenate([a.dp, a.dtheta]))


# --- probes of program state ---


def swap(params: tn.ParamSet, name: str, tensor: tn.Tensor) -> tn.Tensor:
    """Replace a parameter tensor of `params`, returning the old one. The new
    tensor keeps its own array until the next flat_data() copies it into a
    rebuilt buffer."""
    old = params[name]
    if tensor.data.shape != old.data.shape:
        raise tn.TensorError(f"swap shape mismatch for {name!r}")
    params._params[name] = tensor
    return old


def phase(expert: sw.ScriptedExpert) -> str:
    """The name of the expert's current phase."""
    return sw._PHASES[expert._phase]
