"""Deterministic kinematic tabletop world with pick-and-place tasks.

Quasi-static, end-effector-only physics: the gripper pose moves by clamped
relative actions, objects are points that rigidly follow the gripper while
attached, and the only collision handling is clamping the gripper position
into the table box. There is no gravity; a released object stays where it
was released. Success is a proximity test against the target container.

Gripper semantics: the scalar opens at 0 and closes at 1, slewing toward the
commanded value at a fixed rate. An object attaches when the gripper crosses
0.5 upward with the object inside its grasp radius, and detaches when the
gripper crosses 0.5 downward.

Observation features are synthetic stand-ins for learned vision-language and
depth encoders: instruction one-hots plus projected keypoint tokens with id
tags, emitted as three blocks (language, visual, depth) sharing one token
width.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from . import geometry as geo
from .geometry import CameraIntrinsic, RelativeAction

SCENE_SCHEMA = "scene_spec_v1"

TASK_FAMILIES = ("goal", "spatial", "long")

# Default grasp geometry: tight enough that millimeter placement errors stay
# observable under noise, loose enough for a reliable expert.
DEFAULT_GRASP_RADIUS = 0.02
DEFAULT_ACCEPT_RADIUS = 0.04


class SceneError(ValueError):
    """Invalid scene or task specification."""


class EpisodeTerminated(RuntimeError):
    """step() called at the horizon limit."""


class ExpertFailure(RuntimeError):
    """Scripted expert cannot reach its target."""


@dataclass
class ObjectSpec:
    id: str
    position: np.ndarray
    grasp_radius: float = DEFAULT_GRASP_RADIUS

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        if self.grasp_radius <= 0:
            raise SceneError(f"object {self.id!r} grasp_radius must be > 0")


@dataclass
class ContainerSpec:
    id: str
    center: np.ndarray
    accept_radius: float = DEFAULT_ACCEPT_RADIUS

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        if self.accept_radius <= 0:
            raise SceneError(f"container {self.id!r} accept_radius must be > 0")


@dataclass
class SceneSpec:
    table_lo: np.ndarray
    table_hi: np.ndarray
    objects: list
    containers: list
    rng_seed: int = 0
    ee_home: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.20]))

    def __post_init__(self):
        self.table_lo = np.asarray(self.table_lo, dtype=float).reshape(3)
        self.table_hi = np.asarray(self.table_hi, dtype=float).reshape(3)
        self.ee_home = np.asarray(self.ee_home, dtype=float).reshape(3)
        if not np.all(self.table_lo < self.table_hi):
            raise SceneError("table_lo must be strictly below table_hi")
        ids = [o.id for o in self.objects] + [c.id for c in self.containers]
        if len(set(ids)) != len(ids):
            raise SceneError("object/container ids must be unique")
        for o in self.objects:
            if not self._inside(o.position):
                raise SceneError(f"object {o.id!r} outside table bounds")
        for c in self.containers:
            if not self._inside(c.center):
                raise SceneError(f"container {c.id!r} outside table bounds")

    def _inside(self, p) -> bool:
        return bool(np.all(p >= self.table_lo) and np.all(p <= self.table_hi))

    def object(self, oid: str) -> ObjectSpec:
        for o in self.objects:
            if o.id == oid:
                return o
        raise SceneError(f"unknown object {oid!r}")

    def container(self, cid: str) -> ContainerSpec:
        for c in self.containers:
            if c.id == cid:
                return c
        raise SceneError(f"unknown container {cid!r}")


@dataclass
class TaskSpec:
    target_object_id: str
    target_container_id: str
    horizon_limit: int = 200
    family: str = "goal"
    # Long tasks must pass through this region before placing.
    latch_center: np.ndarray | None = None
    latch_radius: float = 0.03

    def __post_init__(self):
        if self.family not in TASK_FAMILIES:
            raise SceneError(f"unknown task family {self.family!r}")
        if self.horizon_limit <= 0:
            raise SceneError("horizon_limit must be > 0")
        if self.latch_center is not None:
            self.latch_center = np.asarray(self.latch_center, dtype=float).reshape(3)
        if self.family == "long" and self.latch_center is None:
            raise SceneError("long tasks need a latch_center")

    def validate_against(self, scene: SceneSpec):
        scene.object(self.target_object_id)
        scene.container(self.target_container_id)


@dataclass
class CameraModel:
    extrinsic: np.ndarray  # camera-to-world, 4x4
    intrinsic: CameraIntrinsic
    t_wc: np.ndarray = field(init=False, repr=False)  # world-to-camera, inverted at construction

    def __post_init__(self):
        self.extrinsic = geo.check_se3(self.extrinsic)
        self.t_wc = geo.se3_inverse(self.extrinsic)


@dataclass
class SimState:
    ee_pose: np.ndarray
    gripper: float
    object_poses: dict
    attached: str | None
    step_count: int
    grasp_offset: np.ndarray | None = None  # ee-frame offset recorded at attach
    latch_visited: bool = False

    def state_vec(self) -> np.ndarray:
        """7-vector [position, axis-angle orientation, gripper]."""
        return np.concatenate(
            [self.ee_pose[:3, 3], geo.log_so3(self.ee_pose[:3, :3]), [self.gripper]]
        )


@dataclass
class SimConfig:
    max_dp: float = 0.05  # meters per step
    max_dtheta: float = 0.2  # radians per step
    gripper_rate: float = 0.5  # gripper units per step
    jitter_radius: float = 0.03  # object reset jitter (xy plane)
    jitter_resample_limit: int = 100


def _clip_norm(v: np.ndarray, limit: float) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n > limit:
        return v * (limit / n)
    return v


class Simulator:
    """Owns one episode's state transitions; one instance per rollout worker.

    Only reset draws random numbers, from a stream seeded by its seed, so
    identical (scene, task, seed, action sequence) replays are bit-identical.
    """

    def __init__(self, scene: SceneSpec, task: TaskSpec, config: SimConfig | None = None):
        task.validate_against(scene)
        self.scene = scene
        self.task = task
        self.config = config or SimConfig()

    def reset(self, seed: int) -> SimState:
        jitter_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        poses = {}
        for obj in self.scene.objects:
            poses[obj.id] = self._jitter_position(obj, jitter_rng)
        ee = np.eye(4)
        ee[:3, 3] = self.scene.ee_home
        return SimState(ee_pose=ee, gripper=0.0, object_poses=poses, attached=None, step_count=0)

    def _jitter_position(self, obj: ObjectSpec, rng) -> np.ndarray:
        r = self.config.jitter_radius
        for _ in range(self.config.jitter_resample_limit):
            # uniform in the xy disc; objects stay at their spec height
            ang = rng.uniform(0.0, 2.0 * math.pi)
            rad = r * math.sqrt(rng.uniform())
            p = obj.position + np.array([rad * math.cos(ang), rad * math.sin(ang), 0.0])
            if self.scene._inside(p):
                return p
            if r == 0.0:
                break
        raise SceneError(f"could not place object {obj.id!r} inside table bounds")

    def step(self, state: SimState, action: RelativeAction) -> SimState:
        if state.step_count >= self.task.horizon_limit:
            raise EpisodeTerminated(f"horizon limit {self.task.horizon_limit} reached")
        cfg = self.config
        dp = _clip_norm(action.dp, cfg.max_dp)
        dtheta = _clip_norm(action.dtheta, cfg.max_dtheta)

        ee = geo.apply_action(state.ee_pose, RelativeAction(dp, dtheta))
        ee[:3, 3] = np.clip(ee[:3, 3], self.scene.table_lo, self.scene.table_hi)

        g_cmd = min(1.0, max(0.0, action.gripper))
        delta = max(-cfg.gripper_rate, min(cfg.gripper_rate, g_cmd - state.gripper))
        g_new = state.gripper + delta

        attached = state.attached
        offset = state.grasp_offset
        poses = {k: v.copy() for k, v in state.object_poses.items()}
        ee_p = ee[:3, 3]
        ee_r = ee[:3, :3]

        if attached is not None and state.gripper >= 0.5 > g_new:
            attached, offset = None, None
        elif attached is None and state.gripper < 0.5 <= g_new:
            best, best_d = None, None
            for obj in self.scene.objects:
                d = float(np.linalg.norm(poses[obj.id] - ee_p))
                if d <= obj.grasp_radius and (best_d is None or d < best_d):
                    best, best_d = obj.id, d
            if best is not None:
                attached = best
                offset = ee_r.T @ (poses[best] - ee_p)
        if attached is not None:
            poses[attached] = ee_p + ee_r @ offset

        latch = state.latch_visited
        if self.task.family == "long" and self.task.latch_center is not None and not latch:
            latch = float(np.linalg.norm(ee_p - self.task.latch_center)) <= self.task.latch_radius

        return SimState(
            ee_pose=ee,
            gripper=g_new,
            object_poses=poses,
            attached=attached,
            step_count=state.step_count + 1,
            grasp_offset=offset,
            latch_visited=latch,
        )

    def check_success(self, state: SimState) -> bool:
        """Target object released within the container's accept radius (long
        tasks additionally require the latch region to have been visited)."""
        task = self.task
        if state.attached == task.target_object_id:
            return False
        if task.family == "long" and not state.latch_visited:
            return False
        container = self.scene.container(task.target_container_id)
        dist = float(np.linalg.norm(state.object_poses[task.target_object_id] - container.center))
        return dist <= container.accept_radius


# --- scripted expert ---


@dataclass
class ExpertConfig:
    gripper_latency_steps: int = 1  # gripper commands trail motion decisions
    approach_height: float = 0.08
    lift_height: float = 0.10
    place_height: float = 0.02
    retreat_height: float = 0.12
    waypoint_tol: float = 0.01
    descend_tol: float = 0.008
    tilt: float = 0.25  # grasp-orientation pitch, radians
    # Brisk pacing keeps gripper flips tightly correlated with coarse scene
    # geometry (most training windows straddle a flip); the final descent is
    # slower so re-prediction happens close to the grasp, where open-loop
    # drift matters most.
    max_step: float = 0.05
    max_rot_step: float = 0.2
    descend_step: float = 0.015
    close_hold_steps: int = 0

    def __post_init__(self):
        if self.gripper_latency_steps < 0:
            raise SceneError("gripper_latency_steps must be >= 0")


_PHASES = ("latch", "approach", "descend", "close", "lift", "traverse", "place", "open", "retreat")


class ScriptedExpert:
    """Waypoint finite-state controller for pick-and-place episodes.

    Motion commands react to the current state immediately; gripper commands
    pass through a delay queue of gripper_latency_steps, the timing residual
    a learned decoder has to absorb.
    """

    def __init__(self, scene: SceneSpec, task: TaskSpec, cfg: ExpertConfig | None = None):
        task.validate_against(scene)
        self.scene = scene
        self.task = task
        self.cfg = cfg or ExpertConfig()
        if not scene._inside(scene.object(task.target_object_id).position):
            raise ExpertFailure("target object outside table bounds")
        if not scene._inside(scene.container(task.target_container_id).center):
            raise ExpertFailure("target container outside table bounds")
        self.reset()

    def reset(self):
        self._phase = 0 if self.task.family == "long" else 1
        self._grip_queue = deque([0.0] * self.cfg.gripper_latency_steps)
        self._hold = 0

    @property
    def phase(self) -> str:
        return _PHASES[self._phase]

    def _grasp_orientation(self, obj_p: np.ndarray) -> np.ndarray:
        # yaw follows the object bearing (halved to stay well inside the
        # chart), plus a fixed approach tilt: observation-coupled rotation.
        yaw = 0.5 * math.atan2(obj_p[1], obj_p[0])
        return geo.euler_to_matrix([0.0, self.cfg.tilt, yaw])

    def _carry_orientation(self, cont_p: np.ndarray) -> np.ndarray:
        yaw = 0.5 * math.atan2(cont_p[1], cont_p[0])
        return geo.euler_to_matrix([0.0, -0.6 * self.cfg.tilt, yaw])

    def action(self, state: SimState) -> RelativeAction:
        cfg = self.cfg
        task = self.task
        obj_p = state.object_poses[task.target_object_id]
        cont = self.scene.container(task.target_container_id)
        ee_p = state.ee_pose[:3, 3]
        ee_r = state.ee_pose[:3, :3]

        self._advance(state, obj_p, cont.center, ee_p)
        phase = _PHASES[self._phase]

        up = np.array([0.0, 0.0, 1.0])
        grasp_r = self._grasp_orientation(obj_p)
        carry_r = self._carry_orientation(cont.center)
        if phase == "latch":
            wp, goal_r, g = task.latch_center, np.eye(3), 0.0
        elif phase == "approach":
            wp, goal_r, g = obj_p + cfg.approach_height * up, grasp_r, 0.0
        elif phase == "descend":
            wp, goal_r, g = obj_p, grasp_r, 0.0
        elif phase == "close":
            wp, goal_r, g = obj_p, grasp_r, 1.0
        elif phase == "lift":
            # absolute height over the object's rest height (the live object
            # position rises with the gripper while attached)
            rest_z = self.scene.object(task.target_object_id).position[2]
            wp, goal_r, g = np.array([ee_p[0], ee_p[1], rest_z + cfg.lift_height]), grasp_r, 1.0
        elif phase == "traverse":
            wp, goal_r, g = cont.center + cfg.lift_height * up, carry_r, 1.0
        elif phase == "place":
            wp, goal_r, g = cont.center + cfg.place_height * up, carry_r, 1.0
        elif phase == "open":
            wp, goal_r, g = cont.center + cfg.place_height * up, carry_r, 0.0
        else:  # retreat
            wp, goal_r, g = cont.center + cfg.retreat_height * up, np.eye(3), 0.0

        speed = cfg.descend_step if phase in ("descend", "close", "place") else cfg.max_step
        dp_world = _clip_norm(wp - ee_p, speed)
        dp = ee_r.T @ dp_world
        dtheta = _clip_norm(geo.log_so3(ee_r.T @ goal_r), cfg.max_rot_step)
        self._grip_queue.append(g)
        g_emit = self._grip_queue.popleft()
        return RelativeAction(dp, dtheta, g_emit)

    def _advance(self, state: SimState, obj_p, cont_c, ee_p):
        cfg = self.cfg
        phase = _PHASES[self._phase]
        if phase == "latch" and state.latch_visited:
            self._phase += 1
        elif phase == "approach" and np.linalg.norm(ee_p - (obj_p + [0, 0, cfg.approach_height])) <= cfg.waypoint_tol:
            self._phase += 1
        elif phase == "descend" and np.linalg.norm(ee_p - obj_p) <= cfg.descend_tol:
            self._phase += 1
        elif phase == "close" and state.attached == self.task.target_object_id:
            if self._hold < cfg.close_hold_steps:
                self._hold += 1
            else:
                self._phase += 1
        elif phase == "lift":
            rest_z = self.scene.object(self.task.target_object_id).position[2]
            if ee_p[2] >= rest_z + cfg.lift_height - cfg.waypoint_tol:
                self._phase += 1
        elif phase == "traverse" and np.linalg.norm(ee_p - (cont_c + [0, 0, cfg.lift_height])) <= cfg.waypoint_tol:
            self._phase += 1
        elif phase == "place" and np.linalg.norm(ee_p - (cont_c + [0, 0, cfg.place_height])) <= cfg.descend_tol:
            self._phase += 1
        elif phase == "open" and state.attached is None and state.gripper < 0.5:
            self._phase += 1


# --- synthetic featurizer ---

@dataclass
class ObservationFeatures:
    """Three token blocks sharing one token width.

    Each token is [id tag | payload]. Keypoints are the scene objects (in
    spec order) followed by the end-effector; the two language tokens carry
    the instruction one-hots.
    """

    lang: np.ndarray  # (2, token_dim)
    visual: np.ndarray  # (n_keypoints, token_dim)
    depth: np.ndarray  # (n_keypoints, token_dim), metric

    @property
    def token_dim(self) -> int:
        return self.lang.shape[1]


def feature_dims(scene: SceneSpec):
    """(token_dim, n_keypoints, payload_width) for a scene."""
    n_kp = len(scene.objects) + 1
    payload = max(2, len(scene.objects), len(scene.containers))
    return n_kp + 2 + payload, n_kp, payload


def featurize(state: SimState, task: TaskSpec, scene: SceneSpec, cam: CameraModel) -> ObservationFeatures:
    """Tokenize a state: instruction one-hots, projected keypoints, depths.

    Visual payloads are pinhole projections normalized by image size; depth
    payloads are camera-frame z in meters. Other depth modes are derived
    from these by the policy's encoder (see relative_depth).
    """
    token_dim, n_kp, payload = feature_dims(scene)

    keypoints = [state.object_poses[o.id] for o in scene.objects]
    keypoints.append(state.ee_pose[:3, 3])

    def token(tag_idx, values):
        t = np.zeros(token_dim)
        t[tag_idx] = 1.0
        t[n_kp + 2 : n_kp + 2 + len(values)] = values
        return t

    obj_idx = [o.id for o in scene.objects].index(task.target_object_id)
    cont_idx = [c.id for c in scene.containers].index(task.target_container_id)
    obj_onehot = np.zeros(payload)
    obj_onehot[obj_idx] = 1.0
    cont_onehot = np.zeros(payload)
    cont_onehot[cont_idx] = 1.0
    lang = np.stack([token(n_kp, obj_onehot), token(n_kp + 1, cont_onehot)])

    visual = np.zeros((n_kp, token_dim))
    depth = np.zeros((n_kp, token_dim))
    for i, p in enumerate(keypoints):
        p_cam = (cam.t_wc @ np.append(p, 1.0))[:3]
        uv = geo.project_pinhole(p_cam, cam.intrinsic)
        visual[i] = token(i, [uv[0] / cam.intrinsic.width, uv[1] / cam.intrinsic.height])
        depth[i] = token(i, [p_cam[2]])

    return ObservationFeatures(lang=lang, visual=visual, depth=depth)


def relative_depth(depth: np.ndarray) -> np.ndarray:
    """Per-frame min-max normalization of metric depth blocks.

    `depth` has shape (..., n_keypoints, token_dim). Within each frame the
    payload column (n_keypoints + 2) is mapped onto [0, 1]; a frame whose
    depths are all equal gets zeros. Other columns are copied unchanged.
    """
    out = np.array(depth, dtype=float)
    col = out.shape[-2] + 2  # depth payload column
    z = out[..., col]
    lo = z.min(axis=-1, keepdims=True)
    hi = z.max(axis=-1, keepdims=True)
    out[..., col] = np.divide(z - lo, hi - lo, out=np.zeros_like(z), where=hi > lo)
    return out


# --- default desk scene and camera ---


def default_camera() -> CameraModel:
    """Third-person camera behind the table edge, pitched 20 degrees down.

    The mild pitch keeps camera-frame end-effector orientations far from the
    axis-angle chart boundary.
    """
    alpha = math.radians(20.0)
    c, s = math.cos(alpha), math.sin(alpha)
    x_cam = np.array([1.0, 0.0, 0.0])
    z_cam = np.array([0.0, c, -s])  # optical axis, toward the table
    y_cam = np.cross(z_cam, x_cam)  # image-down
    r = np.column_stack([x_cam, y_cam, z_cam])
    ext = geo.se3(r, [0.0, -0.9, 0.35])
    intr = CameraIntrinsic(fx=220.0, fy=220.0, cx=112.0, cy=112.0, width=224, height=224)
    return CameraModel(extrinsic=ext, intrinsic=intr)


def default_scene(family: str = "goal"):
    """A two-object, two-container desk scene and a task of the family."""
    scene = SceneSpec(
        table_lo=[-0.30, -0.30, 0.00],
        table_hi=[0.30, 0.30, 0.40],
        objects=[
            ObjectSpec("block_red", [-0.10, 0.05, 0.02]),
            ObjectSpec("block_blue", [0.12, -0.06, 0.02]),
        ],
        containers=[
            ContainerSpec("bin_a", [0.15, 0.18, 0.02]),
            ContainerSpec("bin_b", [-0.18, -0.15, 0.02]),
        ],
    )
    if family == "goal":
        task = TaskSpec("block_red", "bin_a", family="goal")
    elif family == "spatial":
        task = TaskSpec("block_blue", "bin_b", family="spatial")
    elif family == "long":
        task = TaskSpec(
            "block_red", "bin_a", family="long", latch_center=[-0.05, 0.20, 0.10], latch_radius=0.03
        )
    else:
        raise SceneError(f"unknown task family {family!r}")
    return scene, task


# --- scene_spec_v1 JSON ---


def _entry_doc(spec) -> dict:
    """A scene dataclass as a JSON object: one key per field, arrays as lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(spec).items()}


def _entry(cls, doc):
    try:
        return cls(**doc)
    except (TypeError, ValueError) as e:
        raise SceneError(f"malformed {cls.__name__} entry {doc!r}: {e}") from e


def scene_to_json(scene: SceneSpec, tasks: dict, camera: CameraModel) -> dict:
    return {
        "schema": SCENE_SCHEMA,
        "table_bounds": {"lo": scene.table_lo.tolist(), "hi": scene.table_hi.tolist()},
        "ee_home": scene.ee_home.tolist(),
        "rng_seed": scene.rng_seed,
        "objects": [_entry_doc(o) for o in scene.objects],
        "containers": [_entry_doc(c) for c in scene.containers],
        "tasks": {name: _entry_doc(t) for name, t in tasks.items()},
        "camera": {
            "extrinsic": camera.extrinsic.reshape(-1).tolist(),
            "intrinsic": _entry_doc(camera.intrinsic),
        },
    }


def _section(doc: dict, key: str, kind: type):
    """doc[key], checked to be a JSON object (kind dict) or array (kind list)."""
    if not isinstance(doc[key], kind):
        raise SceneError(f"scene_spec_v1 key {key!r} is a {type(doc[key]).__name__}, not a {kind.__name__}")
    return doc[key]


def scene_from_json(doc: dict):
    """Parse a scene_spec_v1 document into (scene, tasks, camera)."""
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCENE_SCHEMA:
        raise SceneError(f"expected schema {SCENE_SCHEMA!r}, got {schema!r}")
    try:
        bounds, cam = _section(doc, "table_bounds", dict), _section(doc, "camera", dict)
        scene = SceneSpec(
            table_lo=bounds["lo"],
            table_hi=bounds["hi"],
            objects=[_entry(ObjectSpec, o) for o in _section(doc, "objects", list)],
            containers=[_entry(ContainerSpec, c) for c in _section(doc, "containers", list)],
            rng_seed=doc.get("rng_seed", 0),
            ee_home=doc.get("ee_home", [0.0, 0.0, 0.20]),
        )
        tasks = {name: _entry(TaskSpec, t) for name, t in _section(doc, "tasks", dict).items()}
        camera = CameraModel(
            extrinsic=np.asarray(cam["extrinsic"], dtype=float).reshape(4, 4),
            intrinsic=_entry(CameraIntrinsic, cam["intrinsic"]),
        )
    except KeyError as e:
        raise SceneError(f"scene_spec_v1 document lacks key {e.args[0]!r}") from None
    return scene, tasks, camera
