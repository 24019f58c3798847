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
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .geometry import CameraIntrinsic, RelativeAction

TASK_FAMILIES = ("goal", "spatial", "long")

# Grasp geometry: tight enough that millimeter placement errors stay
# observable under noise, loose enough for a reliable expert.
GRASP_RADIUS = 0.02  # an object attaches within this distance of the gripper
ACCEPT_RADIUS = 0.04  # a released object counts as placed within this of a container
LATCH_RADIUS = 0.03  # a long task's latch region
EE_HOME = (0.0, 0.0, 0.20)  # end-effector position at reset

# Actuation limits and reset jitter.
MAX_DP = 0.05  # meters per step
MAX_DTHETA = 0.2  # radians per step
GRIPPER_RATE = 0.5  # gripper units per step
JITTER_RADIUS = 0.03  # object reset jitter (xy plane)
JITTER_RESAMPLE_LIMIT = 100


class SceneError(ValueError):
    """Invalid scene or task specification."""


def _vec3(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.size != 3:
        raise SceneError(f"{name} must hold 3 values, got {v.size}")
    return v.reshape(3)


class EpisodeTerminated(RuntimeError):
    """step() called at the horizon limit."""


@dataclass
class ObjectSpec:
    id: str
    position: np.ndarray

    def __post_init__(self):
        self.position = _vec3(self.position, f"object {self.id!r} position")


@dataclass
class ContainerSpec:
    id: str
    center: np.ndarray

    def __post_init__(self):
        self.center = _vec3(self.center, f"container {self.id!r} center")


@dataclass
class SceneSpec:
    table_lo: np.ndarray
    table_hi: np.ndarray
    objects: list
    containers: list

    def __post_init__(self):
        self.table_lo = _vec3(self.table_lo, "table_lo")
        self.table_hi = _vec3(self.table_hi, "table_hi")
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

    def __post_init__(self):
        if self.family not in TASK_FAMILIES:
            raise SceneError(f"unknown task family {self.family!r}")
        if self.horizon_limit <= 0:
            raise SceneError("horizon_limit must be > 0")
        if self.latch_center is not None:
            self.latch_center = _vec3(self.latch_center, "latch_center")
        if self.family == "long" and self.latch_center is None:
            raise SceneError("long tasks need a latch_center")


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
    gripper_cmd: float = 0.0  # the gripper command the step into this state executed

    def state_vec(self) -> np.ndarray:
        """7-vector [position, axis-angle orientation, gripper]."""
        return np.concatenate(
            [self.ee_pose[:3, 3], geo.log_so3(self.ee_pose[:3, :3]), [self.gripper]]
        )


def _clip_norm(v: np.ndarray, limit: float) -> np.ndarray:
    n = geo.norm(v)
    if n > limit:
        return v * (limit / n)
    return v


class Simulator:
    """State transitions of a scene and task; it keeps no per-episode state,
    so `drive`'s one instance steps every episode of a run (reset returns a
    state, step maps a state and an action to the next).

    Actions are clamped to MAX_DP and MAX_DTHETA per step and the gripper
    slews at GRIPPER_RATE toward the command, which the next state keeps as
    gripper_cmd. Only reset draws random numbers: it jitters each object
    within JITTER_RADIUS in the xy plane, from a stream seeded by its seed,
    so identical (scene, task, seed, action sequence) replays are bit-identical.
    """

    def __init__(self, scene: SceneSpec, task: TaskSpec):
        scene.object(task.target_object_id)  # each raises SceneError for an unknown id
        scene.container(task.target_container_id)
        self.scene = scene
        self.task = task

    def reset(self, seed: int) -> SimState:
        jitter_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        poses = {}
        for obj in self.scene.objects:
            poses[obj.id] = self._jitter_position(obj, jitter_rng)
        ee = np.eye(4)
        ee[:3, 3] = EE_HOME
        return SimState(ee_pose=ee, gripper=0.0, object_poses=poses, attached=None, step_count=0)

    def _jitter_position(self, obj: ObjectSpec, rng) -> np.ndarray:
        for _ in range(JITTER_RESAMPLE_LIMIT):
            # uniform in the xy disc; objects stay at their spec height
            ang = rng.uniform(0.0, 2.0 * math.pi)
            rad = JITTER_RADIUS * math.sqrt(rng.uniform())
            p = obj.position + np.array([rad * math.cos(ang), rad * math.sin(ang), 0.0])
            if self.scene._inside(p):
                return p
        raise SceneError(f"could not place object {obj.id!r} inside table bounds")

    def step(self, state: SimState, action: RelativeAction) -> SimState:
        if state.step_count >= self.task.horizon_limit:
            raise EpisodeTerminated(f"horizon limit {self.task.horizon_limit} reached")
        dp = _clip_norm(action.dp, MAX_DP)
        dtheta = _clip_norm(action.dtheta, MAX_DTHETA)

        ee = geo.check_se3(state.ee_pose) @ geo.pose_to_se3(np.concatenate([dp, dtheta]))
        ee[:3, 3] = np.clip(ee[:3, 3], self.scene.table_lo, self.scene.table_hi)

        g_cmd = action.gripper  # RelativeAction holds it in [0, 1]
        delta = max(-GRIPPER_RATE, min(GRIPPER_RATE, g_cmd - state.gripper))
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
                d = geo.norm(poses[obj.id] - ee_p)
                if d <= GRASP_RADIUS and (best_d is None or d < best_d):
                    best, best_d = obj.id, d
            if best is not None:
                attached = best
                offset = ee_r.T @ (poses[best] - ee_p)
        if attached is not None:
            poses[attached] = ee_p + ee_r @ offset

        latch = state.latch_visited
        if self.task.family == "long" and not latch:
            latch = geo.norm(ee_p - self.task.latch_center) <= LATCH_RADIUS

        return SimState(
            ee_pose=ee,
            gripper=g_new,
            object_poses=poses,
            attached=attached,
            step_count=state.step_count + 1,
            grasp_offset=offset,
            latch_visited=latch,
            gripper_cmd=g_cmd,
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
        dist = geo.norm(state.object_poses[task.target_object_id] - container.center)
        return dist <= ACCEPT_RADIUS


# --- episode driver ---


def drive(controller, scene: SceneSpec, task: TaskSpec, seeds: list, gripper_latency: int):
    """The one episode loop: episode i starts from reset(seeds[i]), and all
    step in lockstep; returns (success flags, episodes) in seed order, where
    episodes[i] lists episode i's states from its reset to its last state.

    Each round, controller.actions(live episodes, their states) answers one
    (dp, dtheta, gripper) command per live episode and each steps once, so
    live states share a step count; an episode leaves on success or at the
    horizon. Gripper commands execute gripper_latency steps late, the first
    ones open (0.0): the delay models the actuator, whatever the controller.
    Controllers only plan; recording and evaluation read the episodes after.
    """
    sim = Simulator(scene, task)
    episodes = [[sim.reset(seed)] for seed in seeds]
    grips = [deque([0.0] * gripper_latency) for _ in seeds]
    success, live = [False] * len(seeds), list(range(len(seeds)))
    while live:
        commands = controller.actions(live, [episodes[i][-1] for i in live])
        still = []
        for i, (dp, dtheta, grip) in zip(live, commands):
            grips[i].append(grip)
            state = sim.step(episodes[i][-1], RelativeAction(dp, dtheta, grips[i].popleft()))
            episodes[i].append(state)
            success[i] = sim.check_success(state)
            if not success[i] and state.step_count < task.horizon_limit:
                still.append(i)
        live = still
    return success, episodes


# --- scripted expert ---


# Waypoint heights over the object or container and arrival tolerances, in meters.
APPROACH_HEIGHT = 0.08
LIFT_HEIGHT = 0.10
PLACE_HEIGHT = 0.02
RETREAT_HEIGHT = 0.12
WAYPOINT_TOL = 0.01
DESCEND_TOL = 0.008
GRASP_TILT = 0.25  # grasp-orientation pitch, radians
# Brisk pacing keeps gripper flips tightly correlated with coarse scene
# geometry (most training windows straddle a flip); the final descent is
# slower so re-prediction happens close to the grasp, where open-loop
# drift matters most.
EXPERT_MAX_STEP = 0.05
EXPERT_MAX_ROT_STEP = 0.2
DESCEND_STEP = 0.015

_PHASES = ("latch", "approach", "descend", "close", "lift", "traverse", "place", "open", "retreat")
_UP = np.array([0.0, 0.0, 1.0])


def _facing(pitch: float, point: np.ndarray) -> np.ndarray:
    # yaw follows the point's bearing (halved to stay well inside the chart),
    # plus a fixed pitch: observation-coupled rotation.
    return geo.euler_to_matrix([0.0, pitch, 0.5 * math.atan2(point[1], point[0])])


class ScriptedExpert:
    """Waypoint finite-state controller for one pick-and-place episode.

    Each phase has one goal, a waypoint, an orientation and a gripper
    command, defined in _goal; the phase's arrival test reads that goal's
    waypoint (latch, close and open wait on a simulator event instead).
    Every command reacts to the current state immediately, paced by the
    module's waypoint constants. Recording drives the expert through
    `drive`, whose gripper latency (datasets.RECORD_GRIPPER_LATENCY) is the
    timing residual a learned decoder has to absorb.
    """

    def __init__(self, scene: SceneSpec, task: TaskSpec):
        # An unknown target id raises SceneError here. The lift height is
        # absolute, over the object's rest height: the live object position
        # rises with the gripper while attached.
        self._lift_z = scene.object(task.target_object_id).position[2] + LIFT_HEIGHT
        self._cont_c = scene.container(task.target_container_id).center
        self.task = task
        self._phase = 0 if task.family == "long" else 1

    def action(self, state: SimState) -> RelativeAction:
        wp, facing, g, arrived = self._goal(state)
        if arrived:
            self._phase += 1
            wp, facing, g, _ = self._goal(state)
        ee_p = state.ee_pose[:3, 3]
        ee_r = state.ee_pose[:3, :3]
        goal_r = np.eye(3) if facing is None else _facing(*facing)
        slow = _PHASES[self._phase] in ("descend", "close", "place")
        speed = DESCEND_STEP if slow else EXPERT_MAX_STEP
        dp = ee_r.T @ _clip_norm(wp - ee_p, speed)
        dtheta = _clip_norm(geo.log_so3(ee_r.T @ goal_r), EXPERT_MAX_ROT_STEP)
        return RelativeAction(dp, dtheta, g)

    def _goal(self, state: SimState):
        """The current phase's (waypoint, facing, gripper command, arrived).

        facing is the (pitch, point) of _facing, or None for a level gripper.
        """
        phase, target = _PHASES[self._phase], self.task.target_object_id
        ee_p = state.ee_pose[:3, 3]
        obj_p = state.object_poses[target]
        grasp, carry = (GRASP_TILT, obj_p), (-0.6 * GRASP_TILT, self._cont_c)
        if phase == "latch":
            return self.task.latch_center, None, 0.0, state.latch_visited
        if phase == "approach":
            wp = obj_p + APPROACH_HEIGHT * _UP
            return wp, grasp, 0.0, geo.norm(ee_p - wp) <= WAYPOINT_TOL
        if phase == "descend":
            return obj_p, grasp, 0.0, geo.norm(ee_p - obj_p) <= DESCEND_TOL
        if phase == "close":
            return obj_p, grasp, 1.0, state.attached == target
        if phase == "lift":
            wp = np.array([ee_p[0], ee_p[1], self._lift_z])
            return wp, grasp, 1.0, ee_p[2] >= wp[2] - WAYPOINT_TOL
        if phase == "traverse":
            wp = self._cont_c + LIFT_HEIGHT * _UP
            return wp, carry, 1.0, geo.norm(ee_p - wp) <= WAYPOINT_TOL
        if phase == "retreat":
            return self._cont_c + RETREAT_HEIGHT * _UP, None, 0.0, False
        place = self._cont_c + PLACE_HEIGHT * _UP
        if phase == "place":
            return place, carry, 1.0, geo.norm(ee_p - place) <= DESCEND_TOL
        return place, carry, 0.0, state.attached is None and state.gripper < 0.5  # open


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
        task = TaskSpec("block_red", "bin_a", family="long", latch_center=[-0.05, 0.20, 0.10])
    else:
        raise SceneError(f"unknown task family {family!r}")
    return scene, task

