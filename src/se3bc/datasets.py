"""Demonstration recording, horizon windowing and supervision synthesis.

Demos are scripted-expert episodes of sw.drive, the loop that also evaluates
policies: each demo is built from the states sw.drive returns for its episode,
and a record's gripper label is the command its step executed.
A demonstration is a sequence of per-timestep records; the last record is the
final state with a zero rigid action and held gripper command, so every
record carries the same fields. It is also the stationary pad that
make_windows repeats past the end of the episode (test_per_step_invariants
checks that it does not move and that it holds the gripper command).
Features are recorded with metric depth only; Policy.encode re-expresses it
per variant (relative / none are derived exactly from the metric values).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import simworld as sw
from .seeding import derive_seed

log = logging.getLogger(__name__)

HORIZON_DEFAULT = 8
RECORD_GRIPPER_LATENCY = 1  # steps a recorded gripper command executes late

# Supervision target kinds, poorest to richest.
TARGET_KINDS = ("no_traj", "aux_traj", "traj_2d", "traj_3d_pos", "traj_world_se3", "traj_camera_se3")
SE3_TARGETS = ("aux_traj", "traj_world_se3", "traj_camera_se3")
ROTATION_PARAMS = ("axis_angle", "quaternion", "euler")
DEPTH_MODES = ("metric", "relative", "none")


class DatasetError(ValueError):
    """Recording or supervision-synthesis failure."""


@dataclass(frozen=True)
class SupervisionVariant:
    """Which geometric target supervises the predictor, and how.

    rotation_param applies only to the SE(3)-valued targets; depth_mode
    selects how Policy.encode reads the metric depth block.
    """

    target: str = "traj_camera_se3"
    rotation_param: str = "axis_angle"
    depth_mode: str = "metric"

    def __post_init__(self):
        if self.target not in TARGET_KINDS:
            raise DatasetError(f"unknown supervision target {self.target!r}")
        if self.rotation_param not in ROTATION_PARAMS:
            raise DatasetError(f"unknown rotation parameterization {self.rotation_param!r}")
        if self.depth_mode not in DEPTH_MODES:
            raise DatasetError(f"unknown depth mode {self.depth_mode!r}")
        if self.target not in SE3_TARGETS and self.rotation_param != "axis_angle":
            raise DatasetError(
                f"rotation_param {self.rotation_param!r} is meaningful only for SE(3) targets"
            )

    @property
    def target_dim(self) -> int:
        if self.target == "no_traj":
            return 0
        if self.target == "traj_2d":
            return 2
        if self.target == "traj_3d_pos":
            return 3
        return {"axis_angle": 6, "quaternion": 7, "euler": 6}[self.rotation_param]

    @property
    def uses_predictor(self) -> bool:
        return self.target != "no_traj"

    @property
    def decoder_sees_trajectory(self) -> bool:
        """True when h_traj (not h3d) conditions the action decoder."""
        return self.target in ("traj_2d", "traj_3d_pos", "traj_world_se3", "traj_camera_se3")


@dataclass
class StepRecord:
    features: sw.ObservationFeatures
    ee_pose_world: np.ndarray
    ee_pose_cam: np.ndarray
    state_vec: np.ndarray  # [p, theta, gripper]
    action: geo.RelativeAction  # executed rigid motion + commanded gripper


@dataclass
class Demonstration:
    steps: list
    seed: int


@dataclass
class DemoDataset:
    """Demonstrations plus the scene and camera they were recorded in."""

    scene: sw.SceneSpec
    camera: sw.CameraModel
    demos: list = field(init=False, default_factory=list)
    n_discarded: int = field(init=False, default=0)


def record_demonstrations(
    scene: sw.SceneSpec,
    task: sw.TaskSpec,
    n: int,
    seed: int,
    camera: sw.CameraModel | None = None,
) -> DemoDataset:
    """Record n successful expert episodes.

    Attempt a resets with derive_seed(seed, "episode", a). Attempts run
    through sw.drive in lockstep batches of one per demo still missing, with
    gripper commands RECORD_GRIPPER_LATENCY steps late; the demos are built
    from the states sw.drive returns for the first n successes in attempt
    order. The attempt budget allows a 20% failure rate; exhausting it
    raises DatasetError (the configuration, not the draw, is at fault).
    """
    if n <= 0:
        raise DatasetError("n must be > 0")
    camera = camera or sw.default_camera()
    dataset = DemoDataset(scene, camera)
    max_attempts = max(10, math.ceil(n / 0.8) + 2)
    attempt = 0
    while len(dataset.demos) < n:
        if attempt >= max_attempts:
            raise DatasetError(
                f"expert failure rate above 20%: {len(dataset.demos)} successes in {attempt} attempts"
            )
        batch = range(attempt, min(attempt + n - len(dataset.demos), max_attempts))
        seeds = [derive_seed(seed, "episode", a) for a in batch]
        attempt += len(seeds)
        success, episodes = sw.drive(_Experts(scene, task, len(seeds)), scene, task, seeds,
                                     RECORD_GRIPPER_LATENCY)
        for ep_seed, ok, states in zip(seeds, success, episodes):
            if ok:
                dataset.demos.append(_demonstration(states, task, scene, camera, ep_seed))
    dataset.n_discarded = attempt - len(dataset.demos)
    if dataset.n_discarded:
        log.info("discarded %d failed expert episodes", dataset.n_discarded)
    return dataset


class _Experts:
    """sw.drive's controller for a recording batch: one expert per episode."""

    def __init__(self, scene: sw.SceneSpec, task: sw.TaskSpec, episodes: int):
        self._experts = [sw.ScriptedExpert(scene, task) for _ in range(episodes)]

    def actions(self, episodes: list, states: list) -> list:
        cmds = [self._experts[i].action(state) for i, state in zip(episodes, states)]
        return [(cmd.dp, cmd.dtheta, cmd.gripper) for cmd in cmds]


def _demonstration(states, task, scene, camera, ep_seed):
    """The records of an episode's states, each with the step out of it."""
    steps, last = [], len(states) - 1
    for t, s in enumerate(states):
        if t < last:
            rigid = geo.relative_action(s.ee_pose, states[t + 1].ee_pose)
        else:
            rigid = geo.RelativeAction.zero()
        g_cmd = states[min(t + 1, last)].gripper_cmd  # the final record holds the last
        steps.append(StepRecord(
            features=sw.featurize(s, task, scene, camera),
            ee_pose_world=s.ee_pose.copy(),
            ee_pose_cam=camera.t_wc @ s.ee_pose,
            state_vec=s.state_vec(),
            action=geo.RelativeAction(rigid.dp, rigid.dtheta, g_cmd),
        ))
    return Demonstration(steps=steps, seed=ep_seed)


@dataclass
class TrainingWindow:
    """Features and state at t plus horizon-H supervision targets.

    target_poses_cam rows are camera-frame pose vectors [p, theta] for steps
    t+1 .. t+H; target_actions rows are [dp, dtheta, gripper] for steps
    t .. t+H-1. Past the end of the episode the final record repeats: its
    pose, a zero rigid action and the held gripper.
    """

    features: sw.ObservationFeatures
    state_vec: np.ndarray
    target_poses_cam: np.ndarray  # (H, 6)
    target_actions: np.ndarray  # (H, 7)


def make_windows(demo: Demonstration, horizon: int) -> list:
    """One window per timestep, each a slice of one per-demo table.

    The table holds every record's camera-frame pose and [dp, dtheta,
    gripper] row, then `horizon` copies of the final record, which is the
    stationary pad (test_per_step_invariants checks that it does not move and
    that it holds the gripper command). Windows share their arrays with each
    other and with the demo's records: they are read-only.
    """
    if horizon < 1:
        raise DatasetError("horizon must be >= 1")
    if not demo.steps:
        return []
    pad = ((0, horizon), (0, 0))
    poses = np.pad([geo.se3_to_pose(s.ee_pose_cam) for s in demo.steps], pad, mode="edge")
    acts = np.pad([[*s.action.dp, *s.action.dtheta, s.action.gripper] for s in demo.steps], pad,
                  mode="edge")
    poses.flags.writeable = acts.flags.writeable = False  # every window is a view of these
    return [
        TrainingWindow(
            features=s.features,
            state_vec=s.state_vec,
            target_poses_cam=poses[t + 1 : t + 1 + horizon],
            target_actions=acts[t : t + horizon],
        )
        for t, s in enumerate(demo.steps)
    ]


def pose_targets(poses: np.ndarray, variant: SupervisionVariant, cam: sw.CameraModel) -> np.ndarray:
    """Target rows (N, variant.target_dim) for camera-frame pose rows [p, theta].

    Each row is converted on its own, so a row's targets do not depend on
    the rows beside it. Chart violations (axis-angle at the boundary, Euler
    gimbal band, keypoints behind the camera) raise DatasetError naming the
    row as the step.
    """
    targets = np.zeros((len(poses), variant.target_dim))
    if variant.target == "no_traj":
        return targets

    for h, pose_cam in enumerate(poses):
        if variant.target == "traj_3d_pos":
            targets[h] = pose_cam[:3]
            continue
        if variant.target == "traj_2d":
            try:
                uv = geo.project_pinhole(pose_cam[:3], cam.intrinsic)
            except geo.BehindCameraError as e:
                raise DatasetError(f"step {h}: target behind camera") from e
            targets[h] = [uv[0] / cam.intrinsic.width, uv[1] / cam.intrinsic.height]
            continue
        if variant.target == "traj_world_se3":
            t_world = geo.camera_to_world(geo.pose_to_se3(pose_cam), cam.extrinsic)
            pos, rot = t_world[:3, 3], t_world[:3, :3]
        else:  # aux_traj, traj_camera_se3: camera frame
            pos, rot = pose_cam[:3], geo.exp_so3(pose_cam[3:])
        targets[h] = np.concatenate([pos, _rotation_block(rot, variant.rotation_param, h)])
    return targets


# Rotation matrix to the chart of each rotation_param; each validates the matrix.
_FROM_MATRIX = {"axis_angle": geo.log_so3, "quaternion": geo.matrix_to_quat,
                "euler": geo.matrix_to_euler}


def _rotation_block(rot: np.ndarray, rotation_param: str, h: int) -> np.ndarray:
    try:
        block = _FROM_MATRIX[rotation_param](rot)
    except geo.GimbalLockError as e:
        raise DatasetError(f"step {h}: Euler target in the gimbal-lock band") from e
    if rotation_param == "axis_angle" and geo.at_chart_boundary(block):
        raise DatasetError(f"step {h}: axis-angle target at the chart boundary")
    return block

