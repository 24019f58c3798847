"""Demonstration recording, horizon windowing, supervision synthesis, file I/O.

A demonstration is a sequence of per-timestep records; the last record is the
final state with a zero rigid action and held gripper command, so every
record carries the same fields. It is also the stationary pad that
make_windows repeats past the end of the episode, so read_dataset rejects a
final record that moves and a gripper_cmd that differs from the action's.
Features are recorded with metric depth only; Policy.encode re-expresses it
per variant (relative / none are derived exactly from the metric values).

The `demos_v1` file format is JSON lines: a header object, then one object
per (demo, timestep). Floats are written in Python's shortest round-trip
decimal form, so read(write(x)) reproduces every numeric field exactly and
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import geometry as geo
from . import simworld as sw
from .seeding import derive_seed

log = logging.getLogger(__name__)

DEMOS_SCHEMA = "demos_v1"

HORIZON_DEFAULT = 8

# Supervision target kinds, poorest to richest.
TARGET_KINDS = ("no_traj", "aux_traj", "traj_2d", "traj_3d_pos", "traj_world_se3", "traj_camera_se3")
SE3_TARGETS = ("aux_traj", "traj_world_se3", "traj_camera_se3")
ROTATION_PARAMS = ("axis_angle", "quaternion", "euler")
DEPTH_MODES = ("metric", "relative", "none")


class DatasetError(ValueError):
    """Recording or supervision-synthesis failure."""


class DatasetFormatError(ValueError):
    """demos_v1 parse failure; message names the offending line."""


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

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class DemoDataset:
    """Demonstrations plus the context needed to replay and supervise them."""

    scene: sw.SceneSpec
    task: sw.TaskSpec
    camera: sw.CameraModel
    sim_config: sw.SimConfig
    expert_config: sw.ExpertConfig
    root_seed: int
    demos: list = field(default_factory=list)
    n_discarded: int = 0

    def config_hash(self) -> str:
        doc = {
            "scene": sw.scene_to_json(self.scene, {"task": self.task}, self.camera),
            "sim": asdict(self.sim_config),
            "expert": asdict(self.expert_config),
            "root_seed": self.root_seed,
            "n": len(self.demos),
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def record_demonstrations(
    scene: sw.SceneSpec,
    task: sw.TaskSpec,
    n: int,
    seed: int,
    expert_cfg: sw.ExpertConfig | None = None,
    sim_cfg: sw.SimConfig | None = None,
    camera: sw.CameraModel | None = None,
) -> DemoDataset:
    """Record n successful expert episodes.

    Failed episodes are re-seeded and discarded. The attempt budget allows a
    20% failure rate; exhausting it raises DatasetError (the configuration,
    not the draw, is at fault at that point).
    """
    if n <= 0:
        raise DatasetError("n must be > 0")
    expert_cfg = expert_cfg or sw.ExpertConfig()
    sim_cfg = sim_cfg or sw.SimConfig()
    camera = camera or sw.default_camera()
    sim = sw.Simulator(scene, task, sim_cfg)
    expert = sw.ScriptedExpert(scene, task, expert_cfg)
    t_wc = geo.se3_inverse(camera.extrinsic)

    dataset = DemoDataset(scene, task, camera, sim_cfg, expert_cfg, seed)
    max_attempts = max(10, math.ceil(n / 0.8) + 2)
    attempt = 0
    while len(dataset.demos) < n:
        if attempt >= max_attempts:
            dataset.n_discarded = attempt - len(dataset.demos)
            raise DatasetError(
                f"expert failure rate above 20%: {len(dataset.demos)} successes in {attempt} attempts"
            )
        ep_seed = derive_seed(seed, "episode", attempt)
        attempt += 1
        demo = _record_episode(sim, expert, camera, t_wc, ep_seed)
        if demo is None:
            continue
        dataset.demos.append(demo)
    dataset.n_discarded = attempt - len(dataset.demos)
    if dataset.n_discarded:
        log.info("discarded %d failed expert episodes", dataset.n_discarded)
    return dataset


def _record_episode(sim, expert, camera, t_wc, ep_seed):
    state = sim.reset(ep_seed)
    expert.reset()
    states = [state]
    commands = []
    for _ in range(sim.task.horizon_limit):
        cmd = expert.action(state)
        state = sim.step(state, cmd)
        states.append(state)
        commands.append(cmd)
        if sim.check_success(state):
            break
    else:
        return None

    steps = []
    for t, s in enumerate(states):
        if t < len(commands):
            rigid = geo.relative_action(s.ee_pose, states[t + 1].ee_pose)
        else:
            rigid = geo.RelativeAction.zero()
        g_cmd = commands[min(t, len(commands) - 1)].gripper  # the final record holds the last
        steps.append(
            StepRecord(
                features=sw.featurize(s, sim.task, sim.scene, camera),
                ee_pose_world=s.ee_pose.copy(),
                ee_pose_cam=t_wc @ s.ee_pose,
                state_vec=s.state_vec(),
                action=geo.RelativeAction(rigid.dp, rigid.dtheta, g_cmd),
            )
        )
    return Demonstration(steps=steps, seed=ep_seed)


@dataclass
class TrainingWindow:
    """Features and state at t plus horizon-H supervision targets.

    target_poses_cam rows are camera-frame pose vectors [p, theta] for steps
    t+1 .. t+H; target_actions rows are [dp, dtheta, gripper] for steps
    t .. t+H-1. Past the end of the episode the final record repeats: its
    pose, a zero rigid action and the held gripper (n_padded counts the pose
    rows that repeat it).
    """

    features: sw.ObservationFeatures
    state_vec: np.ndarray
    target_poses_cam: np.ndarray  # (H, 6)
    target_actions: np.ndarray  # (H, 7)
    n_padded: int
    t: int


def make_windows(demo: Demonstration, horizon: int = HORIZON_DEFAULT) -> list:
    """One window per timestep, each a slice of one per-demo table.

    The table holds every record's camera-frame pose and [dp, dtheta,
    gripper] row, then `horizon` copies of the final record, which is the
    stationary pad (read_dataset checks that it does not move and that its
    gripper is the recorded command). Windows share their arrays with each
    other and with the demo's records: they are read-only.
    """
    if horizon < 1:
        raise DatasetError("horizon must be >= 1")
    if not demo.steps:
        return []
    last = len(demo.steps) - 1
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
            n_padded=max(0, t + horizon - last),
            t=t,
        )
        for t, s in enumerate(demo.steps)
    ]


def make_supervision(window: TrainingWindow, variant: SupervisionVariant, cam: sw.CameraModel):
    """Per-step target rows (H, variant.target_dim) for a variant.

    Chart violations (axis-angle at the boundary, Euler gimbal band,
    keypoints behind the camera) raise DatasetError naming the step.
    """
    horizon = window.target_poses_cam.shape[0]
    targets = np.zeros((horizon, variant.target_dim))
    if variant.target == "no_traj":
        return targets

    for h in range(horizon):
        pose_cam = window.target_poses_cam[h]
        if variant.target == "traj_3d_pos":
            targets[h] = pose_cam[:3]
            continue
        if variant.target == "traj_2d":
            try:
                uv, _ = geo.project_pinhole(pose_cam[:3], cam.intrinsic)
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


def _rotation_block(rot: np.ndarray, rotation_param: str, h: int) -> np.ndarray:
    if rotation_param == "axis_angle":
        theta = geo.log_so3(rot)
        if np.linalg.norm(theta) >= math.pi - geo.CHART_MARGIN:
            raise DatasetError(f"step {h}: axis-angle target at the chart boundary")
        return theta
    if rotation_param == "quaternion":
        return geo.matrix_to_quat(rot)
    try:
        return geo.matrix_to_euler(rot)
    except geo.GimbalLockError as e:
        raise DatasetError(f"step {h}: Euler target in the gimbal-lock band") from e


# --- demos_v1 serialization ---


def _features_doc(f: sw.ObservationFeatures) -> dict:
    return {
        "lang": f.lang.tolist(),
        "visual": f.visual.tolist(),
        "depth": f.depth.tolist(),
        "depth_mode": "metric",
        "token_dim": f.token_dim,
    }


def _features_from_doc(doc: dict) -> sw.ObservationFeatures:
    if doc["depth_mode"] != "metric":  # read_dataset prefixes the line number
        raise ValueError(f"depth_mode {doc['depth_mode']!r} is not 'metric'")
    return sw.ObservationFeatures(
        lang=np.asarray(doc["lang"], dtype=float),
        visual=np.asarray(doc["visual"], dtype=float),
        depth=np.asarray(doc["depth"], dtype=float),
    )


def write_dataset(path: str, dataset: DemoDataset) -> None:
    header = {
        "schema": DEMOS_SCHEMA,
        "scene": sw.scene_to_json(dataset.scene, {"task": dataset.task}, dataset.camera),
        "sim_config": asdict(dataset.sim_config),
        "expert_config": asdict(dataset.expert_config),
        "root_seed": dataset.root_seed,
        "episode_seeds": [d.seed for d in dataset.demos],
        "n_demos": len(dataset.demos),
        "n_discarded": dataset.n_discarded,
        "config_hash": dataset.config_hash(),
    }
    with open(path, "w") as f:
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for i, demo in enumerate(dataset.demos):
            for t, s in enumerate(demo.steps):
                row = {
                    "demo": i,
                    "t": t,
                    "features": _features_doc(s.features),
                    "pose_world": s.ee_pose_world.reshape(-1).tolist(),
                    "pose_cam": s.ee_pose_cam.reshape(-1).tolist(),
                    "state": s.state_vec.tolist(),
                    "action": {
                        "dp": s.action.dp.tolist(),
                        "dtheta": s.action.dtheta.tolist(),
                        "gripper": s.action.gripper,
                    },
                    "gripper_cmd": s.action.gripper,
                }
                f.write(json.dumps(row, sort_keys=True) + "\n")


def read_dataset(path: str) -> DemoDataset:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise DatasetFormatError("line 1: empty file")

    def parse(i, text):
        try:
            return json.loads(text)
        except json.JSONDecodeError as e:
            raise DatasetFormatError(f"line {i + 1}: {e.msg}") from e

    header = parse(0, lines[0])
    if header.get("schema") != DEMOS_SCHEMA:
        raise DatasetFormatError(f"line 1: expected schema {DEMOS_SCHEMA!r}, got {header.get('schema')!r}")
    scene, tasks, camera = sw.scene_from_json(header["scene"])
    dataset = DemoDataset(
        scene=scene,
        task=tasks["task"],
        camera=camera,
        sim_config=sw.SimConfig(**header["sim_config"]),
        expert_config=sw.ExpertConfig(**header["expert_config"]),
        root_seed=header["root_seed"],
        n_discarded=header.get("n_discarded", 0),
    )
    seeds = header["episode_seeds"]
    demos = [Demonstration(steps=[], seed=s) for s in seeds]
    final_line = {}  # demo index -> line of its latest record
    for i, text in enumerate(lines[1:], start=1):
        row = parse(i, text)
        try:
            demo = demos[row["demo"]]
            if row["t"] != len(demo.steps):
                raise DatasetFormatError(f"line {i + 1}: timestep {row['t']} out of order")
            if row["gripper_cmd"] != row["action"]["gripper"]:
                raise DatasetFormatError(f"line {i + 1}: gripper_cmd differs from action.gripper")
            demo.steps.append(
                StepRecord(
                    features=_features_from_doc(row["features"]),
                    ee_pose_world=np.asarray(row["pose_world"], dtype=float).reshape(4, 4),
                    ee_pose_cam=np.asarray(row["pose_cam"], dtype=float).reshape(4, 4),
                    state_vec=np.asarray(row["state"], dtype=float),
                    action=geo.RelativeAction(
                        row["action"]["dp"], row["action"]["dtheta"], row["action"]["gripper"]
                    ),
                )
            )
            final_line[row["demo"]] = i + 1
        except DatasetFormatError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as e:
            raise DatasetFormatError(f"line {i + 1}: {e}") from e
    for d, line in final_line.items():
        final = demos[d].steps[-1].action
        if np.any(final.dp) or np.any(final.dtheta):
            raise DatasetFormatError(f"line {line}: final record of demo {d} has a non-zero rigid action")
    if header["n_demos"] != len(demos):
        raise DatasetFormatError("line 1: n_demos does not match body")
    dataset.demos = demos
    return dataset
