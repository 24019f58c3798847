"""Training, closed-loop evaluation, baselines, studies, and reports.

Evaluation has one seeded episode loop, `_drive`, and two controllers it
steps: `_Learned` (the policy's own decoder, behind `rollout`) and
`_ClosedForm` (the hardcoded geometric pipeline, behind
`closed_form_baseline`). A controller answers `reset(episode)` at the start
of an episode, `action(state)` before every simulator step, and
`finish(state)` with the final state. Both execute in chunks: predict H
steps, execute them, predict again (the chunked execution of ACT). Paired
comparisons consume identical episode seeds and identical perturbation
draws, both derived from the root seed by counter-based splitting.

A study is a list of (cell, seed) jobs, each one call of `_study_job`: record
that seed's demos, train the cell, evaluate it, return its rows. Recording is
seeded, so the cells of a seed train on the same demos without sharing them.
`run_study` runs the jobs in min(usable CPUs, jobs) forked workers, longest
first. Each worker pins the OpenBLAS numpy loaded to one thread and exits
once its parent is gone. With one worker, or with no OpenBLAS to pin, the
jobs run in the calling process. Rows come back in serial (seed, cell) order.
"""

from __future__ import annotations

import copy
import csv
import ctypes
import glob
import json
import logging
import math
import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import datasets as ds
from . import geometry as geo
from . import policy as pol
from . import simworld as sw
from . import tensornet as tn
from .seeding import derive_seed

log = logging.getLogger(__name__)

WILSON_Z = 1.95996


class HarnessError(ValueError):
    pass


class TrainDiverged(RuntimeError):
    """Numeric fault during training, naming the step it happened at."""


def wilson_interval(k: int, n: int):
    """95% Wilson score interval for k successes in n trials, clamped to [0, 1]."""
    if n < 1:
        raise HarnessError("wilson_interval needs n >= 1")
    if not 0 <= k <= n:
        raise HarnessError(f"need 0 <= k <= n, got k={k}, n={n}")
    p, z = k / n, WILSON_Z
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# --- training ---


@dataclass
class TrainConfig:
    """One behavior-cloning run: AdamW at tensornet's ADAMW_LR peak lr and its
    fixed betas, eps and weight decay, warmed up linearly over warmup_steps,
    then cosine-decayed to zero at `steps`."""

    policy: pol.PolicyConfig
    steps: int = 3000
    batch_size: int = 16
    warmup_steps: int = 100
    seed: int = 0
    log_every: int = 100

    def __post_init__(self):
        if self.steps != 0 and self.steps <= self.warmup_steps:
            raise HarnessError("steps must exceed warmup_steps")
        if self.batch_size < 1:
            raise HarnessError("batch_size must be >= 1")


def train(dataset: ds.DemoDataset, cfg: TrainConfig):
    """Behavior-clone a policy on a demonstration dataset.

    Returns (policy, curve) where curve rows are (step, loss_traj, loss_act,
    loss_total, lr). Deterministic per cfg.seed. On a numeric fault
    TrainDiverged is raised, naming the step.
    """
    policy_cfg = replace(cfg.policy, seed=derive_seed(cfg.seed, "init"))
    policy = pol.build_variant(policy_cfg)
    variant = policy_cfg.variant

    windows = [w for demo in dataset.demos for w in ds.make_windows(demo, policy_cfg.horizon)]
    if cfg.steps > 0 and not windows:
        raise HarnessError("dataset has no training windows")
    full = pol.collate(windows, variant, dataset.camera, dataset.scene) if windows else None

    opt = tn.OptimizerState(tn.OptimizerConfig(warmup_steps=cfg.warmup_steps,
                                               total_steps=max(cfg.steps, 1)))
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
    order = np.array([], dtype=int)
    curve = []
    n = len(windows)

    for step in range(1, cfg.steps + 1):
        while order.size < cfg.batch_size:
            order = np.concatenate([order, shuffle_rng.permutation(n)])
        idx, order = order[: cfg.batch_size], order[cfg.batch_size :]
        batch = {k: v[idx] for k, v in full.items()}
        try:
            with tn.GradientTape() as tape:
                total, traj, act = policy.loss(batch)
            grads = policy.params.grads_by_name(tn.backward(tape, total))
            tn.adamw_step(policy.params, grads, opt)
        except tn.NumericFaultError as e:
            raise TrainDiverged(f"numeric fault at step {step}: {e}") from e
        if step == 1 or step % cfg.log_every == 0 or step == cfg.steps:
            row = (step, float(traj.data), float(act.data), float(total.data),
                   tn.lr_at(opt.config, step))
            curve.append(row)
            log.debug("step %d traj %.4f act %.4f total %.4f lr %.2e", *row)

    return policy, curve


# --- evaluation ---


@dataclass
class EvalReport:
    successes: int
    episodes: int
    success_rate: float
    wilson_lo: float
    wilson_hi: float
    chart_violation_rate: float
    mean_traj_error: float | None
    episode_lengths: list = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


REPORT_COLUMNS = [
    "study", "cell", "seed",
    *(f.name for f in fields(EvalReport) if f.name != "episode_lengths"),
    "config_hash", "error",
]


def _report(successes: int, lengths: list, chart_violation_rate: float = 0.0,
            mean_traj_error: float | None = None) -> EvalReport:
    lo, hi = wilson_interval(successes, len(lengths))
    return EvalReport(
        successes=successes,
        episodes=len(lengths),
        success_rate=successes / len(lengths),
        wilson_lo=lo,
        wilson_hi=hi,
        chart_violation_rate=chart_violation_rate,
        mean_traj_error=mean_traj_error,
        episode_lengths=lengths,
    )


def _drive(controller, scene: sw.SceneSpec, task: sw.TaskSpec, episodes: int, seed: int):
    """The seeded episode loop; returns (successes, episode lengths).

    Episode i resets the simulator with derive_seed(seed, "episode", i), so
    every controller driven with the same seed meets the same initial scenes.
    The controller hears reset(i), then action(state) -> RelativeAction before
    every step, then finish(final state).
    """
    sim = sw.Simulator(scene, task)
    successes, lengths = 0, []
    for i in range(episodes):
        state = sim.reset(derive_seed(seed, "episode", i))
        controller.reset(i)
        success = False
        while not success and state.step_count < task.horizon_limit:
            state = sim.step(state, controller.action(state))
            success = sim.check_success(state)
        controller.finish(state)
        successes += int(success)
        lengths.append(state.step_count)
    return successes, lengths


def _tracks_camera_pose(policy: pol.Policy) -> bool:
    variant = policy.cfg.variant
    return variant.target == "traj_camera_se3" and variant.rotation_param == "axis_angle"


# --- perturbed-predictor protocol ---


# Noise injected at the predictor output: per position dimension (meters) and
# per axis-angle dimension (radians). The same draws corrupt both the learned
# decoder's conditioning stream and the hardcoded pipeline's poses. Gripper
# commands are executed PERTURB_GRIPPER_LATENCY steps late.
PERTURB_SIGMA_P = 0.005
PERTURB_SIGMA_THETA = math.radians(2.0)
PERTURB_GRIPPER_LATENCY = 2


def _perturbation(root_seed: int, episode: int, chunk: int, horizon: int):
    rng = np.random.default_rng(derive_seed(root_seed, "perturb", episode, chunk))
    eps = np.zeros((horizon, 6))
    eps[:, :3] = rng.normal(0.0, PERTURB_SIGMA_P, size=(horizon, 3))
    eps[:, 3:] = rng.normal(0.0, PERTURB_SIGMA_THETA, size=(horizon, 3))
    return eps


# --- learned decoder ---


class _Learned:
    """The policy's own decoder: predict an H-step chunk, execute it, repeat.

    Each prediction's tau rows count toward the chart-violation rate; a row
    violates when its axis-angle rotation (SE(3) targets only) reaches pi.
    For camera-frame axis-angle policies, tau is also scored against the
    camera-frame ee poses the episode then reached.

    With perturb=True, the pose-space noise eps is mapped into the hidden
    states through the linear head's pseudo-inverse, so head(h_traj + dh) =
    tau + eps: the decoder conditions on hidden states that decode to the
    same corrupted trajectory the hardcoded pipeline reads. The pseudo-inverse
    and dh are float64, but the policy rounds dh to float32 and computes in
    float32, so the equality holds to float32 roundoff only: on the desk
    policy, with |tau| up to 1.5, head(h_traj + dh) and tau + eps differ by
    up to 5e-7 per element. Gripper
    commands are additionally delayed by PERTURB_GRIPPER_LATENCY steps (the
    queue persists across chunks within an episode).
    """

    def __init__(self, policy: pol.Policy, scene, task, camera, perturb: bool, root_seed: int):
        self._tracks_tau = _tracks_camera_pose(policy)
        variant = policy.cfg.variant
        self._counts_chart = variant.rotation_param == "axis_angle" and variant.target_dim == 6
        if perturb:
            if not self._tracks_tau:
                raise HarnessError("perturbed protocol needs a camera-frame axis-angle policy")
            head_w = policy.params["pred.head.w"].data.astype(np.float64)  # (D, 6)
            self._head_pinv = np.linalg.pinv(head_w)  # (6, D)
        self.policy, self.scene, self.task, self.camera = policy, scene, task, camera
        self.perturb, self.root_seed = perturb, root_seed
        self.pred_rows = self.violating_rows = 0
        self.traj_err_sum, self.traj_err_n = 0.0, 0

    def reset(self, episode: int):
        self._episode, self._chunks = episode, 0
        self._rows = deque()
        self._grip_queue = deque([0.0] * (PERTURB_GRIPPER_LATENCY if self.perturb else 0))
        self._predicted = []  # (step the chunk was predicted at, tau)
        self._cam_poses = []  # camera-frame ee pose per step count, when tau is scored

    def action(self, state: sw.SimState) -> geo.RelativeAction:
        if self._tracks_tau:
            self._cam_poses.append(geo.se3_to_pose(self.camera.t_wc @ state.ee_pose))
        if not self._rows:
            self._predict(state)
        row = self._rows.popleft()
        return geo.RelativeAction(row[:3], row[3:6], 1.0 if row[6] > 0.5 else 0.0)

    def finish(self, state: sw.SimState):
        if self._tracks_tau:
            self._cam_poses.append(geo.se3_to_pose(self.camera.t_wc @ state.ee_pose))
        for t0, tau in self._predicted:
            for h in range(tau.shape[0]):
                idx = t0 + h + 1
                if idx < len(self._cam_poses):
                    self.traj_err_sum += float(np.abs(tau[h] - self._cam_poses[idx]).sum())
                    self.traj_err_n += 1

    def _predict(self, state: sw.SimState):
        features = sw.featurize(state, self.task, self.scene, self.camera)
        if self.perturb:
            out = self._perturbed_act(features, state.state_vec())
        else:
            out = self.policy.act(features, state.state_vec())
        if out.tau is not None:
            self.pred_rows += out.tau.shape[0]
            if self._counts_chart:
                self.violating_rows += int(np.sum(np.linalg.norm(out.tau[:, 3:6], axis=1) >= math.pi))
            if self._tracks_tau:
                self._predicted.append((state.step_count, out.tau))
        self._rows.extend(out.chunk)

    def _perturbed_act(self, features, state_vec) -> pol.PolicyOutput:
        eps = _perturbation(self.root_seed, self._episode, self._chunks, self.policy.cfg.horizon)
        self._chunks += 1
        out = self.policy.act(features, state_vec, h_noise=eps @ self._head_pinv)
        for row in out.chunk:
            self._grip_queue.append(row[6])
            row[6] = self._grip_queue.popleft()
        return out


def rollout(
    policy: pol.Policy,
    scene: sw.SceneSpec,
    task: sw.TaskSpec,
    episodes: int,
    seed: int,
    camera: sw.CameraModel | None = None,
    perturb: bool = False,
) -> EvalReport:
    """Closed-loop evaluation of the learned decoder.

    The policy predicts an H-step action chunk, the simulator executes all of
    it, and prediction repeats until success or the horizon limit. With
    perturb=True, the predictor output is corrupted by draws derived from
    seed, the same draws closed_form_baseline() uses (see _Learned). Episode seeds match
    closed_form_baseline()'s, so comparisons are paired.
    """
    learned = _Learned(policy, scene, task, camera or sw.default_camera(), perturb, seed)
    successes, lengths = _drive(learned, scene, task, episodes, seed)
    return _report(
        successes, lengths,
        chart_violation_rate=(learned.violating_rows / learned.pred_rows
                              if learned.pred_rows else 0.0),
        mean_traj_error=(learned.traj_err_sum / learned.traj_err_n
                         if learned.traj_err_n else None),
    )


# --- hardcoded geometric pipeline (the decoder ablation) ---


def _privileged_gripper(state: sw.SimState, scene: sw.SceneSpec, task: sw.TaskSpec,
                        prev: float) -> float:
    """Simulator-state gripper rule unavailable to the learned policy."""
    ee = state.ee_pose[:3, 3]
    cont = scene.container(task.target_container_id)
    if np.linalg.norm(ee - cont.center) <= sw.ACCEPT_RADIUS:
        return 0.0
    if np.linalg.norm(ee - state.object_poses[task.target_object_id]) <= sw.GRASP_RADIUS:
        return 1.0
    return prev


class _ClosedForm:
    """Execute camera-frame poses tau through closed-form geometry.

    tau comes from the policy's predictor or, with oracle_horizon set, from
    an oracle: a scripted expert kept in sync with the executed trajectory,
    copied and rolled forward in a noiseless shadow world. The optional
    perturbation is added to tau. Each pose row is lifted to the world frame
    via the known extrinsic and chained into relative actions with the exact
    recovery map. The gripper follows privileged simulator proximity at
    every step, delayed by PERTURB_GRIPPER_LATENCY steps when perturbed.
    """

    def __init__(self, policy: pol.Policy | None, scene, task, camera, perturb: bool,
                 root_seed: int, oracle_horizon: int | None):
        self.policy, self.scene, self.task, self.camera = policy, scene, task, camera
        self.perturb, self.root_seed = perturb, root_seed
        self._expert = None
        if oracle_horizon is not None:
            self._horizon = oracle_horizon
            self._shadow = sw.Simulator(scene, task)
            self._expert = sw.ScriptedExpert(scene, task, gripper_latency_steps=0)

    def reset(self, episode: int):
        self._episode, self._chunks = episode, 0
        self._moves = deque()
        self._grip_queue = deque([0.0] * (PERTURB_GRIPPER_LATENCY if self.perturb else 0))
        self._grip = 0.0
        if self._expert is not None:
            self._expert.reset()

    def action(self, state: sw.SimState) -> geo.RelativeAction:
        if self._expert is not None and state.step_count > 0:
            self._expert.action(state)  # advance the synced expert's phase
        if not self._moves:
            self._plan(state)
        move = self._moves.popleft()
        self._grip = _privileged_gripper(state, self.scene, self.task, self._grip)
        self._grip_queue.append(self._grip)
        return geo.RelativeAction(move.dp, move.dtheta, self._grip_queue.popleft())

    def finish(self, state: sw.SimState):
        pass

    def _plan(self, state: sw.SimState):
        if self._expert is not None:
            tau = self._lookahead(state)
        else:
            features = sw.featurize(state, self.task, self.scene, self.camera)
            tau = self.policy.act(features, state.state_vec()).tau
        if self.perturb:
            tau = tau + _perturbation(self.root_seed, self._episode, self._chunks, tau.shape[0])
        self._chunks += 1
        prev = state.ee_pose
        for row in tau:
            pose = geo.camera_to_world(geo.pose_to_se3(row), self.camera.extrinsic)
            self._moves.append(geo.relative_action(prev, pose))
            prev = pose

    def _lookahead(self, state: sw.SimState):
        expert = copy.deepcopy(self._expert)
        rows = np.zeros((self._horizon, 6))
        for h in range(self._horizon):
            if state.step_count < self.task.horizon_limit:
                state = self._shadow.step(state, expert.action(state))
            rows[h] = geo.se3_to_pose(self.camera.t_wc @ state.ee_pose)
        return rows


def closed_form_baseline(
    policy: pol.Policy | None,
    scene: sw.SceneSpec,
    task: sw.TaskSpec,
    episodes: int,
    seed: int,
    camera: sw.CameraModel | None = None,
    perturb: bool = False,
    oracle: bool = False,
) -> EvalReport:
    """Closed-loop evaluation of the hardcoded geometric pipeline.

    Ignores the learned decoder: the predicted camera-frame poses are lifted
    to the world and chained into relative actions, and the gripper comes
    from privileged simulator proximity (see _ClosedForm). With oracle=True
    the trajectory comes from an expert lookahead instead of the policy,
    over the policy's horizon if one is given. Episode seeds and perturbation
    draws match rollout()'s, so comparisons are paired.
    """
    if not oracle and (policy is None or not _tracks_camera_pose(policy)):
        raise HarnessError("closed-form baseline needs a camera-frame axis-angle policy")
    oracle_horizon = None
    if oracle:
        oracle_horizon = policy.cfg.horizon if policy is not None else ds.HORIZON_DEFAULT
    controller = _ClosedForm(policy, scene, task, camera or sw.default_camera(), perturb, seed,
                             oracle_horizon)
    return _report(*_drive(controller, scene, task, episodes, seed))


# --- studies ---


STUDY_KINDS = ("ladder", "rotation", "depth", "scaling", "closed_form")

LADDER_TARGETS = ("no_traj", "aux_traj", "traj_2d", "traj_3d_pos", "traj_world_se3", "traj_camera_se3")


@dataclass
class StudySpec:
    kind: str
    family: str = "goal"
    seeds: tuple = (0, 1, 2)
    episodes: int = 50
    demos: int = 50
    steps: int = 3000
    batch_size: int = 16
    root_seed: int = 0

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise HarnessError(f"unknown study kind {self.kind!r}")
        if not self.seeds:
            raise HarnessError("study needs at least one seed")


def study_cells(spec: StudySpec):
    """(cell name, variant, demo count) grid for a study kind."""
    base = ds.SupervisionVariant("traj_camera_se3")
    if spec.kind == "ladder":
        return [(t, ds.SupervisionVariant(t), spec.demos) for t in LADDER_TARGETS]
    if spec.kind == "rotation":
        return [
            (r, ds.SupervisionVariant("traj_camera_se3", rotation_param=r), spec.demos)
            for r in ds.ROTATION_PARAMS
        ]
    if spec.kind == "depth":
        return [
            (m, ds.SupervisionVariant("traj_camera_se3", depth_mode=m), spec.demos)
            for m in ds.DEPTH_MODES
        ]
    if spec.kind == "scaling":
        return [(f"demos_{n}", base, n) for n in (10, 25, 50)]
    # closed_form: one trained policy feeds three evaluation arms
    return [("closed_form", base, spec.demos)]


def run_study(spec: StudySpec):
    """Train and evaluate every (cell, seed) job; returns {"rows", "summary"}.

    Each job is one call of _study_job: it records its seed's demos, trains
    its cell and evaluates it. Recording is seeded, so every cell of a seed
    trains on the same demos (matched data), and all cells of a seed share
    their evaluation episode seeds (paired comparisons). A cell failure is
    recorded as an error row and the study continues.

    The jobs run in min(usable CPUs, jobs) worker processes, longest first,
    each worker pinned to one BLAS thread; with one worker, or when the BLAS
    numpy loaded cannot be pinned, they run in this process. Rows come back
    in serial (seed, cell) order either way, so reports are identical.
    A spec with no episodes, a batch size below 1 or a repeated seed raises
    HarnessError before any job starts.
    """
    if spec.episodes < 1:
        raise HarnessError("study needs episodes >= 1")
    if spec.batch_size < 1:
        raise HarnessError("study needs batch_size >= 1")
    if len(set(spec.seeds)) != len(spec.seeds):
        raise HarnessError(f"study seeds repeat: {list(spec.seeds)}")
    jobs = [(seed, cell, variant, demos)
            for seed in spec.seeds for cell, variant, demos in study_cells(spec)]
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    if workers < 2 or _openblas_threads() is None:
        rows = [row for job in jobs for row in _study_job(spec, *job)]
    else:
        rows = _pooled_rows(spec, jobs, workers)
    return {"rows": rows, "summary": summarize_rows(rows)}


def _study_job(spec: StudySpec, seed: int, cell: str, variant: ds.SupervisionVariant, demos: int):
    """One (cell, seed) job of a study: record, train, evaluate; returns its rows."""
    scene, task = sw.default_scene(spec.family)
    camera = sw.default_camera()
    eval_seed = derive_seed(spec.root_seed, "eval", seed)
    try:
        data = ds.record_demonstrations(scene, task, demos,
                                        derive_seed(spec.root_seed, "data", seed), camera=camera)
        policy_cfg = pol.PolicyConfig(token_dim=sw.feature_dims(scene)[0], variant=variant)
        tcfg = TrainConfig(
            policy=policy_cfg, steps=spec.steps, batch_size=spec.batch_size,
            seed=derive_seed(spec.root_seed, "train", cell, seed),
        )
        policy, _ = train(data, tcfg)
        if spec.kind == "closed_form":
            return _closed_form_rows(spec, policy, scene, task, camera, seed, eval_seed)
        report = rollout(policy, scene, task, spec.episodes, eval_seed, camera=camera)
        return [_row(spec, cell, seed, report, policy_cfg)]
    except Exception as e:  # cell failures recorded, study continues
        log.warning("cell %s seed %d failed: %s", cell, seed, e)
        return [_error_row(spec, cell, seed, e)]


def _pooled_rows(spec: StudySpec, jobs: list, workers: int):
    """Run jobs in a fork pool of `workers`; returns their rows in job order.

    Longest first: more demos mean more windows, and a predictor adds a
    trajectory head and its loss to every training step. A job whose worker
    died becomes an error row. The pool is shut down, with its workers
    joined, before this returns or raises.
    """
    # Imported here, so that only a pooled study pays their 1.4 MB of memory.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a worker starts with se3bc and numpy already imported.
    # The executor forks every worker before it starts its own thread.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(os.getpid(),))
    try:
        order = sorted(range(len(jobs)), key=lambda i: (jobs[i][3], jobs[i][2].uses_predictor),
                       reverse=True)
        futures = {i: pool.submit(_study_job, spec, *jobs[i]) for i in order}
        rows = []
        for i, (seed, cell, _, _) in enumerate(jobs):
            try:
                rows.extend(futures[i].result())
            except Exception as e:  # the worker running the job died
                log.warning("cell %s seed %d failed: %s", cell, seed, e)
                rows.append(_error_row(spec, cell, seed, e))
        return rows
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# Seconds between a worker's checks that the process that started it lives.
ORPHAN_POLL_S = 0.5


def _init_worker(parent_pid: int):
    """Pin the worker's BLAS to one thread, and exit once the parent is gone.

    Two workers that each keep numpy's BLAS threads oversubscribe the CPUs,
    and a worker whose parent was killed would otherwise wait on its job
    queue forever.
    """
    _, set_threads = _openblas_threads()
    set_threads(1)
    threading.Thread(target=_exit_when_orphaned, args=(parent_pid,), daemon=True).start()


def _exit_when_orphaned(parent_pid: int):
    while os.getppid() == parent_pid:
        time.sleep(ORPHAN_POLL_S)
    os._exit(1)


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None
    when numpy ships no OpenBLAS of its own."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _closed_form_rows(spec, policy, scene, task, camera, seed, eval_seed):
    out = []
    oracle = closed_form_baseline(policy, scene, task, spec.episodes, eval_seed,
                                  camera=camera, oracle=True)
    out.append(_row(spec, "oracle_hardcoded", seed, oracle, policy.cfg))
    perturbed_learned = rollout(policy, scene, task, spec.episodes, eval_seed,
                                camera=camera, perturb=True)
    out.append(_row(spec, "perturbed_learned", seed, perturbed_learned, policy.cfg))
    perturbed_hard = closed_form_baseline(policy, scene, task, spec.episodes, eval_seed,
                                          camera=camera, perturb=True)
    out.append(_row(spec, "perturbed_hardcoded", seed, perturbed_hard, policy.cfg))
    return out


def _error_row(spec, cell, seed, error: Exception):
    return {"study": spec.kind, "cell": cell, "seed": seed, "error": str(error)}


def _row(spec, cell, seed, report: EvalReport, policy_cfg):
    row = {"study": spec.kind, "cell": cell, "seed": seed, **report.to_json(),
           "config_hash": policy_cfg.config_hash()}
    return {k: row[k] for k in REPORT_COLUMNS if k in row}


def summarize_rows(rows):
    """Per-cell mean success rate plus a pooled Wilson interval."""
    cells = {}
    for r in rows:
        c = cells.setdefault(r["cell"], {"errors": 0, "rates": [], "k": 0, "n": 0})
        if "error" in r:
            c["errors"] += 1
            continue
        c["rates"].append(r["success_rate"])
        c["k"] += r["successes"]
        c["n"] += r["episodes"]
    summary = {}
    for cell, c in sorted(cells.items()):
        entry = {"seeds": len(c["rates"]), "errors": c["errors"]}
        if c["rates"]:
            entry["mean_success_rate"] = float(np.mean(c["rates"]))
            lo, hi = wilson_interval(c["k"], c["n"])
            entry["pooled"] = {"k": c["k"], "n": c["n"], "wilson_lo": lo, "wilson_hi": hi}
        summary[cell] = entry
    return summary


# --- reports ---


def emit_report(rows: list, path_prefix: str):
    """Write a study's rows to <prefix>.csv (one row per cell-seed) and their
    summary to <prefix>.json.

    Field order is fixed; rows are sorted by (cell, seed) so identical
    rows produce identical files.
    """
    csv_path, json_path = path_prefix + ".csv", path_prefix + ".json"
    with open(csv_path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=REPORT_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in sorted(rows, key=lambda r: (str(r.get("cell")), r.get("seed", 0))):
            writer.writerow(row)
    doc = {"rows": len(rows), "summary": summarize_rows(rows)}
    with open(json_path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return csv_path, json_path
