"""Training, closed-loop evaluation, baselines, studies, and reports.

Evaluation runs two controllers through `sw.drive`, the seeded episode loop
that also records demos: `_Learned` (the policy's own decoder, behind
`rollout`) and `_ClosedForm` (the hardcoded geometric pipeline, behind
`closed_form_baseline`). `sw.drive` steps all of a run's episodes in
lockstep, and a controller's one method, `actions(episodes, states)`,
answers one (dp, dtheta, gripper) command per live episode before every
round of simulator steps. Controllers only plan: a report's episode lengths
and `rollout`'s tau error are read after the run from the episode states
`sw.drive` returns. `sw.drive` alone applies the perturbed protocol's gripper
latency, which models the actuator rather than either controller.
Both controllers execute on one chunk schedule, `_ChunkSchedule`, which also
draws the perturbation, and share one evaluation shell, `_evaluate`. Paired
comparisons consume identical episode seeds and identical perturbation
draws, both derived from the root seed by counter-based splitting.

A study is a list of (cell, seed) jobs, each one call of `_study_job`: record
that seed's demos, train the cell, and return one row per evaluation arm of
`_arms` (one rollout, or a closed_form job's three arms). Recording is
seeded, so the cells of a seed train on the same demos without sharing them.
`run_study` runs the jobs in min(usable CPUs, jobs) forked workers, longest
first. Each worker pins the OpenBLAS numpy loaded to one thread and exits
once its parent is gone; `train` pins its steps to one thread too, so serial
and pooled training share one setting. With one worker, or with no OpenBLAS
to pin, the jobs run in the calling process. Rows come back in serial (seed, cell) order.
"""

from __future__ import annotations

import contextlib
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
from collections import defaultdict
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
        if self.warmup_steps < 0:
            raise HarnessError("warmup_steps must be >= 0")
        if self.log_every < 1:
            raise HarnessError("log_every must be >= 1")


def train(dataset: ds.DemoDataset, cfg: TrainConfig):
    """Behavior-clone a policy on a demonstration dataset.

    Returns (policy, curve) where curve rows are (step, loss_traj, loss_act,
    loss_total, lr). Deterministic per cfg.seed. On a numeric fault
    TrainDiverged is raised, naming the step.

    The steps run with the OpenBLAS numpy loaded pinned to one thread, as in
    a study's pool workers: at desk batch sizes the step's GEMMs are too
    small to gain from a second thread, and the thread count does not change
    a result. The caller's count is restored on return and on a raise.
    Without such an OpenBLAS no thread count is touched.
    """
    policy_cfg = replace(cfg.policy, seed=derive_seed(cfg.seed, "init"))
    policy = pol.build_variant(policy_cfg)
    variant = policy_cfg.variant

    windows = [w for demo in dataset.demos for w in ds.make_windows(demo, policy_cfg.horizon)]
    if cfg.steps > 0 and not windows:
        raise HarnessError("dataset has no training windows")
    full = pol.collate(windows, variant, dataset.camera, dataset.scene) if windows else None

    opt = tn.OptimizerState(warmup_steps=cfg.warmup_steps, total_steps=max(cfg.steps, 1))
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
    order = np.array([], dtype=int)
    curve = []
    n = len(windows)

    threads = _openblas_threads()
    if threads is not None:
        get_threads, set_threads = threads
        caller_threads = get_threads()
        set_threads(1)
    try:
        for step in range(1, cfg.steps + 1):
            while order.size < cfg.batch_size:
                order = np.concatenate([order, shuffle_rng.permutation(n)])
            idx, order = order[: cfg.batch_size], order[cfg.batch_size :]
            batch = {k: v[idx] for k, v in full.items()}
            try:
                with tn.GradientTape() as tape:
                    total, traj, act = policy.loss(batch)
                tn.adamw_step(policy.params, tn.backward(tape, total), opt)
            except tn.NumericFaultError as e:
                raise TrainDiverged(f"numeric fault at step {step}: {e}") from e
            if step == 1 or step % cfg.log_every == 0 or step == cfg.steps:
                row = (step, float(traj.data), float(act.data), float(total.data),
                       tn.lr_at(opt, step))
                curve.append(row)
                log.debug("step %d traj %.4f act %.4f total %.4f lr %.2e", *row)
    finally:
        if threads is not None:
            set_threads(caller_threads)

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


def _report(success: list, episodes: list, chart_violation_rate: float = 0.0,
            mean_traj_error: float | None = None) -> EvalReport:
    """The report of a run whose episodes succeeded as flagged and passed
    through the states `episodes` lists (sw.drive's return); an episode's
    length is its last state's step count."""
    successes = sum(success)
    lengths = [states[-1].step_count for states in episodes]
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


def _episode_seeds(episodes: int, seed: int) -> list:
    """Episode i's reset seed: every controller driven with one seed meets the same scenes."""
    if episodes < 1:
        raise HarnessError(f"episodes must be >= 1, got {episodes}")
    return [derive_seed(seed, "episode", i) for i in range(episodes)]


def _tracks_camera_pose(policy: pol.Policy) -> bool:
    variant = policy.cfg.variant
    return variant.target == "traj_camera_se3" and variant.rotation_param == "axis_angle"


def _act(policy: pol.Policy, task, scene, camera, states, h_noise=None) -> pol.PolicyOutput:
    """One Policy.act call for the observations of `states`, one row each."""
    features = [sw.featurize(state, task, scene, camera) for state in states]
    return policy.act(features, np.stack([state.state_vec() for state in states]), h_noise)


# --- perturbed-predictor protocol ---


# Noise injected at the predictor output: per position dimension (meters) and
# per axis-angle dimension (radians). The same draws corrupt both the learned
# decoder's conditioning stream and the hardcoded pipeline's poses. sw.drive
# executes every controller's gripper commands PERTURB_GRIPPER_LATENCY steps late.
PERTURB_SIGMA_P = 0.005
PERTURB_SIGMA_THETA = math.radians(2.0)
PERTURB_GRIPPER_LATENCY = 2


def _perturbation(root_seed: int, episode: int, chunk: int, horizon: int):
    rng = np.random.default_rng(derive_seed(root_seed, "perturb", episode, chunk))
    eps = np.zeros((horizon, 6))
    eps[:, :3] = rng.normal(0.0, PERTURB_SIGMA_P, size=(horizon, 3))
    eps[:, 3:] = rng.normal(0.0, PERTURB_SIGMA_THETA, size=(horizon, 3))
    return eps


# --- chunked execution, shared by both evaluation arms ---


class _ChunkSchedule:
    """The one chunk schedule of evaluation: predict H rows, execute them,
    predict again (the chunked execution of ACT).

    Live episodes share a step count, so at every step t with t % H == 0 one
    plan(episodes, states, eps) call plans chunk t // H of every live
    episode, H rows each, and step t reads row t % H of each episode's
    current chunk. eps is None in an unperturbed run; else it lists episode
    i's _perturbation(perturb_seed, i, t // H, H) draw, so every controller
    driven with one seed draws the same noise for the same (episode, chunk).
    The controller passes its plan to every rows() call: a schedule holding
    it would close a reference cycle, and each finished controller would
    then live until a full garbage collection.
    """

    def __init__(self, horizon: int, perturb_seed: int | None):
        self.horizon, self._perturb_seed = horizon, perturb_seed
        self._rows = {}  # per episode: its current chunk's rows

    def rows(self, plan, episodes: list, states: list) -> list:
        chunk, h = divmod(states[0].step_count, self.horizon)
        if h == 0:
            eps = None if self._perturb_seed is None else [
                _perturbation(self._perturb_seed, i, chunk, self.horizon) for i in episodes]
            self._rows.update(zip(episodes, plan(episodes, states, eps)))
        return [self._rows[i][h] for i in episodes]


def _evaluate(build, policy: pol.Policy | None, scene, task, episodes: int, seed: int,
              perturb: bool):
    """rollout's and closed_form_baseline's shell: sw.drive runs the
    controller build(perturbation seed or None) over the episode seeds of
    `seed`, gripper commands PERTURB_GRIPPER_LATENCY steps late if perturbed,
    with a given policy frozen (Policy.frozen: each query stack's block-0
    prefix is computed once). Returns (controller, success, episodes)."""
    seeds = _episode_seeds(episodes, seed)
    controller = build(seed if perturb else None)
    with policy.frozen() if policy is not None else contextlib.nullcontext():
        return (controller, *sw.drive(controller, scene, task, seeds,
                                      PERTURB_GRIPPER_LATENCY if perturb else 0))


# --- learned decoder ---


class _Learned:
    """The policy's own decoder, executed on a _ChunkSchedule: each plan is
    one Policy.act call, and each step commands its row with the gripper
    thresholded at 0.5.

    Each prediction's tau rows count toward the chart-violation rate; a row
    violates when its axis-angle rotation (SE(3) targets only) is at the
    chart boundary (geo.at_chart_boundary).
    For camera-frame axis-angle policies, each episode's tau chunks are kept
    in step order, and after the run mean_traj_error scores them against the
    episodes sw.drive returned: the camera-frame ee pose of state t >= 1
    against row t - 1 of the episode's chunks laid end to end.

    In a perturbed run, the pose-space noise eps is mapped into the hidden
    states through the linear head's pseudo-inverse, so head(h_traj + dh) =
    tau + eps: the decoder conditions on hidden states that decode to the
    same corrupted trajectory the hardcoded pipeline reads. The pseudo-inverse
    and dh are float64, but the policy rounds dh to float32 and computes in
    float32, so the equality holds to float32 roundoff only: on the desk
    policy, with |tau| up to 1.5, head(h_traj + dh) and tau + eps differ by
    up to 5e-7 per element.
    """

    def __init__(self, policy: pol.Policy, scene, task, camera, perturb_seed: int | None):
        self._tracks_tau = _tracks_camera_pose(policy)
        variant = policy.cfg.variant
        self._counts_chart = variant.rotation_param == "axis_angle" and variant.target_dim == 6
        if perturb_seed is not None:
            if not self._tracks_tau:
                raise HarnessError("perturbed protocol needs a camera-frame axis-angle policy")
            head_w = policy.params["pred.head.w"].data.astype(np.float64)  # (D, 6)
            self._head_pinv = np.linalg.pinv(head_w)  # (6, D)
        self.policy, self.scene, self.task, self.camera = policy, scene, task, camera
        self._schedule = _ChunkSchedule(policy.cfg.horizon, perturb_seed)
        self.pred_rows = self.violating_rows = 0
        self._taus = defaultdict(list)  # per episode: its tau chunks in step order

    def actions(self, episodes: list, states: list) -> list:
        return [(row[:3], row[3:6], 1.0 if row[6] > 0.5 else 0.0)
                for row in self._schedule.rows(self._plan, episodes, states)]

    def mean_traj_error(self, episodes: list) -> float | None:
        """Mean tau error per executed row of sw.drive's `episodes`, summed
        in episode order, then step order."""
        if not self._tracks_tau:
            return None
        total, n = 0.0, 0
        for i, states in enumerate(episodes):
            for row, state in zip(np.concatenate(self._taus[i]), states[1:]):
                total += float(np.abs(row - geo.se3_to_pose(self.camera.t_wc @ state.ee_pose)).sum())
                n += 1
        return total / n

    def _plan(self, episodes: list, states: list, eps):
        h_noise = None if eps is None else np.stack([e @ self._head_pinv for e in eps])
        out = _act(self.policy, self.task, self.scene, self.camera, states, h_noise)
        if out.tau is not None:
            self.pred_rows += len(episodes) * out.tau.shape[1]
            if self._counts_chart:
                self.violating_rows += int(np.sum(geo.at_chart_boundary(out.tau[..., 3:6])))
            if self._tracks_tau:
                for i, tau in zip(episodes, out.tau):
                    self._taus[i].append(tau)
        return out.chunk


def rollout(
    policy: pol.Policy,
    scene: sw.SceneSpec,
    task: sw.TaskSpec,
    episodes: int,
    seed: int,
    camera: sw.CameraModel | None = None,
    perturb: bool = False,
) -> EvalReport:
    """Closed-loop evaluation of the learned decoder (_Learned, on the
    schedule of _ChunkSchedule) until success or the horizon limit; the
    report is reduced in episode order from the episode states sw.drive
    returns. With perturb=True, the predictor output is corrupted by the
    draws closed_form_baseline() uses and the gripper commands execute late
    (see _evaluate). Episode seeds match closed_form_baseline()'s, so
    comparisons are paired. Raises HarnessError when episodes < 1.
    """
    learned, success, runs = _evaluate(
        lambda perturb_seed: _Learned(policy, scene, task, camera or sw.default_camera(),
                                      perturb_seed),
        policy, scene, task, episodes, seed, perturb)
    return _report(
        success, runs,
        chart_violation_rate=(learned.violating_rows / learned.pred_rows
                              if learned.pred_rows else 0.0),
        mean_traj_error=learned.mean_traj_error(runs),
    )


# --- hardcoded geometric pipeline (the decoder ablation) ---


def _privileged_gripper(state: sw.SimState, scene: sw.SceneSpec, task: sw.TaskSpec,
                        prev: float) -> float:
    """Simulator-state gripper rule unavailable to the learned policy."""
    ee = state.ee_pose[:3, 3]
    cont = scene.container(task.target_container_id)
    if geo.norm(ee - cont.center) <= sw.ACCEPT_RADIUS:
        return 0.0
    if geo.norm(ee - state.object_poses[task.target_object_id]) <= sw.GRASP_RADIUS:
        return 1.0
    return prev


class _ClosedForm:
    """Execute camera-frame poses tau through closed-form geometry, on a
    _ChunkSchedule whose horizon is the policy's, or ds.HORIZON_DEFAULT
    without a policy.

    Each plan takes tau for every live episode from one Policy.act call on
    the policy's predictor or, with oracle=True, from an oracle: a scripted
    expert per episode, kept in sync with the executed trajectory at every
    step before any plan, copied and rolled forward H steps in a noiseless
    shadow world. A perturbed run adds its draw eps to tau. Each pose row is
    lifted to the world frame via the known extrinsic and chained into
    relative actions with the exact recovery map: the chunk's rows are those
    moves. The gripper command follows privileged simulator proximity at
    every step.
    """

    def __init__(self, policy: pol.Policy | None, scene, task, camera,
                 perturb_seed: int | None, oracle: bool):
        if not oracle and (policy is None or not _tracks_camera_pose(policy)):
            raise HarnessError("closed-form baseline needs a camera-frame axis-angle policy")
        self.policy, self.scene, self.task, self.camera = policy, scene, task, camera
        self.oracle = oracle
        horizon = policy.cfg.horizon if policy is not None else ds.HORIZON_DEFAULT
        self._schedule = _ChunkSchedule(horizon, perturb_seed)
        if oracle:
            self._shadow = sw.Simulator(scene, task)
        # Per episode: the last privileged gripper command and the synced expert.
        self._grips, self._experts = {}, {}

    def actions(self, episodes: list, states: list) -> list:
        if self.oracle:
            for i, state in zip(episodes, states):
                if state.step_count == 0:
                    self._experts[i] = sw.ScriptedExpert(self.scene, self.task)
                else:
                    self._experts[i].action(state)  # advance the synced expert's phase
        moves, commands = self._schedule.rows(self._plan, episodes, states), []
        for i, state, move in zip(episodes, states, moves):
            self._grips[i] = _privileged_gripper(state, self.scene, self.task,
                                                 self._grips.get(i, 0.0))
            commands.append((move.dp, move.dtheta, self._grips[i]))
        return commands

    def _plan(self, episodes: list, states: list, eps) -> list:
        if self.oracle:
            taus = [self._lookahead(self._experts[i], state) for i, state in zip(episodes, states)]
        else:
            taus = _act(self.policy, self.task, self.scene, self.camera, states).tau
        if eps is not None:
            taus = [tau + e for tau, e in zip(taus, eps)]
        chunks = []
        for state, tau in zip(states, taus):
            moves, prev = [], state.ee_pose
            for row in tau:
                pose = geo.camera_to_world(geo.pose_to_se3(row), self.camera.extrinsic)
                moves.append(geo.relative_action(prev, pose))
                prev = pose
            chunks.append(moves)
        return chunks

    def _lookahead(self, expert: sw.ScriptedExpert, state: sw.SimState):
        expert = copy.copy(expert)
        rows = np.zeros((self._schedule.horizon, 6))
        for h in range(self._schedule.horizon):
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
    over the policy's horizon if one is given. Chunks follow rollout()'s
    schedule (_ChunkSchedule), and the report lists episodes in episode
    order. With perturb=True, tau is corrupted and the gripper commands
    execute late, as in rollout(). Episode seeds and perturbation draws match
    rollout()'s, so comparisons are paired.
    Raises HarnessError when episodes < 1.
    """
    _, success, runs = _evaluate(
        lambda perturb_seed: _ClosedForm(policy, scene, task, camera or sw.default_camera(),
                                         perturb_seed, oracle),
        policy, scene, task, episodes, seed, perturb)
    return _report(success, runs)


# --- studies ---


STUDY_KINDS = ("ladder", "rotation", "depth", "closed_form")

LADDER_TARGETS = ds.TARGET_KINDS


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
    # closed_form: one trained policy feeds three evaluation arms
    return [("closed_form", ds.SupervisionVariant("traj_camera_se3"), spec.demos)]


def run_study(spec: StudySpec):
    """Train and evaluate every (cell, seed) job; returns {"rows", "summary"}.

    Each job is one call of _study_job: it records spec.demos demos of its
    seed, trains its cell and writes one row per evaluation arm (_arms).
    Recording is seeded, so every cell of a seed trains on the same demos
    (matched data), and all cells of a seed share their evaluation episode
    seeds (paired comparisons). A failed job is recorded as one error row
    per arm and the study continues.

    The jobs run in min(usable CPUs, jobs) worker processes, longest first,
    each worker pinned to one BLAS thread; with one worker, or when the BLAS
    numpy loaded cannot be pinned, they run in this process. Rows come back
    in serial (seed, cell) order either way, so reports are identical.
    A spec with an unknown task family, no episodes, no demos, a batch size
    below 1 or a repeated seed raises HarnessError before any job starts.
    """
    if spec.family not in sw.TASK_FAMILIES:
        raise HarnessError(f"unknown task family {spec.family!r}")
    if spec.episodes < 1:
        raise HarnessError("study needs episodes >= 1")
    if spec.demos < 1:
        raise HarnessError("study needs demos >= 1")
    if spec.batch_size < 1:
        raise HarnessError("study needs batch_size >= 1")
    if len(set(spec.seeds)) != len(spec.seeds):
        raise HarnessError(f"study seeds repeat: {list(spec.seeds)}")
    jobs = [(seed, cell, variant) for seed in spec.seeds for cell, variant, _ in study_cells(spec)]
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    if workers < 2 or _openblas_threads() is None:
        rows = [row for job in jobs for row in _study_job(spec, *job)]
    else:
        rows = _pooled_rows(spec, jobs, workers)
    return {"rows": rows, "summary": summarize_rows(rows)}


def _study_job(spec: StudySpec, seed: int, cell: str, variant: ds.SupervisionVariant):
    """One (cell, seed) job of a study: record spec.demos demos, train, and
    return one row per arm of _arms, each with the trained policy's config hash."""
    scene, task = sw.default_scene(spec.family)
    camera = sw.default_camera()
    eval_seed = derive_seed(spec.root_seed, "eval", seed)
    try:
        data = ds.record_demonstrations(scene, task, spec.demos,
                                        derive_seed(spec.root_seed, "data", seed), camera=camera)
        tcfg = TrainConfig(
            policy=pol.PolicyConfig(token_dim=sw.feature_dims(scene)[0], variant=variant),
            steps=spec.steps, batch_size=spec.batch_size,
            seed=derive_seed(spec.root_seed, "train", cell, seed),
        )
        policy, _ = train(data, tcfg)
        return [_row(spec, arm, seed, evaluate(policy, scene, task, spec.episodes, eval_seed,
                                               camera=camera), policy.cfg)
                for arm, evaluate in _arms(spec, cell).items()]
    except Exception as e:  # cell failures recorded, study continues
        log.warning("cell %s seed %d failed: %s", cell, seed, e)
        return _error_rows(spec, cell, seed, e)


def _arms(spec: StudySpec, cell: str) -> dict:
    """Row name -> evaluation of a job's trained policy, each called as
    evaluate(policy, scene, task, episodes, seed, camera=camera): a
    closed_form job's three arms, else one rollout. Both functions are looked
    up when the job runs, so a replacement of either in this module is run."""
    if spec.kind != "closed_form":
        return {cell: rollout}
    return {
        "oracle_hardcoded": lambda *args, **kw: closed_form_baseline(*args, oracle=True, **kw),
        "perturbed_learned": lambda *args, **kw: rollout(*args, perturb=True, **kw),
        "perturbed_hardcoded": lambda *args, **kw: closed_form_baseline(*args, perturb=True, **kw),
    }


def _pooled_rows(spec: StudySpec, jobs: list, workers: int):
    """Run jobs in a fork pool of `workers`; returns their rows in job order.

    Longest first: every job trains on spec.demos demos, and a predictor adds
    a trajectory head and its loss to every training step. A job whose worker
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
        order = sorted(range(len(jobs)), key=lambda i: jobs[i][2].uses_predictor, reverse=True)
        futures = {i: pool.submit(_study_job, spec, *jobs[i]) for i in order}
        rows = []
        for i, (seed, cell, _) in enumerate(jobs):
            try:
                rows.extend(futures[i].result())
            except Exception as e:  # the worker running the job died
                log.warning("cell %s seed %d failed: %s", cell, seed, e)
                rows.extend(_error_rows(spec, cell, seed, e))
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


def _error_rows(spec, cell, seed, error: Exception):
    """A failed job's rows: one per arm of _arms."""
    return [{"study": spec.kind, "cell": arm, "seed": seed, "error": str(error)}
            for arm in _arms(spec, cell)]


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
