"""The three benchmark workloads, driven through se3bc's public entry points.

Every workload uses the `goal` task family, `default_camera()`, the desk
`PolicyConfig` (d_model 64, 2 predictor + 1 decoder blocks, 4 heads, H=8) and
batch 16. A workload builds its inputs in `setup()` (timed as `setup_s`) and
does one unit of timed work in `run()`. The benchmark's seed reaches se3bc
only through the integers `seeds()` derives from it.

A unit returns a `Unit`; `value` is what two runs of the same inputs must
agree on exactly, and `attempted`/`failed` count the jobs it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from se3bc import datasets as ds
from se3bc import harness as hs
from se3bc import policy as pol
from se3bc import simworld as sw
from se3bc import tensornet as tn

FAMILY = "goal"
BATCH = 16
VARIANT = ds.SupervisionVariant("traj_camera_se3")


@dataclass
class Sizes:
    """How much work one unit does. The defaults are the benchmark's."""

    train_demos: int = 8
    heldout_demos: int = 4
    train_steps: int = 30
    train_warmup: int = 10
    rollout_episodes: int = 2
    study_demos: int = 4
    study_episodes: int = 1
    # StudySpec has no warmup knob and TrainConfig's default warmup is 100.
    study_steps: int = 101


@dataclass
class Unit:
    value: object
    attempted: int
    failed: int = 0
    work: float = 0.0
    errors: list = field(default_factory=list)
    policy: object = None


def seeds(seed: int, n: int) -> list:
    """n independent 32-bit seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _desk_policy_cfg(scene, seed=0) -> pol.PolicyConfig:
    return pol.PolicyConfig(token_dim=sw.feature_dims(scene)[0], variant=VARIANT, seed=seed)


@dataclass
class TrainInputs:
    data: ds.DemoDataset
    heldout: ds.DemoDataset
    cfg: hs.TrainConfig


class TrainWorkload:
    """`harness.train` on a dataset recorded during set-up.

    The timed section is tensornet and policy work on a tape at batch 16;
    simworld is never called in it.
    """

    name = "train"
    jobs_per_unit = 1

    @staticmethod
    def headline(work, wall_s):
        return "train_samples_per_s", work / wall_s, "samples/s"

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        self.data_seed, self.heldout_seed, self.train_seed = seeds(seed, 3)

    def setup(self) -> TrainInputs:
        s = self.sizes
        scene, task = sw.default_scene(FAMILY)
        camera = sw.default_camera()
        data = ds.record_demonstrations(scene, task, s.train_demos, self.data_seed, camera=camera)
        heldout = ds.record_demonstrations(scene, task, s.heldout_demos, self.heldout_seed,
                                           camera=camera)
        cfg = hs.TrainConfig(
            policy=_desk_policy_cfg(scene), steps=s.train_steps, batch_size=BATCH,
            warmup_steps=s.train_warmup, seed=self.train_seed, log_every=1,
        )
        return TrainInputs(data, heldout, cfg)

    def run(self, inputs: TrainInputs) -> Unit:
        policy, curve = hs.train(inputs.data, inputs.cfg)
        return Unit(value=curve, attempted=1, work=inputs.cfg.steps * BATCH, policy=policy)

    def quality(self, inputs: TrainInputs, unit: Unit):
        """Open-loop action l1 of the trained policy on held-out windows,
        computed after timing. The training loss must have fallen."""
        windows = [w for d in inputs.heldout.demos
                   for w in ds.make_windows(d, unit.policy.cfg.horizon)]
        batch = pol.collate(windows, VARIANT, inputs.heldout.camera, inputs.heldout.scene)
        out = unit.policy.forward(batch["lang"], batch["visual"], batch["depth"], batch["state"])
        l1 = float(tn.l1_loss(out["chunk"], tn.Tensor(batch["action_targets"])).data)
        first, last = unit.value[0][3], unit.value[-1][3]
        errors = [] if last < first else [f"training loss rose from {first:.4f} to {last:.4f}"]
        return {"heldout_action_l1": (l1, "l1", len(windows))}, errors


@dataclass
class RolloutInputs:
    scene: sw.SceneSpec
    task: sw.TaskSpec
    camera: sw.CameraModel
    policy: pol.Policy
    eval_seed: int


class RolloutWorkload:
    """`harness.rollout` of an untrained policy plus the oracle closed-form
    baseline on the same episode seeds.

    The untrained policy never succeeds, so every episode runs the full
    horizon and every unit does the same work.
    """

    name = "rollout"
    jobs_per_unit = 1

    @staticmethod
    def headline(work, wall_s):
        return "eval_env_steps_per_s", work / wall_s, "steps/s"

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        self.init_seed, self.eval_seed = seeds(seed, 2)

    def setup(self) -> RolloutInputs:
        scene, task = sw.default_scene(FAMILY)
        policy = pol.build_variant(_desk_policy_cfg(scene, seed=self.init_seed))
        return RolloutInputs(scene, task, sw.default_camera(), policy, self.eval_seed)

    def run(self, inputs: RolloutInputs) -> Unit:
        n = self.sizes.rollout_episodes
        learned = hs.rollout(inputs.policy, inputs.scene, inputs.task, n, inputs.eval_seed,
                             camera=inputs.camera)
        oracle = hs.closed_form_baseline(None, inputs.scene, inputs.task, n, inputs.eval_seed,
                                         camera=inputs.camera, oracle=True)
        errors = []
        horizon = inputs.task.horizon_limit
        if learned.successes or any(n_steps != horizon for n_steps in learned.episode_lengths):
            errors.append(f"untrained policy left the full horizon: {learned.episode_lengths}")
        for report in (learned, oracle):
            if report.episodes != n or len(report.episode_lengths) != n:
                errors.append(f"report covers {len(report.episode_lengths)} of {n} episodes")
        return Unit(
            value=(learned.to_json(), oracle.to_json()),
            attempted=1,
            failed=int(bool(errors)),
            work=sum(learned.episode_lengths) + sum(oracle.episode_lengths),
            errors=errors,
        )

    def quality(self, inputs, unit):
        return {}, []


class StudyWorkload:
    """`harness.run_study` on a reduced ladder spec: all six LADDER_TARGETS,
    one seed, so six (cell, seed) jobs of record, collate, train and evaluate.
    """

    name = "study"
    jobs_per_unit = len(hs.LADDER_TARGETS)

    @staticmethod
    def headline(work, wall_s):
        return "study_cell_s", wall_s / work, "s"

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        (self.root_seed,) = seeds(seed, 1)

    def setup(self) -> hs.StudySpec:
        s = self.sizes
        return hs.StudySpec(
            kind="ladder", family=FAMILY, seeds=(0,), episodes=s.study_episodes,
            demos=s.study_demos, steps=s.study_steps, batch_size=BATCH, root_seed=self.root_seed,
        )

    def run(self, spec: hs.StudySpec) -> Unit:
        jobs = {(cell, seed) for seed in spec.seeds for cell, _, _ in hs.study_cells(spec)}
        rows = hs.run_study(spec)["rows"]
        errors = [f"{r['cell']} seed {r['seed']}: {r['error']}" for r in rows if "error" in r]
        failed = len(errors)
        if sorted((r["cell"], r["seed"]) for r in rows) != sorted(jobs):
            errors.append(f"expected one row per (cell, seed) job, got {len(rows)} rows")
            failed = len(jobs)
        return Unit(value=rows, attempted=len(jobs), failed=failed, work=len(jobs), errors=errors)

    def quality(self, spec, unit):
        rows = [r for r in unit.value if "error" not in r]
        k = sum(r["successes"] for r in rows)
        n = sum(r["episodes"] for r in rows)
        return {"success_rate": (k / n if n else 0.0, "ratio", n)}, []


WORKLOADS = {w.name: w for w in (TrainWorkload, RolloutWorkload, StudyWorkload)}
