"""Smoke tests of the benchmark workloads at tiny size, and its accounting."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from layers import LayerProbe
from workloads import RolloutWorkload, Sizes, StudyWorkload, TrainWorkload, Unit

from se3bc import harness as hs

TINY = Sizes(train_demos=2, heldout_demos=1, train_steps=12, train_warmup=2,
             rollout_episodes=1, study_demos=2, study_episodes=1)
SPEC = run.load_spec()
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def assert_clean(result):
    bench_run, e2e, _ = result
    assert bench_run.errors == []
    assert bench_run.failed == 0
    assert bench_run.attempted >= 1
    for m in SPEC["end_to_end"]:
        assert e2e[m["name"]][0] > 0, m["name"]


def test_train_smoke_traced_writes_every_per_layer_metric():
    result = run.measure(TrainWorkload(3, TINY), seconds=0, trace=True)
    assert_clean(result)
    _, e2e, per_layer = result
    assert sorted(per_layer) == sorted(PER_LAYER)
    assert e2e["heldout_action_l1"][0] > 0
    assert per_layer["tensornet.tape_nodes"] > 0
    for op in ("matmul", "narrow", "rope", "softmax", "l1_loss"):
        assert per_layer[f"tensornet.fwd.{op}.calls"] > 0
        assert per_layer[f"tensornet.bwd.{op}.ms"] > 0
    for stage in ("encode", "predict_trajectory", "decode_actions"):
        assert per_layer[f"policy.{stage}.bwd_ms"] > 0
    assert per_layer["datasets.record.us_per_env_step"] > 0
    assert per_layer["policy.act.ms_p50"] == 0  # no inference on this workload


def test_rollout_smoke_traced():
    result = run.measure(RolloutWorkload(3, TINY), seconds=0, trace=True)
    assert_clean(result)
    per_layer = result[2]
    assert per_layer["policy.infer.rows_per_call"] == 1
    assert per_layer["simworld.step.calls_per_env_step"] > 1  # oracle shadow steps
    assert per_layer["harness.closed_form.driver_self_ms_per_env_step"] > 0
    assert per_layer["tensornet.bwd.matmul.ms"] == 0  # no tape at inference


def test_study_smoke():
    result = run.measure(StudyWorkload(3, TINY), seconds=0, trace=False)
    assert_clean(result)
    bench_run, e2e, _ = result
    assert bench_run.attempted == len(hs.LADDER_TARGETS)
    assert 0 <= e2e["success_rate"][0] <= 1


def test_failed_study_cells_are_counted_not_raised():
    # steps <= 100 fails every cell on TrainConfig's default warmup; the
    # study may also raise out of summarize_rows. Either way: six failed jobs.
    sizes = Sizes(study_steps=10, study_demos=1, study_episodes=1)
    bench_run, e2e, _ = run.measure(StudyWorkload(0, sizes), seconds=0, trace=False)
    assert bench_run.attempted == bench_run.failed == len(hs.LADDER_TARGETS)
    assert e2e["failed_share"][0] == 1.0
    assert bench_run.errors


class FakeWorkload:
    name = "fake"
    jobs_per_unit = 2

    def __init__(self, behaviour):
        self.behaviour = list(behaviour)

    @staticmethod
    def headline(work, wall_s):
        return "fake_per_s", work / wall_s, "1/s"

    def setup(self):
        return None

    def run(self, inputs):
        kind = self.behaviour.pop(0) if self.behaviour else "ok"
        if kind == "diverge":
            raise hs.TrainDiverged("numeric fault at step 3")
        return Unit(value=kind, attempted=2, work=1.0)

    def quality(self, inputs, unit):
        return {}, []


def test_exceptions_and_disagreements_are_failed_units():
    bench_run = run.Run(FakeWorkload([]))
    ref, _ = bench_run.unit(None)
    bench_run.workload.behaviour = ["diverge", "other", "ok"]
    assert bench_run.unit(None, ref) == (None, None)
    bench_run.unit(None, ref)
    bench_run.unit(None, ref)
    assert bench_run.attempted == 8
    assert bench_run.failed == 4
    assert any("TrainDiverged" in e for e in bench_run.errors)
    assert any("disagrees" in e for e in bench_run.errors)


def test_per_layer_names_match_benchmark_json():
    names = set(LayerProbe().metrics()) | {"trace.overhead_share"}
    assert names == set(PER_LAYER)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
