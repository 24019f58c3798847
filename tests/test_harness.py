import dataclasses
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from se3bc import datasets as ds
from se3bc import harness as hs
from se3bc import policy as pol
from se3bc import simworld as sw
from se3bc import tensornet as tn

EVAL_SEED = 11
EPISODES = 2
FULL_HORIZON_MISS = {
    "successes": 0, "episodes": 2, "success_rate": 0.0,
    "wilson_lo": 0.0, "wilson_hi": 0.6576188570228346, "chart_violation_rate": 0.0,
}


def assert_same(actual, expected):
    """Exact for ints, strings, None and containers; rel=1e-12 for floats."""
    if isinstance(expected, float):
        assert isinstance(actual, float), (actual, expected)
        assert actual == pytest.approx(expected, rel=1e-12, abs=0.0), (actual, expected)
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), (actual, expected)
        for key in expected:
            assert_same(actual[key], expected[key])
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), (actual, expected)
        for a, e in zip(actual, expected):
            assert_same(a, e)
    else:
        assert type(actual) is type(expected) and actual == expected, (actual, expected)


@pytest.fixture(scope="module")
def world():
    scene, task = sw.default_scene("goal")
    policy = pol.build_variant(pol.PolicyConfig(
        token_dim=sw.feature_dims(scene)[0], variant=ds.SupervisionVariant("traj_camera_se3"),
        seed=7,
    ))
    return scene, task, replace(task, horizon_limit=40), policy


# --- characterization: EvalReport.to_json() of fixed-seed evaluations ---


class TestRolloutCharacterization:
    def test_plain(self, world):
        scene, _, short, policy = world
        report = hs.rollout(policy, scene, short, EPISODES, EVAL_SEED)
        assert_same(report.to_json(), {
            **FULL_HORIZON_MISS, "mean_traj_error": 5.0507304889785205, "episode_lengths": [40, 40],
        })

    def test_sim_noise(self, world):
        scene, _, short, policy = world
        report = hs.rollout(policy, scene, short, EPISODES, EVAL_SEED,
                            sim_cfg=sw.SimConfig(sigma_p=0.002))
        assert_same(report.to_json(), {
            **FULL_HORIZON_MISS, "mean_traj_error": 5.050811316957263, "episode_lengths": [40, 40],
        })

    def test_perturbed(self, world):
        scene, _, short, policy = world
        report = hs.rollout(policy, scene, short, EPISODES, EVAL_SEED, perturb=hs.PerturbSpec())
        assert_same(report.to_json(), {
            **FULL_HORIZON_MISS, "mean_traj_error": 5.062739111847865, "episode_lengths": [40, 40],
        })


class TestClosedFormCharacterization:
    def test_oracle(self, world):
        scene, task, _, _ = world
        report = hs.closed_form_baseline(None, scene, task, EPISODES, EVAL_SEED, oracle=True)
        assert_same(report.to_json(), {
            "successes": 2, "episodes": 2, "success_rate": 1.0,
            "wilson_lo": 0.3423811429771653, "wilson_hi": 1.0, "chart_violation_rate": 0.0,
            "mean_traj_error": None, "episode_lengths": [23, 23],
        })

    def test_oracle_perturbed_with_sim_noise(self, world):
        scene, task, _, _ = world
        report = hs.closed_form_baseline(None, scene, task, EPISODES, EVAL_SEED,
                                         sim_cfg=sw.SimConfig(sigma_p=0.002),
                                         perturb=hs.PerturbSpec(), oracle=True)
        assert_same(report.to_json(), {
            **FULL_HORIZON_MISS, "mean_traj_error": None, "episode_lengths": [200, 200],
        })

    def test_policy(self, world):
        scene, _, short, policy = world
        report = hs.closed_form_baseline(policy, scene, short, EPISODES, EVAL_SEED)
        assert_same(report.to_json(), {
            **FULL_HORIZON_MISS, "mean_traj_error": None, "episode_lengths": [40, 40],
        })

    def test_policy_perturbed(self, world):
        scene, _, short, policy = world
        report = hs.closed_form_baseline(policy, scene, short, EPISODES, EVAL_SEED,
                                         perturb=hs.PerturbSpec())
        assert_same(report.to_json(), {
            **FULL_HORIZON_MISS, "mean_traj_error": None, "episode_lengths": [40, 40],
        })

    def test_needs_camera_frame_policy(self, world):
        scene, task, short, _ = world
        with pytest.raises(hs.HarnessError):
            hs.closed_form_baseline(None, scene, task, 1, EVAL_SEED)
        other = pol.build_variant(pol.PolicyConfig(
            token_dim=sw.feature_dims(scene)[0], variant=ds.SupervisionVariant("traj_world_se3"),
        ))
        with pytest.raises(hs.HarnessError):
            hs.closed_form_baseline(other, scene, task, 1, EVAL_SEED)
        with pytest.raises(hs.HarnessError):
            hs.rollout(other, scene, short, 1, EVAL_SEED, perturb=hs.PerturbSpec())


@pytest.mark.slow
def test_tiny_closed_form_study_rows():
    result = hs.run_study(hs.StudySpec(kind="closed_form", seeds=(0,), episodes=1, demos=2,
                                       steps=101))
    common = {"study": "closed_form", "seed": 0, "episodes": 1, "chart_violation_rate": 0.0,
              "config_hash": "b68c6e105eb3c1d8"}
    miss = {"successes": 0, "success_rate": 0.0, "wilson_lo": 0.0,
            "wilson_hi": 0.7934500192691468}
    assert_same(result["rows"], [
        {**common, "cell": "oracle_hardcoded", "successes": 1, "success_rate": 1.0,
         "wilson_lo": 0.20654998073085312, "wilson_hi": 1.0, "mean_traj_error": None},
        {**common, **miss, "cell": "perturbed_learned", "mean_traj_error": 4.803432016433238},
        {**common, **miss, "cell": "perturbed_hardcoded", "mean_traj_error": None},
    ])
    assert sorted(result["summary"]) == ["oracle_hardcoded", "perturbed_hardcoded",
                                         "perturbed_learned"]
    assert result["summary"]["oracle_hardcoded"]["pooled"]["k"] == 1


# --- public entry points ---


class TestWilsonInterval:
    def test_no_successes(self):
        lo, hi = hs.wilson_interval(0, 10)
        assert lo == 0.0 and 0.0 < hi < 1.0

    def test_all_successes(self):
        lo, hi = hs.wilson_interval(10, 10)
        assert 0.0 < lo < 1.0 and hi == 1.0

    def test_symmetric(self):
        lo, hi = hs.wilson_interval(3, 10)
        lo2, hi2 = hs.wilson_interval(7, 10)
        assert lo == pytest.approx(1.0 - hi2) and hi == pytest.approx(1.0 - lo2)

    def test_matches_formula_at_half(self):
        lo, hi = hs.wilson_interval(5, 10)
        z = hs.WILSON_Z
        half = z * math.sqrt(0.25 / 10 + z * z / 400) / (1 + z * z / 10)
        assert lo == pytest.approx(0.5 - half) and hi == pytest.approx(0.5 + half)

    @pytest.mark.parametrize("k,n", [(0, 0), (1, 0), (-1, 5), (6, 5)])
    def test_rejects_bad_counts(self, k, n):
        with pytest.raises(hs.HarnessError):
            hs.wilson_interval(k, n)


class TestStudySpec:
    def test_validation(self):
        with pytest.raises(hs.HarnessError):
            hs.StudySpec(kind="nope")
        with pytest.raises(hs.HarnessError):
            hs.StudySpec(kind="ladder", seeds=())

    def test_closed_form_defaults_perturb(self):
        assert hs.StudySpec(kind="closed_form").perturb == hs.PerturbSpec()
        assert hs.StudySpec(kind="ladder").perturb is None

    def test_from_json_round_trip(self):
        spec = hs.StudySpec(kind="closed_form", family="spatial", seeds=(3, 4), episodes=5,
                            demos=6, steps=150, sigma_p=0.001, root_seed=9,
                            perturb=hs.PerturbSpec(sigma_p=0.01, sigma_theta=0.02,
                                                   gripper_latency=3))
        doc = json.loads(json.dumps(dataclasses.asdict(spec)))
        assert hs.StudySpec.from_json(doc) == spec


@pytest.mark.parametrize("kind,cells", [
    ("ladder", 6), ("rotation", 3), ("depth", 3), ("scaling", 3), ("closed_form", 1),
])
def test_study_cells_grid(kind, cells):
    grid = hs.study_cells(hs.StudySpec(kind=kind, demos=7))
    assert len(grid) == cells
    assert len({name for name, _, _ in grid}) == cells
    if kind != "scaling":
        assert all(demos == 7 for _, _, demos in grid)


def test_emit_report_is_order_independent(tmp_path):
    rows = [
        {"study": "ladder", "cell": cell, "seed": seed, "successes": seed, "episodes": 4,
         "success_rate": seed / 4, "wilson_lo": 0.0, "wilson_hi": 1.0,
         "chart_violation_rate": 0.0, "mean_traj_error": None, "config_hash": "abc"}
        for cell in ("no_traj", "traj_2d") for seed in (0, 1, 2)
    ]
    rows.append({"study": "ladder", "cell": "traj_3d_pos", "seed": 0, "error": "boom"})
    shuffled = list(rows)
    random.Random(0).shuffle(shuffled)
    a = hs.emit_report({"rows": rows}, str(tmp_path / "a"))
    b = hs.emit_report(shuffled, str(tmp_path / "b"))
    for pa, pb in zip(a, b):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()
    with open(a[1]) as f:
        doc = json.load(f)
    assert doc["rows"] == 7
    assert doc["summary"]["traj_2d"]["pooled"]["k"] == 3
    assert doc["summary"]["traj_3d_pos"] == {"seeds": 0, "errors": 1}


def test_failed_cells_are_recorded_and_the_study_goes_on():
    # steps <= TrainConfig's default warmup fails every cell before training
    result = hs.run_study(hs.StudySpec(kind="ladder", seeds=(0,), demos=1, episodes=1, steps=50))
    assert [r["cell"] for r in result["rows"]] == list(hs.LADDER_TARGETS)
    assert all("warmup" in r["error"] for r in result["rows"])
    assert result["summary"] == {cell: {"seeds": 0, "errors": 1} for cell in hs.LADDER_TARGETS}


def test_summarize_rows_mixes_errors_and_results():
    ok = {"cell": "a", "seed": 1, "successes": 1, "episodes": 2, "success_rate": 0.5}
    summary = hs.summarize_rows([{"cell": "a", "seed": 0, "error": "boom"}, ok])
    assert summary["a"]["seeds"] == 1 and summary["a"]["errors"] == 1
    assert summary["a"]["pooled"]["k"] == 1 and summary["a"]["pooled"]["n"] == 2


def test_load_policy_round_trip(tmp_path, world):
    scene, task, _, _ = world
    data = ds.record_demonstrations(scene, task, 1, seed=2)
    cfg = hs.TrainConfig(policy=pol.PolicyConfig(
        token_dim=sw.feature_dims(scene)[0],
        variant=ds.SupervisionVariant("traj_world_se3", depth_mode="relative"),
    ), steps=0, seed=4)
    path = str(tmp_path / "policy.ckpt")
    policy, curve = hs.train(data, cfg, ckpt_path=path)
    assert curve == []
    loaded = hs.load_policy(path)
    assert loaded.cfg == policy.cfg
    assert set(loaded.params.names()) == set(policy.params.names())
    for name in policy.params.names():
        np.testing.assert_array_equal(loaded.params[name].data, policy.params[name].data)


def test_load_policy_needs_policy_config(tmp_path, world):
    _, _, _, policy = world
    path = str(tmp_path / "bare.ckpt")
    tn.save_checkpoint(path, policy.params, policy.cfg.config_hash(), 0)
    with pytest.raises(hs.HarnessError):
        hs.load_policy(path)
