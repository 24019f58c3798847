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

    def test_perturbed(self, world):
        scene, _, short, policy = world
        report = hs.rollout(policy, scene, short, EPISODES, EVAL_SEED, perturb=True)
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

    def test_oracle_perturbed(self, world):
        scene, task, _, _ = world
        report = hs.closed_form_baseline(None, scene, task, EPISODES, EVAL_SEED,
                                         perturb=True, oracle=True)
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
                                         perturb=True)
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
            hs.rollout(other, scene, short, 1, EVAL_SEED, perturb=True)


DEPTH_PINS = {
    "metric": {
        "curve": [
            [1, 2.813627345444843, 2.7048216435409165, 2.986184378085401, 0.0005],
            [2, 4.118521500177808, 3.0755110927083766, 3.4873632427261576, 0.001],
            [3, 4.4161087579768115, 3.700516040711316, 4.142126916508997, 0.0009755282581475768],
            [4, 4.0021966114686, 2.5945204497301297, 2.9947401108769895, 0.0009045084971874737],
            [5, 3.5295924097064595, 2.2539189519365337, 2.6068781929071796, 0.0007938926261462366],
            [6, 3.189988569168122, 1.913062517708396, 2.232061374625208, 0.0006545084971874737],
            [7, 3.0395785896335896, 1.7515444937294993, 2.055502352692858, 0.0005],
            [8, 2.9651213211182146, 1.382986061059459, 1.6794981931712805, 0.00034549150281252633],
            [9, 3.0380173483032316, 1.0615166760074177, 1.365318410837741, 0.00020610737385376348],
            [10, 2.8094145933367924, 0.9103224048765647, 1.191263864210244, 9.549150281252633e-05],
            [11, 2.7632839853286018, 0.838217724359988, 1.1145461228928482, 2.4471741852423235e-05],
            [12, 2.7715181338971666, 0.8661604651214441, 1.1433122785111607, 0.0],
        ],
        "mean_traj_error": 4.66271346178634,
    },
    "relative": {
        "curve": [
            [1, 3.233632977740214, 2.759165263863106, 3.0825285616371274, 0.0005],
            [2, 4.336075959588784, 3.2791802094452036, 3.712787805404082, 0.001],
            [3, 4.561111256374638, 3.8357305635420404, 4.291841689179504, 0.0009755282581475768],
            [4, 4.271818411887468, 2.5694384295043724, 2.996620270693119, 0.0009045084971874737],
            [5, 3.8926613110013673, 2.206890199422369, 2.5961563305225055, 0.0007938926261462366],
            [6, 3.543429743764978, 2.114084914194609, 2.4684278885711066, 0.0006545084971874737],
            [7, 3.2115738591291523, 1.8788797155885593, 2.2000371015014744, 0.0005],
            [8, 3.023255758340942, 1.545437127149611, 1.8477627029837052, 0.00034549150281252633],
            [9, 3.0191876275877596, 1.2248992748358916, 1.5268180375946676, 0.00020610737385376348],
            [10, 2.8262706665578246, 1.1115082748910206, 1.394135341546803, 9.549150281252633e-05],
            [11, 2.8166515060678963, 1.0090431204108843, 1.290708271017674, 2.4471741852423235e-05],
            [12, 2.8001514629603736, 1.017753366629648, 1.2977685129256855, 0.0],
        ],
        "mean_traj_error": 4.084379838644821,
    },
    "none": {
        "curve": [
            [1, 3.227330375669549, 2.5330792813530425, 2.8558123189199973, 0.0005],
            [2, 4.337903778495146, 3.2197932267485747, 3.653583604598089, 0.001],
            [3, 4.155913969215998, 3.377484933977855, 3.7930763308994546, 0.0009755282581475768],
            [4, 3.6242480167786857, 2.781325613972691, 3.14375041565056, 0.0009045084971874737],
            [5, 2.963749407866079, 2.4879386236637604, 2.7843135644503683, 0.0007938926261462366],
            [6, 2.4610195462214093, 2.01521662501159, 2.261318579633731, 0.0006545084971874737],
            [7, 2.1576741588935677, 1.5709946557295293, 1.7867620716188861, 0.0005],
            [8, 1.9848811520657648, 1.3841492678429494, 1.582637383049526, 0.00034549150281252633],
            [9, 1.9216791747058417, 1.2039921328996424, 1.3961600503702265, 0.00020610737385376348],
            [10, 1.856690736794107, 1.123255623893999, 1.3089246975734097, 9.549150281252633e-05],
            [11, 1.8958139568987313, 1.0619457991244412, 1.2515271948143143, 2.4471741852423235e-05],
            [12, 1.8436620377839592, 1.0681656297451438, 1.2525318335235398, 0.0],
        ],
        "mean_traj_error": 3.796040332168026,
    },
}


@pytest.fixture(scope="module", params=sorted(DEPTH_PINS))
def depth_trained(request, world):
    """A 12-step policy trained under one depth mode."""
    scene, task, _, _ = world
    data = ds.record_demonstrations(scene, task, n=2, seed=3)
    cfg = hs.TrainConfig(
        policy=pol.PolicyConfig(
            token_dim=sw.feature_dims(scene)[0],
            variant=ds.SupervisionVariant("traj_camera_se3", depth_mode=request.param),
        ),
        steps=12, warmup_steps=2, log_every=1, seed=5,
    )
    policy, curve = hs.train(data, cfg)
    return request.param, policy, curve


class TestDepthModeCharacterization:
    def test_train_curve(self, depth_trained):
        mode, _, curve = depth_trained
        assert_same([list(row) for row in curve], DEPTH_PINS[mode]["curve"])

    def test_rollout(self, world, depth_trained):
        scene, _, short, _ = world
        mode, policy, _ = depth_trained
        report = hs.rollout(policy, scene, short, EPISODES, EVAL_SEED)
        assert_same(report.to_json(), {
            **FULL_HORIZON_MISS, "mean_traj_error": DEPTH_PINS[mode]["mean_traj_error"],
            "episode_lengths": [40, 40],
        })


@pytest.mark.slow
def test_tiny_closed_form_study_rows():
    # Two jobs, so they run in worker processes where the machine allows.
    result = hs.run_study(hs.StudySpec(kind="closed_form", seeds=(0, 1), episodes=1, demos=2,
                                       steps=101))
    miss = {"successes": 0, "success_rate": 0.0, "wilson_lo": 0.0,
            "wilson_hi": 0.7934500192691468}
    expected = []
    for seed, config_hash, traj_error in [(0, "b68c6e105eb3c1d8", 4.803432016433238),
                                          (1, "788deb1936ded518", 3.340108843083265)]:
        common = {"study": "closed_form", "seed": seed, "episodes": 1,
                  "chart_violation_rate": 0.0, "config_hash": config_hash}
        expected += [
            {**common, "cell": "oracle_hardcoded", "successes": 1, "success_rate": 1.0,
             "wilson_lo": 0.20654998073085312, "wilson_hi": 1.0, "mean_traj_error": None},
            {**common, **miss, "cell": "perturbed_learned", "mean_traj_error": traj_error},
            {**common, **miss, "cell": "perturbed_hardcoded", "mean_traj_error": None},
        ]
    assert_same(result["rows"], expected)
    assert sorted(result["summary"]) == ["oracle_hardcoded", "perturbed_hardcoded",
                                         "perturbed_learned"]
    assert result["summary"]["oracle_hardcoded"]["pooled"]["k"] == 2


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


def test_load_policy_ignores_cross_attention_key_biases(tmp_path, world):
    # Checkpoints written while cross-attention still had key biases keep loading.
    _, _, _, policy = world
    d = policy.cfg.d_model
    old = tn.ParamSet()
    for name, t in policy.params.items():
        old.zeros(name, t.shape).data = t.data.copy()
    for block in ["pred.b0", "pred.b1", "dec.b0"]:
        old.zeros(f"{block}.cross.bk", (d,)).data = np.full(d, 1e-11)
    path = str(tmp_path / "old.ckpt")
    tn.save_checkpoint(path, old, policy.cfg.config_hash(), 0,
                       extra={"policy_cfg": policy.cfg.to_json()})
    loaded = hs.load_policy(path)
    assert loaded.params.names() == policy.params.names()
    for name in policy.params.names():
        np.testing.assert_array_equal(loaded.params[name].data, policy.params[name].data)


def test_fault_checkpoint_holds_the_last_logged_step(tmp_path, monkeypatch, world):
    scene, task, _, _ = world
    data = ds.record_demonstrations(scene, task, 1, seed=2)
    real_loss, calls, after_step_1 = pol.Policy.loss, [], {}

    def loss_faulting_at_step_3(policy, batch):
        calls.append(batch)
        if len(calls) == 2:  # step 2 starts from the parameters step 1 left
            after_step_1.update({name: t.data.copy() for name, t in policy.params.items()})
        if len(calls) == 3:
            raise tn.NumericFaultError("injected at step 3")
        return real_loss(policy, batch)

    monkeypatch.setattr(pol.Policy, "loss", loss_faulting_at_step_3)
    cfg = hs.TrainConfig(policy=pol.PolicyConfig(token_dim=sw.feature_dims(scene)[0]),
                         steps=10, warmup_steps=2, log_every=100)
    path = str(tmp_path / "fault.ckpt")
    with pytest.raises(hs.TrainDiverged, match="step 3"):
        hs.train(data, cfg, ckpt_path=path)
    manifest, arrays = tn.load_checkpoint(path)
    assert manifest["step"] == 1
    assert arrays.keys() == after_step_1.keys()
    for name, values in after_step_1.items():
        np.testing.assert_array_equal(arrays[name], values)


def test_overflowing_loss_weight_raises_train_diverged(world):
    # lam = 1e308 makes lam * traj overflow in the first step's forward pass.
    scene, task, _, _ = world
    data = ds.record_demonstrations(scene, task, 1, seed=2)
    cfg = hs.TrainConfig(policy=pol.PolicyConfig(token_dim=sw.feature_dims(scene)[0], lam=1e308),
                         steps=10, warmup_steps=2)
    with np.errstate(over="ignore"), pytest.raises(hs.TrainDiverged, match="step 1: op 'scale'"):
        hs.train(data, cfg)


def test_load_policy_needs_policy_config(tmp_path, world):
    _, _, _, policy = world
    path = str(tmp_path / "bare.ckpt")
    tn.save_checkpoint(path, policy.params, policy.cfg.config_hash(), 0)
    with pytest.raises(hs.HarnessError):
        hs.load_policy(path)
