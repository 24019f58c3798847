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
            **FULL_HORIZON_MISS, "mean_traj_error": 5.050730474259801, "episode_lengths": [40, 40],
        })

    def test_perturbed(self, world):
        scene, _, short, policy = world
        report = hs.rollout(policy, scene, short, EPISODES, EVAL_SEED, perturb=True)
        assert_same(report.to_json(), {
            **FULL_HORIZON_MISS, "mean_traj_error": 5.062739132663498, "episode_lengths": [40, 40],
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
            [1, 2.8136274814605713, 2.7048215866088867, 2.9861843585968018, 0.0005],
            [2, 4.118520736694336, 3.075509548187256, 3.4873616695404053, 0.001],
            [3, 4.416108131408691, 3.7005162239074707, 4.14212703704834, 0.0009755282581475768],
            [4, 4.002196311950684, 2.5945210456848145, 2.9947407245635986, 0.0009045084971874737],
            [5, 3.5295920372009277, 2.2539186477661133, 2.6068778038024902, 0.0007938926261462366],
            [6, 3.189988136291504, 1.913062572479248, 2.2320613861083984, 0.0006545084971874737],
            [7, 3.0395779609680176, 1.75154447555542, 2.05550217628479, 0.0005],
            [8, 2.965120792388916, 1.382986068725586, 1.6794981956481934, 0.00034549150281252633],
            [9, 3.0380167961120605, 1.0615170001983643, 1.3653186559677124, 0.00020610737385376348],
            [10, 2.8094139099121094, 0.910322904586792, 1.191264271736145, 9.549150281252633e-05],
            [11, 2.7632837295532227, 0.8382182717323303, 1.1145466566085815, 2.4471741852423235e-05],
            [12, 2.771517515182495, 0.866161048412323, 1.1433128118515015, 0.0],
        ],
        "mean_traj_error": 4.662706223405417,
    },
    "relative": {
        "curve": [
            [1, 3.233633279800415, 2.759164810180664, 3.0825281143188477, 0.0005],
            [2, 4.3360748291015625, 3.2791783809661865, 3.7127859592437744, 0.001],
            [3, 4.561110496520996, 3.83573055267334, 4.291841506958008, 0.0009755282581475768],
            [4, 4.271817684173584, 2.56943941116333, 2.9966211318969727, 0.0009045084971874737],
            [5, 3.892660617828369, 2.206890106201172, 2.596156120300293, 0.0007938926261462366],
            [6, 3.543429374694824, 2.1140851974487305, 2.468428134918213, 0.0006545084971874737],
            [7, 3.211573362350464, 1.8788797855377197, 2.2000370025634766, 0.0005],
            [8, 3.023254871368408, 1.5454370975494385, 1.8477625846862793, 0.00034549150281252633],
            [9, 3.0191867351531982, 1.2249000072479248, 1.5268187522888184, 0.00020610737385376348],
            [10, 2.8262698650360107, 1.1115093231201172, 1.3941363096237183, 9.549150281252633e-05],
            [11, 2.816650629043579, 1.0090441703796387, 1.2907092571258545, 2.4471741852423235e-05],
            [12, 2.8001508712768555, 1.0177545547485352, 1.2977696657180786, 0.0],
        ],
        "mean_traj_error": 4.084380086954438,
    },
    "none": {
        "curve": [
            [1, 3.227330207824707, 2.533079147338867, 2.8558120727539062, 0.0005],
            [2, 4.337903022766113, 3.2197909355163574, 3.653581142425537, 0.001],
            [3, 4.15591287612915, 3.3774852752685547, 3.793076515197754, 0.0009755282581475768],
            [4, 3.6242475509643555, 2.781325578689575, 3.1437504291534424, 0.0009045084971874737],
            [5, 2.9637489318847656, 2.4879393577575684, 2.7843141555786133, 0.0007938926261462366],
            [6, 2.4610190391540527, 2.0152173042297363, 2.261319160461426, 0.0006545084971874737],
            [7, 2.1576735973358154, 1.57099449634552, 1.7867618799209595, 0.0005],
            [8, 1.9848806858062744, 1.3841501474380493, 1.5826382637023926, 0.00034549150281252633],
            [9, 1.9216787815093994, 1.2039926052093506, 1.3961604833602905, 0.00020610737385376348],
            [10, 1.8566904067993164, 1.1232556104660034, 1.308924674987793, 9.549150281252633e-05],
            [11, 1.8958134651184082, 1.061945915222168, 1.2515273094177246, 2.4471741852423235e-05],
            [12, 1.8436617851257324, 1.068165898323059, 1.2525321245193481, 0.0],
        ],
        "mean_traj_error": 3.796037573951667,
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
    for seed, config_hash, traj_error in [(0, "b68c6e105eb3c1d8", 4.512152337651668),
                                          (1, "788deb1936ded518", 4.047120355895518)]:
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


@pytest.mark.parametrize("spec,match", [
    (hs.StudySpec(kind="ladder", seeds=(0,), episodes=0, demos=1, steps=0), "episodes >= 1"),
    (hs.StudySpec(kind="ladder", seeds=(0, 1, 0), episodes=1, demos=1, steps=0), r"seeds repeat: \[0, 1, 0\]"),
    (hs.StudySpec(kind="ladder", seeds=(0,), episodes=1, demos=1, steps=0, batch_size=0), "batch_size >= 1"),
], ids=["no_episodes", "repeated_seed", "batch_size_zero"])
def test_run_study_rejects_a_bad_spec_before_any_job(monkeypatch, spec, match):
    def no_job(*args):
        raise AssertionError("a job started")
    monkeypatch.setattr(hs, "_study_job", no_job)
    monkeypatch.setattr(hs, "_pooled_rows", no_job)
    with pytest.raises(hs.HarnessError, match=match):
        hs.run_study(spec)


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
    a = hs.emit_report(rows, str(tmp_path / "a"))
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


def test_inference_computes_in_float32_and_returns_float64(monkeypatch, world):
    scene, _, short, policy = world
    real_act, outputs = pol.Policy.act, []

    def act(self, features, state_vec, h_noise=None):
        out = real_act(self, features, state_vec, h_noise)
        outputs.append((h_noise is not None, out))
        return out

    monkeypatch.setattr(pol.Policy, "act", act)
    with tn.GradientTape() as tape:  # records the policy's ops, so their dtypes show
        for perturb in (False, True):
            hs.rollout(policy, scene, short, 1, EVAL_SEED, perturb=perturb)
    assert {perturbed for perturbed, _ in outputs} == {False, True}
    assert {(n.tensor.data if n.out is None else n.out).dtype for n in tape.nodes} == {
        np.dtype(np.float32)}
    for _, out in outputs:
        assert out.chunk.dtype == out.tau.dtype == np.float64


def test_a_fault_mid_run_names_its_step(monkeypatch, world):
    scene, task, _, _ = world
    data = ds.record_demonstrations(scene, task, 1, seed=2)
    real_loss, calls = pol.Policy.loss, []

    def loss_faulting_at_step_3(policy, batch):
        calls.append(batch)
        if len(calls) == 3:
            raise tn.NumericFaultError("injected at step 3")
        return real_loss(policy, batch)

    monkeypatch.setattr(pol.Policy, "loss", loss_faulting_at_step_3)
    cfg = hs.TrainConfig(policy=pol.PolicyConfig(token_dim=sw.feature_dims(scene)[0]),
                         steps=10, warmup_steps=2, log_every=100)
    with pytest.raises(hs.TrainDiverged, match="numeric fault at step 3: injected at step 3"):
        hs.train(data, cfg)


def test_overflowing_loss_weight_raises_train_diverged(world):
    # lam = 1e308 makes lam * traj overflow in the first step's forward pass.
    scene, task, _, _ = world
    data = ds.record_demonstrations(scene, task, 1, seed=2)
    cfg = hs.TrainConfig(policy=pol.PolicyConfig(token_dim=sw.feature_dims(scene)[0], lam=1e308),
                         steps=10, warmup_steps=2)
    with np.errstate(over="ignore"), pytest.raises(hs.TrainDiverged, match="step 1: op 'scale'"):
        hs.train(data, cfg)
