import copy
import hashlib
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


def fresh_policy(scene):
    return pol.build_variant(pol.PolicyConfig(
        token_dim=sw.feature_dims(scene)[0], variant=ds.SupervisionVariant("traj_camera_se3"),
        seed=7,
    ))


@pytest.fixture(scope="module")
def world():
    scene, task = sw.default_scene("goal")
    return scene, task, replace(task, horizon_limit=40), fresh_policy(scene)


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


def test_chart_violation_rate_counts_boundary_rows(world):
    # A zeroed trajectory head with rotation bias (pi, 0, 0) puts every tau
    # row at the axis-angle chart boundary.
    scene, _, short, _ = world
    policy = pol.Policy(pol.PolicyConfig(token_dim=sw.feature_dims(scene)[0], seed=7))
    policy.params["pred.head.w"].data[...] = 0.0
    policy.params["pred.head.b"].data[3:6] = [math.pi, 0.0, 0.0]
    report = hs.rollout(policy, scene, replace(short, horizon_limit=8), EPISODES, EVAL_SEED)
    assert report.chart_violation_rate == 1.0


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


class TestStaggeredEpisodes:
    """Runs whose episodes end at different steps, compared exactly: reports
    must not depend on the order in which episodes end."""

    @pytest.mark.parametrize("family,perturb,expected", [
        ("goal", False, {
            "successes": 5, "episodes": 5, "success_rate": 1.0, "wilson_lo": 0.5655185342473465,
            "wilson_hi": 1.0, "chart_violation_rate": 0.0, "mean_traj_error": None,
            "episode_lengths": [23, 23, 24, 25, 22]}),
        ("goal", True, {
            "successes": 0, "episodes": 5, "success_rate": 0.0, "wilson_lo": 0.0,
            "wilson_hi": 0.43448146575265334, "chart_violation_rate": 0.0,
            "mean_traj_error": None, "episode_lengths": [200, 200, 200, 200, 200]}),
        ("long", False, {
            "successes": 5, "episodes": 5, "success_rate": 1.0, "wilson_lo": 0.5655185342473465,
            "wilson_hi": 1.0, "chart_violation_rate": 0.0, "mean_traj_error": None,
            "episode_lengths": [27, 27, 27, 28, 27]}),
        ("long", True, {
            "successes": 1, "episodes": 5, "success_rate": 0.2, "wilson_lo": 0.036224213478337486,
            "wilson_hi": 0.6244646659732546, "chart_violation_rate": 0.0,
            "mean_traj_error": None, "episode_lengths": [200, 200, 200, 200, 42]}),
    ], ids=["goal", "goal_perturbed", "long", "long_perturbed"])
    def test_oracle(self, family, perturb, expected):
        scene, task = sw.default_scene(family)
        report = hs.closed_form_baseline(None, scene, task, 5, EVAL_SEED, perturb=perturb,
                                         oracle=True)
        assert report.to_json() == expected

    @pytest.fixture
    def staggered(self, monkeypatch):
        # An episode succeeds once its step count reaches 1000 y - 20, y the
        # target object's y in meters (the untrained policy never moves it):
        # episodes 0, 1 and 2 end at steps 29, 19 and the horizon, 40.
        def check_success(sim, state):
            return state.step_count >= 1000 * state.object_poses[sim.task.target_object_id][1] - 20

        monkeypatch.setattr(sw.Simulator, "check_success", check_success)

    STAGGERED = {
        "successes": 2, "episodes": 3, "success_rate": 0.6666666666666666,
        "wilson_lo": 0.20766011478025503, "wilson_hi": 0.9385078750038494,
        "chart_violation_rate": 0.0, "episode_lengths": [29, 19, 40],
    }

    RUNS = {
        "rollout": lambda p, s, t: hs.rollout(p, s, t, 3, EVAL_SEED),
        "rollout_perturbed": lambda p, s, t: hs.rollout(p, s, t, 3, EVAL_SEED, perturb=True),
        "closed_form_policy": lambda p, s, t: hs.closed_form_baseline(p, s, t, 3, EVAL_SEED),
    }

    @pytest.mark.parametrize("run,mean_traj_error", [
        (RUNS["rollout"], 5.186281118307874),
        (RUNS["rollout_perturbed"], 5.192916172414035),
        (RUNS["closed_form_policy"], None),
    ], ids=list(RUNS))
    def test_policy(self, world, staggered, run, mean_traj_error):
        scene, _, short, policy = world
        assert run(policy, scene, short).to_json() == {
            **self.STAGGERED, "mean_traj_error": mean_traj_error}

    @pytest.mark.parametrize("run", list(RUNS.values()), ids=list(RUNS))
    def test_live_episodes_share_one_act_call_every_h_steps(self, monkeypatch, world, staggered,
                                                            run):
        # The step count of each episode in each Policy.act call: every live
        # episode, every H = 8 steps, until episodes 1 and 0 end at 19 and 29.
        # Each stack's block-0 prefix is computed at the first call only.
        calls, prefixes = [], []
        act, self_attend = hs._act, pol.Policy._self_attend

        def spy(policy, task, scene, camera, states, h_noise=None):
            calls.append([state.step_count for state in states])
            return act(policy, task, scene, camera, states, h_noise)

        def spy_prefix(policy, prefix, x):
            if prefix.endswith(".b0"):
                prefixes.append((len(calls), prefix))
            return self_attend(policy, prefix, x)

        monkeypatch.setattr(hs, "_act", spy)
        monkeypatch.setattr(pol.Policy, "_self_attend", spy_prefix)
        scene, _, short, policy = world
        run(policy, scene, short)
        assert calls == [[0, 0, 0], [8, 8, 8], [16, 16, 16], [24, 24], [32]]
        assert prefixes == [(1, "pred.b0"), (1, "dec.b0")]


EVALUATIONS = TestStaggeredEpisodes.RUNS


@pytest.mark.parametrize("evaluate", list(EVALUATIONS.values()), ids=list(EVALUATIONS))
def test_an_evaluation_after_training_steps_sees_the_new_parameters(monkeypatch, world, evaluate):
    # Evaluate, step AdamW, evaluate again: every Policy.act output of the
    # second evaluation equals that of a twin, copied before the first
    # evaluation and stepped alike, in its first evaluation.
    outputs = []
    act = hs._act

    def spy(*args):
        out = act(*args)
        outputs.append(out)
        return out

    monkeypatch.setattr(hs, "_act", spy)
    scene, _, short, _ = world
    policy = fresh_policy(scene)
    twin = copy.deepcopy(policy)
    evaluate(policy, scene, short)
    rng = np.random.default_rng(3)
    grads = [{name: rng.normal(size=t.shape) for name, t in policy.params.items()}
             for _ in range(3)]
    for model in (policy, twin):
        opt = tn.OptimizerState(warmup_steps=1, total_steps=10)
        for step_grads in grads:
            tn.adamw_step(model.params, {t: step_grads[name] for name, t in model.params.items()}, opt)
    outputs.clear()
    again = evaluate(policy, scene, short).to_json()
    stepped = outputs[:]
    outputs.clear()
    assert evaluate(twin, scene, short).to_json() == again
    assert len(stepped) == len(outputs) > 1
    for got, want in zip(stepped, outputs):
        np.testing.assert_array_equal(got.chunk, want.chunk)
        np.testing.assert_array_equal(got.tau, want.tau)


@pytest.mark.parametrize("evaluate", list(EVALUATIONS.values()), ids=list(EVALUATIONS))
def test_an_evaluation_leaves_no_prefixes_behind(monkeypatch, world, evaluate):
    scene, _, short, _ = world
    policy = fresh_policy(scene)
    assert policy._prefixes is None
    evaluate(policy, scene, short)
    assert policy._prefixes is None
    act = hs._act

    def second_call_raises(policy, *args):
        if policy._prefixes:
            raise RuntimeError("second call")
        return act(policy, *args)

    monkeypatch.setattr(hs, "_act", second_call_raises)
    with pytest.raises(RuntimeError, match="second call"):
        evaluate(policy, scene, short)
    assert policy._prefixes is None


@pytest.mark.parametrize("episodes", [0, -1])
@pytest.mark.parametrize("evaluate", [hs.rollout, hs.closed_form_baseline])
def test_evaluation_rejects_episodes_below_one(monkeypatch, world, evaluate, episodes):
    def no_controller(*args):
        raise AssertionError("a controller was built")

    monkeypatch.setattr(hs, "_Learned", no_controller)
    monkeypatch.setattr(hs, "_ClosedForm", no_controller)
    scene, task, _, policy = world
    with pytest.raises(hs.HarnessError, match=f"episodes must be >= 1, got {episodes}"):
        evaluate(policy, scene, task, episodes, EVAL_SEED)


# A seeded gripper command per step, forced into both controllers: into the
# gripper column of the learned decoder's chunk and into the privileged rule.
FORCED_GRIPS = [float(g) for g in np.random.default_rng(0).random(64)]


@pytest.mark.parametrize("evaluate,commands", [
    (hs.rollout, [1.0 if g > 0.5 else 0.0 for g in FORCED_GRIPS]),
    (hs.closed_form_baseline, FORCED_GRIPS),
], ids=["rollout", "closed_form_policy"])
def test_perturbed_gripper_commands_execute_late_from_open(monkeypatch, world, evaluate,
                                                           commands):
    # Every gripper command Simulator.step receives, over one 40-step episode:
    # plain, each step's forced command; perturbed, the same sequence
    # PERTURB_GRIPPER_LATENCY steps late, the first steps open (0.0).
    act, step, executed = hs._act, sw.Simulator.step, []

    def forced_act(policy, task, scene, camera, states, h_noise=None):
        out = act(policy, task, scene, camera, states, h_noise)
        t0 = states[0].step_count
        out.chunk[..., 6] = FORCED_GRIPS[t0:t0 + out.chunk.shape[1]]
        return out

    def spy(sim, state, action):
        executed.append(action.gripper)
        return step(sim, state, action)

    monkeypatch.setattr(hs, "_act", forced_act)
    monkeypatch.setattr(hs, "_privileged_gripper",
                        lambda state, scene, task, prev: FORCED_GRIPS[state.step_count])
    monkeypatch.setattr(sw.Simulator, "step", spy)
    scene, _, short, policy = world
    runs = {}
    for perturb in (False, True):
        executed.clear()
        evaluate(policy, scene, short, 1, EVAL_SEED, perturb=perturb)
        runs[perturb] = list(executed)
    lag = hs.PERTURB_GRIPPER_LATENCY
    assert runs[False] == commands[:short.horizon_limit]
    assert runs[True] == [0.0] * lag + runs[False][:-lag]


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


def test_recorded_and_evaluated_numbers_are_pinned(world):
    # One sha256 over every array three recorded `long` demos hold, then the
    # reports of an oracle closed-form run and an untrained rollout on `goal`:
    # a change that moves any seeded number by one ulp changes it.
    digest = hashlib.sha256()

    def put(a):
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())

    long_scene, long_task = sw.default_scene("long")
    data = ds.record_demonstrations(long_scene, long_task, 3, 11)
    put(np.array([data.n_discarded]))
    for demo in data.demos:
        put(np.array([demo.seed, len(demo.steps)]))
        for step in demo.steps:
            f, a = step.features, step.action
            for arr in (f.lang, f.visual, f.depth, step.ee_pose_world, step.ee_pose_cam,
                        step.state_vec, a.dp, a.dtheta, np.array([a.gripper, False])):
                put(arr)
    scene, task, short, policy = world
    for report in (hs.closed_form_baseline(None, scene, task, EPISODES, EVAL_SEED, oracle=True),
                   hs.rollout(policy, scene, short, EPISODES, EVAL_SEED)):
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == "bf408514686580ad63fa46218b2843e67b5901558da4c00a908bd4eb79767958"


@pytest.mark.slow
def test_tiny_closed_form_study_rows():
    # Two jobs, so they run in worker processes where the machine allows.
    result = hs.run_study(hs.StudySpec(kind="closed_form", seeds=(0, 1), episodes=1, demos=2,
                                       steps=101))
    miss = {"successes": 0, "success_rate": 0.0, "wilson_lo": 0.0,
            "wilson_hi": 0.7934500192691468}
    expected = []
    for seed, config_hash, traj_error in [(0, "d05ddfad7690134c", 4.512152337651668),
                                          (1, "063d150c7ea6ddb3", 4.047120355895518)]:
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
    (hs.StudySpec(kind="ladder", family="kitchen", seeds=(0,), episodes=1, demos=1, steps=0),
     "unknown task family 'kitchen'"),
    (hs.StudySpec(kind="ladder", seeds=(0,), episodes=1, demos=0, steps=0), "demos >= 1"),
], ids=["no_episodes", "repeated_seed", "batch_size_zero", "unknown_family", "demos_zero"])
def test_run_study_rejects_a_bad_spec_before_any_job(monkeypatch, spec, match):
    def no_job(*args):
        raise AssertionError("a job started")
    monkeypatch.setattr(hs, "_study_job", no_job)
    monkeypatch.setattr(hs, "_pooled_rows", no_job)
    with pytest.raises(hs.HarnessError, match=match):
        hs.run_study(spec)


@pytest.mark.parametrize("kind,cells", [
    ("ladder", 6), ("rotation", 3), ("depth", 3), ("closed_form", 1),
])
def test_study_cells_grid(kind, cells):
    grid = hs.study_cells(hs.StudySpec(kind=kind, demos=7))
    assert len(grid) == cells
    assert len({name for name, _, _ in grid}) == cells
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


def test_a_failed_closed_form_job_counts_against_each_arm(monkeypatch):
    # seed 1's train raises; seed 0's arms still report their results
    real_train = hs.train
    failing = hs.derive_seed(0, "train", "closed_form", 1)

    def train(data, cfg):
        if cfg.seed == failing:
            raise RuntimeError("train failed")
        return real_train(data, cfg)

    monkeypatch.setattr(hs, "train", train)
    result = hs.run_study(hs.StudySpec(kind="closed_form", seeds=(0, 1), episodes=1, demos=1,
                                       steps=0))
    arms = ["oracle_hardcoded", "perturbed_learned", "perturbed_hardcoded"]
    assert [(r["cell"], r["seed"], "error" in r) for r in result["rows"]] == [
        *((arm, 0, False) for arm in arms), *((arm, 1, True) for arm in arms)]
    assert sorted(result["summary"]) == sorted(arms)
    for arm in arms:
        assert result["summary"][arm]["seeds"] == 1 and result["summary"][arm]["errors"] == 1


def test_summarize_rows_mixes_errors_and_results():
    ok = {"cell": "a", "seed": 1, "successes": 1, "episodes": 2, "success_rate": 0.5}
    summary = hs.summarize_rows([{"cell": "a", "seed": 0, "error": "boom"}, ok])
    assert summary["a"]["seeds"] == 1 and summary["a"]["errors"] == 1
    assert summary["a"]["pooled"]["k"] == 1 and summary["a"]["pooled"]["n"] == 2


def test_inference_computes_in_float32_and_returns_float64(monkeypatch, world):
    scene, _, short, policy = world
    real_act, outputs = pol.Policy.act, []

    def act(self, features, state_vecs, h_noise=None):
        out = real_act(self, features, state_vecs, h_noise)
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


@pytest.mark.parametrize("field,value,match", [
    ("log_every", 0, "log_every must be >= 1"),
    ("warmup_steps", -1, "warmup_steps must be >= 0"),
], ids=["log_every_zero", "negative_warmup"])
def test_train_config_rejects_a_bad_value(field, value, match):
    with pytest.raises(hs.HarnessError, match=match):
        hs.TrainConfig(policy=pol.PolicyConfig(token_dim=7), **{field: value})


# --- the training loop's BLAS thread and parameter buffer ---


class FakeBlas:
    """A recording stand-in for the (get, set) pair of _openblas_threads."""

    def __init__(self, threads):
        self.threads, self.set_calls = threads, []

    def get(self):
        return self.threads

    def set(self, n):
        self.set_calls.append(n)
        self.threads = n


@pytest.fixture
def one_demo(world):
    scene, task, _, _ = world
    data = ds.record_demonstrations(scene, task, 1, seed=2)
    cfg = hs.TrainConfig(policy=pol.PolicyConfig(token_dim=sw.feature_dims(scene)[0]),
                         steps=3, warmup_steps=1, log_every=1)
    return data, cfg


def threads_per_step(monkeypatch, get_threads, fault_at=None):
    """The thread count get_threads() reads at each training step's loss;
    the step `fault_at` raises a numeric fault."""
    real_loss, seen = pol.Policy.loss, []

    def loss(policy, batch):
        seen.append(get_threads())
        if len(seen) == fault_at:
            raise tn.NumericFaultError("injected")
        return real_loss(policy, batch)

    monkeypatch.setattr(pol.Policy, "loss", loss)
    return seen


@pytest.mark.parametrize("fault_at", [None, 2], ids=["returns", "diverges"])
def test_training_runs_at_one_blas_thread_and_restores_the_callers(monkeypatch, one_demo, fault_at):
    blas = FakeBlas(2)
    monkeypatch.setattr(hs, "_openblas_threads", lambda: (blas.get, blas.set))
    seen = threads_per_step(monkeypatch, blas.get, fault_at)
    if fault_at is None:
        hs.train(*one_demo)
    else:
        with pytest.raises(hs.TrainDiverged, match=f"step {fault_at}"):
            hs.train(*one_demo)
    assert seen == [1] * (fault_at or 3)
    assert blas.set_calls == [1, 2] and blas.threads == 2


def test_without_an_openblas_training_sets_no_thread_count(monkeypatch, one_demo):
    real = hs._openblas_threads()
    get_threads = real[0] if real is not None else (lambda: None)
    before = get_threads()
    monkeypatch.setattr(hs, "_openblas_threads", lambda: None)
    seen = threads_per_step(monkeypatch, get_threads)
    hs.train(*one_demo)
    assert seen == [before] * 3 and get_threads() == before


def test_a_curve_is_bit_identical_at_two_and_one_blas_threads(monkeypatch, world):
    # The pin of train(), and the pooled study's serial-loop equality, rest
    # on the thread count not changing a result.
    real = hs._openblas_threads()
    if real is None:
        pytest.skip("numpy ships no OpenBLAS to set")
    get_threads, set_threads = real
    caller = get_threads()
    scene, task, _, _ = world
    data = ds.record_demonstrations(scene, task, 2, seed=4)
    cfg = hs.TrainConfig(policy=pol.PolicyConfig(token_dim=sw.feature_dims(scene)[0]),
                         steps=5, warmup_steps=1, log_every=1)
    monkeypatch.setattr(hs, "_openblas_threads", lambda: None)  # train keeps the count set here
    runs = {}
    try:
        for threads in (2, 1):
            set_threads(threads)
            if get_threads() != threads:
                pytest.skip(f"OpenBLAS runs at most {get_threads()} thread(s) here")
            policy, curve = hs.train(data, cfg)
            runs[threads] = curve, [t.data.tobytes() for _, t in policy.params.items()]
    finally:
        set_threads(caller)
    assert runs[2] == runs[1]


def test_trained_parameters_are_views_of_one_buffer(one_demo):
    policy, _ = hs.train(*one_demo)
    params = policy.params
    buffer = params["dec.head.w"].data.base
    assert buffer is not None and buffer.size == sum(t.data.size for _, t in params.items())
    assert all(np.shares_memory(t.data, buffer) for _, t in params.items())
    assert params.flat_data() is buffer
