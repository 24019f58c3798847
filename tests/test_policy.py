import collections
import hashlib
import json

import numpy as np
import numpy.testing as npt
import pytest

from se3bc import datasets as ds
from se3bc import harness as hs
from se3bc import policy as pol
from se3bc import simworld as sw
from se3bc import tensornet as tn


@pytest.fixture(scope="module")
def world():
    scene, task = sw.default_scene("goal")
    data = ds.record_demonstrations(scene, task, n=3, seed=5)
    windows = [w for d in data.demos for w in ds.make_windows(d, 8)]
    return scene, task, data, windows


def make_policy(scene, target="traj_camera_se3", rotation="axis_angle", depth="metric", **kw):
    variant = ds.SupervisionVariant(target, rotation_param=rotation, depth_mode=depth)
    cfg = pol.PolicyConfig(token_dim=sw.feature_dims(scene)[0], variant=variant, **kw)
    return pol.build_variant(cfg)


def param_count(policy):
    return sum(t.data.size for _, t in policy.params.items())


def float64_params(policy):
    """Swap each (float32) parameter for a float64 tensor of the same values,
    so the policy computes in float64; for checks of float64 exactness."""
    for name, t in list(policy.params.items()):
        policy.params.swap(name, tn.Tensor(t.data.astype(np.float64), requires_grad=True))
    return policy


class TestConfig:
    def test_validation(self):
        with pytest.raises(pol.PolicyConfigError):
            pol.PolicyConfig(token_dim=7, horizon=0)
        with pytest.raises(pol.PolicyConfigError):
            pol.PolicyConfig(token_dim=7, lam=-0.1)

    def test_json_round_trip(self):
        """to_json, which config_hash digests, carries every field: the config
        rebuilt from its JSON text equals the original."""
        cfg = pol.PolicyConfig(
            token_dim=9,
            horizon=4,
            lam=0.5,
            seed=3,
            variant=ds.SupervisionVariant("traj_world_se3", depth_mode="relative"),
        )
        doc = json.loads(json.dumps(cfg.to_json()))
        assert doc.pop("schema") == pol.POLICY_CFG_SCHEMA
        back = pol.PolicyConfig(**{**doc, "variant": ds.SupervisionVariant(**doc["variant"])})
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()


def loss_terms(policy, batch):
    total, traj, act = policy.loss(batch)
    return float(total.data), float(traj.data), float(act.data)


def l1_rows(pred, target):
    """Scalar-loop oracle: per-row sums of |pred - target|, averaged over rows."""
    pred, target = pred.reshape(-1, pred.shape[-1]), target.reshape(-1, target.shape[-1])
    rows = [sum(abs(float(p) - float(t)) for p, t in zip(pr, tr)) for pr, tr in zip(pred, target)]
    return sum(rows) / len(rows)


class TestLosses:
    @pytest.fixture
    def batch(self, world):
        scene, task, data, windows = world
        return pol.collate(windows[:5], ds.SupervisionVariant(), data.camera, scene)

    def forward(self, policy, batch):
        return policy.forward(batch["lang"], batch["visual"], batch["depth"], batch["state"])

    def test_uniform_offset_rule(self, world):
        # +0.01 over 6 dims -> 0.06, independent of horizon; a zeroed
        # trajectory head makes tau exactly 0
        scene, _, data, _ = world
        for horizon in [1, 4, 8]:
            policy = float64_params(make_policy(scene, horizon=horizon))
            policy.params["pred.head.w"].data[...] = 0.0
            policy.params["pred.head.b"].data[...] = 0.0
            windows = [w for d in data.demos for w in ds.make_windows(d, horizon)][:3]
            batch = pol.collate(windows, ds.SupervisionVariant(), data.camera, scene)
            assert batch["traj_targets"].shape == (3, horizon, 6)
            _, traj, _ = loss_terms(policy, {**batch, "traj_targets": np.full((3, horizon, 6), 0.01)})
            assert abs(traj - 0.06) < 1e-15

    def test_lambda_combination(self, world, batch):
        policy = float64_params(make_policy(world[0], lam=0.3))
        total, traj, act = loss_terms(policy, batch)
        assert traj > 0 and act > 0
        assert total == 0.3 * traj + act

    def test_matches_scalar_loop_oracle(self, world, batch):
        policy = float64_params(make_policy(world[0]))
        out = self.forward(policy, batch)
        _, traj, act = loss_terms(policy, batch)
        assert abs(traj - l1_rows(out["tau"].data, batch["traj_targets"])) < 1e-12
        assert abs(act - l1_rows(out["chunk"].data, batch["action_targets"])) < 1e-12

    def test_perfect_prediction_zero(self, world, batch):
        policy = make_policy(world[0])
        tau = self.forward(policy, batch)["tau"].data
        total, traj, act = loss_terms(policy, {**batch, "traj_targets": tau})
        assert traj == 0.0 and total == act

    def test_perfect_chunk_gives_lambda_traj(self, world, batch):
        policy = make_policy(world[0], lam=0.5)
        chunk = self.forward(policy, batch)["chunk"].data
        total, traj, act = loss_terms(policy, {**batch, "action_targets": chunk})
        assert act == 0.0 and total == 0.5 * traj

    def test_no_traj_total_is_action_loss(self, world):
        scene, task, data, windows = world
        batch = pol.collate(windows[:5], ds.SupervisionVariant("no_traj"), data.camera, scene)
        total, traj, act = loss_terms(make_policy(scene, target="no_traj"), batch)
        assert traj == 0.0 and act > 0 and total == act


class TestEncoder:
    def test_depth_none_excludes_block(self, world):
        scene, task, data, windows = world
        policy = make_policy(scene, depth="none")
        f = windows[0].features
        h3d = policy.encode(f.lang, f.visual, f.depth)
        n_kp = len(scene.objects) + 1
        assert h3d.shape == (2 + n_kp, pol.D_MODEL)
        assert "enc.dep.w" not in policy.params

    def test_zero_features_give_bias_terms(self, world):
        scene, task, data, windows = world
        policy = make_policy(scene)
        policy.params["enc.lang.b"].data = np.full(pol.D_MODEL, 0.25)
        dt = policy.cfg.token_dim
        h3d = policy.encode(np.zeros((2, dt)), np.zeros((3, dt)), np.zeros((3, dt)))
        npt.assert_array_equal(h3d.data[:2], np.full((2, pol.D_MODEL), 0.25))
        npt.assert_array_equal(h3d.data[2:5], np.zeros((3, pol.D_MODEL)))

    def test_deterministic(self, world):
        scene, task, data, windows = world
        f = windows[0].features
        a = make_policy(scene).encode(f.lang, f.visual, f.depth).data
        b = make_policy(scene).encode(f.lang, f.visual, f.depth).data
        npt.assert_array_equal(a, b)


class TestPredictor:
    def test_h1_single_slot(self, world):
        scene, task, data, windows = world
        policy = make_policy(scene, horizon=1)
        f = windows[0].features
        h3d = policy.encode(f.lang, f.visual, f.depth)
        h_traj, tau = policy.predict_trajectory(h3d)
        assert tau.shape == (1, 6)
        assert h_traj.shape == (1, pol.D_MODEL)

    def test_tau_recomputable_from_head(self, world):
        scene, task, data, windows = world
        policy = make_policy(scene)
        f = windows[0].features
        h3d = policy.encode(f.lang, f.visual, f.depth)
        h_traj, tau = policy.predict_trajectory(h3d)
        npt.assert_array_equal(policy.trajectory_head(h_traj).data, tau.data)

    def test_untrained_deterministic(self, world):
        scene, task, data, windows = world
        a = make_policy(scene).act([windows[0].features], [windows[0].state_vec])
        b = make_policy(scene).act([windows[0].features], [windows[0].state_vec])
        npt.assert_array_equal(a.tau, b.tau)
        npt.assert_array_equal(a.chunk, b.chunk)

    def test_no_traj_skips_predictor(self, world):
        scene, task, data, windows = world
        policy = make_policy(scene, target="no_traj")
        f = windows[0].features
        h3d = policy.encode(f.lang, f.visual, f.depth)
        assert policy.predict_trajectory(h3d) is None
        assert not any(n.startswith("pred.") for n in policy.params.names())
        out = policy.act([windows[0].features], [windows[0].state_vec])
        assert out.tau is None and out.chunk.shape == (1, 8, 7)

    def test_quaternion_head_unit_norm(self, world):
        scene, task, data, windows = world
        policy = float64_params(make_policy(scene, rotation="quaternion"))
        out = policy.act([windows[0].features], [windows[0].state_vec])
        assert out.tau.shape == (1, 8, 7)
        npt.assert_allclose(np.linalg.norm(out.tau[0, :, 3:], axis=1), np.ones(8), atol=1e-9)


@pytest.mark.parametrize("batch", [1, 2, 5])
@pytest.mark.parametrize("target,rotation,depth,noisy", [
    ("traj_camera_se3", "axis_angle", "metric", False),
    ("traj_camera_se3", "quaternion", "metric", False),
    ("no_traj", "axis_angle", "metric", False),
    ("traj_camera_se3", "axis_angle", "relative", False),
    ("traj_camera_se3", "axis_angle", "none", False),
    ("traj_camera_se3", "axis_angle", "metric", True),
], ids=["camera_se3", "quaternion", "no_traj", "relative_depth", "no_depth", "h_noise"])
def test_batched_act_rows_equal_one_row_calls(world, batch, target, rotation, depth, noisy):
    scene, task, data, windows = world
    policy = make_policy(scene, target, rotation, depth)
    picked = windows[::9][:batch]
    features, states = [w.features for w in picked], [w.state_vec for w in picked]
    h_noise = None
    if noisy:
        h_noise = np.random.default_rng(1).normal(0.0, 0.1, (batch, 8, pol.D_MODEL))
    out = policy.act(features, states, h_noise)
    assert out.chunk.shape == (batch, 8, 7)
    for b in range(batch):
        one = policy.act([features[b]], [states[b]], None if h_noise is None else h_noise[b:b + 1])
        assert np.array_equal(out.chunk[b], one.chunk[0])
        assert (out.tau is None and one.tau is None) or np.array_equal(out.tau[b], one.tau[0])


class TestFrozen:
    """Policy.frozen(): each stack's block-0 prefix is computed once and reused."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("noisy", [False, True], ids=["plain", "h_noise"])
    def test_act_inside_equals_act_outside(self, world, batch, noisy):
        scene, task, data, windows = world
        policy = make_policy(scene)
        picked = windows[::9][:batch]
        features, states = [w.features for w in picked], [w.state_vec for w in picked]
        h_noise = None
        if noisy:
            h_noise = np.random.default_rng(1).normal(0.0, 0.1, (batch, 8, pol.D_MODEL))
        outside = policy.act(features, states, h_noise)
        with policy.frozen():
            inside = [policy.act(features, states, h_noise) for _ in range(2)]
            rows = [policy.act([features[b]], [states[b]],
                               None if h_noise is None else h_noise[b:b + 1])
                    for b in range(batch)]
        for out in inside:
            npt.assert_array_equal(out.chunk, outside.chunk)
            npt.assert_array_equal(out.tau, outside.tau)
        for b, one in enumerate(rows):
            npt.assert_array_equal(one.chunk[0], outside.chunk[b])
            npt.assert_array_equal(one.tau[0], outside.tau[b])

    def test_each_prefix_is_computed_once(self, monkeypatch, world):
        scene, task, data, windows = world
        policy = make_policy(scene)
        calls = collections.Counter()
        self_attend = pol.Policy._self_attend

        def spy(self, prefix, x):
            calls[prefix] += 1
            return self_attend(self, prefix, x)

        monkeypatch.setattr(pol.Policy, "_self_attend", spy)
        features, states = [windows[0].features], [windows[0].state_vec]
        with policy.frozen():
            for _ in range(3):
                policy.act(features, states)
        assert calls == {"pred.b0": 1, "pred.b1": 3, "dec.b0": 1}

    def test_a_loss_taped_inside_gets_every_gradient(self, world):
        scene, task, data, windows = world
        policy = make_policy(scene)
        batch = pol.collate(windows[:4], ds.SupervisionVariant(), data.camera, scene)

        def grads():
            with tn.GradientTape() as tape:
                total, _, _ = policy.loss(batch)
            return policy.params.grads_by_name(tn.backward(tape, total))

        outside = grads()
        with policy.frozen():
            policy.act([windows[0].features], [windows[0].state_vec])  # fills the prefixes
            inside = grads()
        assert inside.keys() == outside.keys() == set(policy.params.names())
        for name in outside:
            npt.assert_array_equal(inside[name], outside[name], err_msg=name)
        for name in ["pred.q", "pred.b0.self.wq", "pred.b0.ln2.g", "dec.q", "dec.b0.self.wv"]:
            assert np.abs(inside[name]).sum() > 0, name

    def test_prefixes_live_only_inside_the_outermost_scope(self, world):
        scene, task, data, windows = world
        policy = make_policy(scene)
        assert policy._prefixes is None
        features, states = [windows[0].features], [windows[0].state_vec]
        with policy.frozen():
            policy.act(features, states)
            kept = dict(policy._prefixes)
            assert kept.keys() == {"pred", "dec"}
            with policy.frozen():
                policy.act(features, states)
            assert policy._prefixes == kept
        assert policy._prefixes is None
        with pytest.raises(RuntimeError, match="inside"):
            with policy.frozen():
                policy.act(features, states)
                raise RuntimeError("inside")
        assert policy._prefixes is None


class TestDecoder:
    def test_chunk_has_h_rows_and_bounded_gripper(self, world):
        scene, task, data, windows = world
        policy = make_policy(scene)
        out = policy.act([windows[0].features], [windows[0].state_vec])
        assert out.chunk.shape == (1, 8, 7)
        assert np.all(out.chunk[..., 6] > 0) and np.all(out.chunk[..., 6] < 1)

    def test_zeroed_context_and_queries_give_head_biases(self, world):
        scene, task, data, windows = world
        policy = make_policy(scene)
        d = pol.D_MODEL
        policy.params["dec.q"].data = np.zeros((8, d))
        chunk = policy.decode_actions(tn.Tensor(np.zeros((5, d))), np.zeros((1, 7)))
        npt.assert_array_equal(chunk.data[:, :6], np.zeros((8, 6)))  # head bias is zero at init
        npt.assert_array_equal(chunk.data[:, 6], np.full(8, 0.5))  # sigmoid(0)


class TestRouting:
    def test_aux_traj_decoder_ignores_h_traj(self, world):
        scene, task, data, windows = world
        policy = make_policy(scene, target="aux_traj")
        f, s = windows[0].features, windows[0].state_vec
        full = policy.act([f], [s])
        # bypass the predictor entirely: conditioning is h3d by wiring
        direct = policy.decode_actions(policy.encode(f.lang, f.visual, f.depth), s.reshape(1, 7))
        npt.assert_array_equal(full.chunk[0], direct.data)
        assert full.tau is not None  # the branch still exists and predicts

    def test_camera_se3_decoder_sees_only_h_traj(self, world):
        scene, task, data, windows = world
        policy = make_policy(scene)
        f, s = windows[0].features, windows[0].state_vec
        h3d = policy.encode(f.lang, f.visual, f.depth)
        h_traj, _ = policy.predict_trajectory(h3d)
        full = policy.act([f], [s])
        direct = policy.decode_actions(h_traj, s.reshape(1, 7))
        npt.assert_array_equal(full.chunk[0], direct.data)

    def test_param_count_parity_aux_vs_camera(self, world):
        scene, task, data, windows = world
        aux = make_policy(scene, target="aux_traj")
        cam = make_policy(scene, target="traj_camera_se3")
        assert param_count(aux) == param_count(cam)
        no = make_policy(scene, target="no_traj")
        assert param_count(no) < param_count(cam)

    def test_lambda_leaves_decoder_head_grads_unchanged(self, world):
        scene, task, data, windows = world
        batch = pol.collate(windows[:4], ds.SupervisionVariant(), data.camera, scene)

        def head_grad(lam):
            policy = make_policy(scene)
            policy.cfg.lam = lam
            with tn.GradientTape() as tape:
                total, traj, act = policy.loss(batch)
            grads = policy.params.grads_by_name(tn.backward(tape, total))
            return grads["dec.head.w"]

        npt.assert_array_equal(head_grad(0.1), head_grad(10.0))

    def test_aux_traj_action_loss_has_no_predictor_gradient(self, world):
        scene, task, data, windows = world
        variant = ds.SupervisionVariant("aux_traj")
        batch = pol.collate(windows[:4], variant, data.camera, scene)
        policy = make_policy(scene, target="aux_traj")
        with tn.GradientTape() as tape:
            out = policy.forward(batch["lang"], batch["visual"], batch["depth"], batch["state"])
            act = tn.l1_loss(out["chunk"], tn.Tensor(batch["action_targets"]))
        grads = policy.params.grads_by_name(tn.backward(tape, act))
        for name, g in grads.items():
            if name.startswith("pred."):
                npt.assert_array_equal(g, np.zeros_like(g))
        # but the total loss does reach the predictor (through the traj loss)
        with tn.GradientTape() as tape:
            total, traj, _ = policy.loss(batch)
        grads = policy.params.grads_by_name(tn.backward(tape, total))
        assert any(np.abs(grads[n]).sum() > 0 for n in grads if n.startswith("pred."))


@pytest.fixture
def tiny_architecture(monkeypatch):
    """Width 8, two heads, one block per stack."""
    for name, value in [("D_MODEL", 8), ("HEADS", 2), ("PREDICTOR_BLOCKS", 1), ("DECODER_BLOCKS", 1)]:
        monkeypatch.setattr(pol, name, value)


def test_tiny_architecture_builds_and_acts(world, tiny_architecture):
    scene, task, data, windows = world
    policy = make_policy(scene)
    assert policy.params["pred.q"].data.shape == (8, 8)
    assert sum(n.startswith("pred.b") and n.endswith(".ffn.w1") for n in policy.params.names()) == 1
    assert param_count(policy) == 2901
    out = policy.act([w.features for w in windows[:3]], [w.state_vec for w in windows[:3]])
    assert out.chunk.shape == (3, 8, 7) and out.tau.shape == (3, 8, 6)


class TestEndToEndGradient:
    @pytest.mark.slow
    def test_tiny_policy_full_gradcheck(self, world, tiny_architecture):
        scene, task, data, windows = world
        variant = ds.SupervisionVariant()
        policy = make_policy(scene, horizon=2)
        short = [
            ds.TrainingWindow(
                features=w.features,
                state_vec=w.state_vec,
                target_poses_cam=w.target_poses_cam[:2],
                target_actions=w.target_actions[:2],
            )
            for w in windows[:2]
        ]
        batch = pol.collate(short, variant, data.camera, scene)
        names = policy.params.names()

        def fn(tensors):  # the total loss with every parameter bound to `tensors`
            saved = [policy.params.swap(n, t) for n, t in zip(names, tensors)]
            try:
                return policy.loss(batch)[0]
            finally:
                for n, s in zip(names, saved):
                    policy.params.swap(n, s)

        res = tn.grad_check(fn, [policy.params[n].data.copy() for n in names])
        assert res.max_rel_error < 1e-5, res


class TestCollate:
    def test_shapes(self, world):
        scene, task, data, windows = world
        variant = ds.SupervisionVariant(depth_mode="relative")
        batch = pol.collate(windows[:6], variant, data.camera, scene)
        n_kp = len(scene.objects) + 1
        dt = sw.feature_dims(scene)[0]
        assert batch["lang"].shape == (6, 2, dt)
        assert batch["visual"].shape == (6, n_kp, dt)
        assert batch["depth"].shape == (6, n_kp, dt)
        assert batch["state"].shape == (6, 1, 7)
        assert batch["traj_targets"].shape == (6, 8, 6)
        assert batch["action_targets"].shape == (6, 8, 7)

    def test_none_depth(self, world):
        scene, task, data, windows = world
        variant = ds.SupervisionVariant("no_traj", depth_mode="none")
        batch = pol.collate(windows[:2], variant, data.camera, scene)
        npt.assert_array_equal(batch["depth"], np.stack([w.features.depth for w in windows[:2]]))
        assert batch["traj_targets"].shape == (2, 8, 0)
        policy = make_policy(scene, target="no_traj", depth="none")
        zeroed = {**batch, "depth": np.zeros_like(batch["depth"])}
        assert float(policy.loss(zeroed)[0].data) == float(policy.loss(batch)[0].data)

    @pytest.mark.parametrize("target,rotation", [
        (t, r) for t in ds.TARGET_KINDS for r in (ds.ROTATION_PARAMS if t in ds.SE3_TARGETS else ["axis_angle"])
    ])
    def test_traj_targets_equal_per_window_supervision(self, world, target, rotation):
        scene, task, data, windows = world
        variant = ds.SupervisionVariant(target, rotation_param=rotation)
        batch = pol.collate(windows, variant, data.camera, scene)
        expect = np.stack([ds.pose_targets(w.target_poses_cam, variant, data.camera) for w in windows])
        assert batch["traj_targets"].shape == expect.shape
        npt.assert_array_equal(batch["traj_targets"], expect)

    def test_chart_violation_names_the_window_step(self, world):
        scene, task, data, windows = world
        poses = windows[1].target_poses_cam.copy()
        poses[5] = [0.0, 0.0, 0.0, np.pi - 1e-9, 0.0, 0.0]  # axis-angle at the chart boundary
        bad = ds.TrainingWindow(windows[1].features, windows[1].state_vec, poses,
                                windows[1].target_actions)
        with pytest.raises(ds.DatasetError, match="step 5: axis-angle target at the chart boundary"):
            pol.collate([windows[0], bad, windows[2]], ds.SupervisionVariant(), data.camera, scene)


def test_desk_training_step_size(world):
    # One desk training step on a tape: a change that adds tape ops shows here.
    scene, task, data, windows = world
    variant = ds.SupervisionVariant("traj_camera_se3")
    batch = pol.collate(windows[:16], variant, data.camera, scene)
    policy = make_policy(scene)
    with tn.GradientTape() as tape:
        total, _, _ = policy.loss(batch)
    assert collections.Counter(n.op for n in tape.nodes) == {
        "leaf": 99, "linear": 36, "split_heads": 18, "layer_norm": 14, "matmul": 12, "add": 10,
        "scale": 7, "swapaxes": 6, "merge_heads": 6, "rope": 6, "softmax": 6, "concat": 3, "gelu": 3,
        "l1_loss": 2, "narrow": 2, "sigmoid": 1,
    }
    assert len(tape.nodes) == 231
    grads = tn.backward(tape, total)
    assert len(grads) == len(policy.params.names())


def test_desk_training_step_is_float32(world):
    # collate hands over float64; every array of the step itself is float32.
    scene, task, data, windows = world
    batch = pol.collate(windows[:16], ds.SupervisionVariant("traj_camera_se3"), data.camera, scene)
    assert {a.dtype for a in batch.values()} == {np.dtype(np.float64)}
    policy = make_policy(scene)
    with tn.GradientTape() as tape:
        total, _, _ = policy.loss(batch)
    f32 = {np.dtype(np.float32)}
    assert {(n.tensor.data if n.out is None else n.out).dtype for n in tape.nodes} == f32
    grads = policy.params.grads_by_name(tn.backward(tape, total))
    assert {g.dtype for g in grads.values()} == f32
    state = tn.OptimizerState(warmup_steps=1, total_steps=10)
    tn.adamw_step(policy.params, grads, state)
    assert {a.dtype for moments in (state.m, state.v) for a in moments.values()} == f32
    assert {t.data.dtype for _, t in policy.params.items()} == f32


def test_float64_desk_step_is_pinned(world):
    # The desk loss and a gradient checksum, pinned when every op ran in
    # float64, on these same parameter values: a float64-swapped policy
    # reproduces them exactly.
    scene, task, data, windows = world
    variant = ds.SupervisionVariant("traj_camera_se3")
    batch = pol.collate(windows[:16], variant, data.camera, scene)
    policy = float64_params(make_policy(scene))
    with tn.GradientTape() as tape:
        total, _, _ = policy.loss(batch)
    grads = policy.params.grads_by_name(tn.backward(tape, total))
    assert total.data.dtype == np.float64
    assert float(total.data) == 2.843557711651525
    assert sum(float(np.abs(g).sum()) for g in grads.values()) == 16241.475854942206


def test_study_cell_parameters_are_pinned(world):
    # Name, shape and init bytes of every parameter, in registration order,
    # of the desk policy of every study cell at seed 7: a change to how the
    # policy registers or initialises its parameters shows here.
    scene = world[0]
    digest = hashlib.sha256()
    for kind in hs.STUDY_KINDS:
        for _, variant, _ in hs.study_cells(hs.StudySpec(kind)):
            policy = pol.Policy(pol.PolicyConfig(token_dim=sw.feature_dims(scene)[0], variant=variant, seed=7))
            for name, t in policy.params.items():
                digest.update(f"{name}{t.data.shape}".encode())
                digest.update(t.data.tobytes())
    assert digest.hexdigest() == "2f876adddbe67ddc9b11444a3961b755ecbf5bce40e05a5a496f79cace59367d"
