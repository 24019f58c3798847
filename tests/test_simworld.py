import dataclasses
import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from se3bc import datasets as ds
from se3bc import geometry as geo
from se3bc import simworld as sw

# sha256 of one seeded expert episode per (family, gripper latency); see
# TestExpert.test_expert_episode_is_pinned.
EXPERT_PINS = {
    ("goal", 0): "932626df69ede6b1b57ddb37950b20aa1a8872107d2f4dae4a84d0007a23a3b5",
    ("goal", 1): "ca1377dab55765c9b519f105adb991d8788a4b2839102d8b4ad4935d7d0dbec0",
    ("spatial", 0): "ef940889311f093717b2f662e38f3ac0709154ca425d3b1193e6b1561cb17df5",
    ("spatial", 1): "feceae1c118d440944d62834d654cc042164db58eb53fbec9051b2e9c73d92f7",
    ("long", 0): "f381bc0d1c153e0ebc409ffaaa7b6cb63ebcc05d8565aad40d214c7bca458495",
    ("long", 1): "c94a0fcefbc57066111ec86692f54b27f892b8bf526f89968e2181adcdd546a8",
}


class OneExpert:
    """sw.drive's controller for one episode of one expert, keeping the phase
    and command the expert answered each state with."""

    def __init__(self, expert):
        self.expert, self.phases, self.commands = expert, [], []

    def actions(self, episodes, states):
        (state,) = states
        a = self.expert.action(state)
        self.phases.append(self.expert.phase)
        self.commands.append(a)
        return [(a.dp, a.dtheta, a.gripper)]


def drive_expert(scene, task, seed, latency=ds.RECORD_GRIPPER_LATENCY):
    """One expert episode through sw.drive at the recording latency; returns
    the controller and every state, the final one included."""
    controller = OneExpert(sw.ScriptedExpert(scene, task))
    _, (states,) = sw.drive(controller, scene, task, [seed], latency)
    return controller, states


def run_episode(sim, seed):
    return drive_expert(sim.scene, sim.task, seed)[1]


@pytest.fixture
def goal_world():
    scene, task = sw.default_scene("goal")
    return scene, task, sw.Simulator(scene, task)


class TestReset:
    def test_deterministic(self, goal_world):
        scene, task, sim = goal_world
        a, b = sim.reset(42), sim.reset(42)
        npt.assert_array_equal(a.ee_pose, b.ee_pose)
        for oid in a.object_poses:
            npt.assert_array_equal(a.object_poses[oid], b.object_poses[oid])
        assert a.gripper == 0.0 and a.attached is None and a.step_count == 0

    def test_zero_jitter_matches_spec_positions(self, monkeypatch):
        monkeypatch.setattr(sw, "JITTER_RADIUS", 0.0)
        scene, task = sw.default_scene("goal")
        sim = sw.Simulator(scene, task)
        state = sim.reset(7)
        for obj in scene.objects:
            npt.assert_array_equal(state.object_poses[obj.id], obj.position)

    def test_jitter_within_radius_over_seed_sweep(self, goal_world):
        scene, task, sim = goal_world
        for seed in range(100):
            state = sim.reset(seed)
            for obj in scene.objects:
                d = np.linalg.norm(state.object_poses[obj.id] - obj.position)
                assert d <= 0.03 + 1e-12

    def test_jitter_failure_when_unplaceable(self, monkeypatch):
        monkeypatch.setattr(sw, "JITTER_RADIUS", 5.0)
        scene, task = sw.default_scene("goal")
        # huge jitter with a sliver of free space around a corner object
        scene.objects[0].position = scene.table_lo.copy()
        sim = sw.Simulator(scene, task)
        with pytest.raises(sw.SceneError):
            sim.reset(3)


class TestStep:
    def test_zero_action_changes_only_step_count(self, goal_world):
        scene, task, sim = goal_world
        s0 = sim.reset(1)
        s1 = sim.step(s0, geo.RelativeAction.zero())
        npt.assert_array_equal(s1.ee_pose, s0.ee_pose)
        assert s1.gripper == s0.gripper and s1.attached is None
        for oid in s0.object_poses:
            npt.assert_array_equal(s1.object_poses[oid], s0.object_poses[oid])
        assert s1.step_count == 1

    def test_translation_clamped_to_bound(self, goal_world):
        scene, task, sim = goal_world
        s0 = sim.reset(1)
        s1 = sim.step(s0, geo.RelativeAction([0.2, 0, 0], np.zeros(3)))
        moved = s1.ee_pose[:3, 3] - s0.ee_pose[:3, 3]
        npt.assert_allclose(moved, [0.05, 0, 0], atol=1e-12)

    def test_clamp_soundness_random_actions(self, goal_world):
        scene, task, sim = goal_world
        rng = np.random.default_rng(0)
        state = sim.reset(2)
        for _ in range(50):
            a = geo.RelativeAction(rng.normal(scale=0.2, size=3), rng.normal(scale=0.5, size=3),
                                   float(rng.uniform()))
            new = sim.step(state, a)
            rel = geo.relative_action(state.ee_pose, new.ee_pose)
            assert np.linalg.norm(rel.dp) <= 0.05 + 1e-12
            assert np.linalg.norm(rel.dtheta) <= 0.2 + 1e-12
            state = new

    def test_gripper_rate_limit(self, goal_world):
        scene, task, sim = goal_world
        s = sim.reset(1)
        s = sim.step(s, geo.RelativeAction(np.zeros(3), np.zeros(3), 1.0))
        assert s.gripper == 0.5
        s = sim.step(s, geo.RelativeAction(np.zeros(3), np.zeros(3), 1.0))
        assert s.gripper == 1.0

    def test_horizon_exceeded_raises(self):
        scene, task = sw.default_scene("goal")
        task.horizon_limit = 2
        sim = sw.Simulator(scene, task)
        s = sim.reset(1)
        s = sim.step(s, geo.RelativeAction.zero())
        s = sim.step(s, geo.RelativeAction.zero())
        with pytest.raises(sw.EpisodeTerminated):
            sim.step(s, geo.RelativeAction.zero())

    def test_attach_on_upward_crossing(self, goal_world):
        scene, task, sim = goal_world
        state = sim.reset(3)
        obj_p = state.object_poses[task.target_object_id]
        # teleport-by-steps: walk the gripper to the object, then close
        states = run_episode(sim, 3)
        attach_steps = [
            i
            for i, (a, b) in enumerate(zip(states[:-1], states[1:]))
            if a.attached is None and b.attached == task.target_object_id
        ]
        assert len(attach_steps) == 1
        i = attach_steps[0]
        # crossing step: gripper passed 0.5 going up, object inside grasp radius
        assert states[i].gripper < 0.5 <= states[i + 1].gripper
        d = np.linalg.norm(states[i].object_poses[task.target_object_id]
                           - states[i + 1].ee_pose[:3, 3])
        assert d <= sw.GRASP_RADIUS + 0.05

    def test_attachment_rigidity(self, goal_world):
        scene, task, sim = goal_world
        states = run_episode(sim, 5)
        rels = []
        for s in states:
            if s.attached == task.target_object_id:
                obj_local = s.ee_pose[:3, :3].T @ (s.object_poses[s.attached] - s.ee_pose[:3, 3])
                rels.append(obj_local)
        assert len(rels) > 3
        for r in rels[1:]:
            npt.assert_allclose(r, rels[0], atol=1e-12)


class TestExpert:
    @pytest.mark.parametrize("family", ["goal", "spatial", "long"])
    def test_expert_succeeds_100_seeds(self, family):
        scene, task = sw.default_scene(family)
        sim = sw.Simulator(scene, task)
        for seed in range(100):
            states = run_episode(sim, seed)
            assert sim.check_success(states[-1]), f"{family} seed {seed} failed"
            assert states[-1].step_count <= task.horizon_limit * 0.4

    @pytest.mark.parametrize("family,latency", list(EXPERT_PINS))
    def test_expert_episode_is_pinned(self, family, latency):
        # One sha256 over the phase, the emitted dp and dtheta and the
        # executed gripper command of every step of one seeded episode: a
        # change that moves a phase switch by one step, or any command by one
        # ulp, changes it.
        scene, task = sw.default_scene(family)
        run, states = drive_expert(scene, task, 5, latency)
        digest = hashlib.sha256()
        for phase, a, after in zip(run.phases, run.commands, states[1:], strict=True):
            digest.update(phase.encode())
            digest.update(np.concatenate([a.dp, a.dtheta, [after.gripper_cmd]]).tobytes())
        assert sw.Simulator(scene, task).check_success(states[-1])
        assert digest.hexdigest() == EXPERT_PINS[family, latency]

    def test_descend_phase_moves_down_with_open_gripper(self, goal_world):
        scene, task, sim = goal_world
        run, states = drive_expert(scene, task, 8)
        assert "descend" in run.phases, "never reached descend phase"
        t = run.phases.index("descend")
        assert states[t + 1].gripper_cmd < 0.5
        dp_world = states[t].ee_pose[:3, :3] @ run.commands[t].dp
        assert dp_world[2] < 0

    def test_open_command_after_latency(self, goal_world):
        # Once attached and above the container, the executed gripper
        # command drops to 0 exactly latency steps after the open decision.
        scene, task, sim = goal_world
        run, states = drive_expert(scene, task, 9, latency=2)
        assert sim.check_success(states[-1])
        executed = [state.gripper_cmd for state in states[1:]]
        first_open_phase = run.phases.index("open")
        first_open_cmd = next(
            i for i in range(first_open_phase, len(executed)) if executed[i] < 0.5
        )
        assert first_open_cmd - first_open_phase == 2

    def test_long_family_visits_latch_first(self):
        scene, task = sw.default_scene("long")
        sim = sw.Simulator(scene, task)
        states = run_episode(sim, 4)
        latch_step = next(i for i, s in enumerate(states) if s.latch_visited)
        attach_step = next(i for i, s in enumerate(states) if s.attached is not None)
        assert latch_step < attach_step
        assert sim.check_success(states[-1])


def state_fields(state):
    """Every field of a SimState, arrays as bytes, for exact comparison."""
    def key(value):
        if isinstance(value, np.ndarray):
            return value.tobytes()
        if isinstance(value, dict):
            return sorted((k, key(v)) for k, v in value.items())
        return value
    return [key(getattr(state, f.name)) for f in dataclasses.fields(state)]


class TestDrive:
    def test_returns_every_state_of_each_episode(self):
        # A lockstep batch of expert episodes with the horizon cut to 27
        # steps: spatial seed 2 succeeds at step 26, seeds 0 and 1 at step
        # 27, and seeds 3 to 5 (28 steps uncut) end at the horizon.
        scene, task = sw.default_scene("spatial")
        task.horizon_limit = 27
        sim = sw.Simulator(scene, task)
        seeds = list(range(6))
        latency = ds.RECORD_GRIPPER_LATENCY
        success, episodes = sw.drive(ds._Experts(scene, task, len(seeds)), scene, task, seeds,
                                     latency)
        assert success == [True, True, True, False, False, False]
        assert [len(states) for states in episodes] == [28, 28, 27, 28, 28, 28]
        for seed, ok, states in zip(seeds, success, episodes):
            assert state_fields(states[0]) == state_fields(sim.reset(seed))
            assert [s.step_count for s in states] == list(range(len(states)))
            assert [sim.check_success(s) for s in states] == [False] * (len(states) - 1) + [ok]
            assert ok or states[-1].step_count == task.horizon_limit
            _, (alone,) = sw.drive(ds._Experts(scene, task, 1), scene, task, [seed], latency)
            assert [state_fields(s) for s in states] == [state_fields(s) for s in alone]


class TestSuccess:
    def test_detached_at_center_is_success(self, goal_world):
        scene, task, sim = goal_world
        state = sim.reset(1)
        state.object_poses[task.target_object_id] = scene.container(task.target_container_id).center.copy()
        assert sim.check_success(state)

    def test_attached_at_center_is_not_success(self, goal_world):
        scene, task, sim = goal_world
        state = sim.reset(1)
        state.object_poses[task.target_object_id] = scene.container(task.target_container_id).center.copy()
        state.attached = task.target_object_id
        assert not sim.check_success(state)

    def test_long_requires_latch(self):
        scene, task = sw.default_scene("long")
        sim = sw.Simulator(scene, task)
        state = sim.reset(1)
        state.object_poses[task.target_object_id] = scene.container(task.target_container_id).center.copy()
        assert not sim.check_success(state)
        state.latch_visited = True
        assert sim.check_success(state)


class TestFeaturize:
    def test_metric_depth_is_camera_z(self, goal_world):
        scene, task, sim = goal_world
        cam = sw.default_camera()
        state = sim.reset(0)
        f = sw.featurize(state, task, scene, cam)
        _, n_kp, _ = sw.feature_dims(scene)
        ee_cam = geo.se3_inverse(cam.extrinsic) @ state.ee_pose
        # last keypoint is the end-effector; payload column holds z
        assert f.depth[-1, n_kp + 2] == pytest.approx(ee_cam[2, 3], abs=1e-12)

    def test_relative_depth_spans_unit_interval(self, goal_world):
        scene, task, sim = goal_world
        cam = sw.default_camera()
        _, n_kp, _ = sw.feature_dims(scene)
        for seed in range(20):
            state = sim.reset(seed)
            z = sw.relative_depth(sw.featurize(state, task, scene, cam).depth)[:, n_kp + 2]
            assert z.min() == 0.0 and z.max() == 1.0

    def test_visual_tokens_normalized(self, goal_world):
        scene, task, sim = goal_world
        cam = sw.default_camera()
        state = sim.reset(1)
        f = sw.featurize(state, task, scene, cam)
        _, n_kp, _ = sw.feature_dims(scene)
        payload = f.visual[:, n_kp + 2 : n_kp + 4]
        assert np.all(payload > 0.0) and np.all(payload < 1.0)

    def test_instruction_onehots(self, goal_world):
        scene, task, sim = goal_world
        cam = sw.default_camera()
        f = sw.featurize(sim.reset(0), task, scene, cam)
        _, n_kp, _ = sw.feature_dims(scene)
        assert f.lang[0, n_kp] == 1.0  # object-instruction tag
        assert f.lang[1, n_kp + 1] == 1.0  # container-instruction tag
        assert f.lang[0, n_kp + 2] == 1.0  # block_red is object 0
        assert f.lang[1, n_kp + 2] == 1.0  # bin_a is container 0


class TestRelativeDepth:
    def test_batch_matches_per_frame(self, goal_world):
        scene, task, sim = goal_world
        cam = sw.default_camera()
        frames = np.stack([sw.featurize(sim.reset(s), task, scene, cam).depth for s in range(4)])
        batched = sw.relative_depth(frames)
        for i, frame in enumerate(frames):
            npt.assert_array_equal(batched[i], sw.relative_depth(frame))

    def test_constant_frame_gets_zero_column(self):
        n_kp, dt = 3, 9
        col = n_kp + 2
        depth = np.random.default_rng(0).normal(size=(2, n_kp, dt))
        depth[0, :, col] = 0.7  # frame 0: every keypoint at one depth
        out = sw.relative_depth(depth)
        npt.assert_array_equal(out[0, :, col], np.zeros(n_kp))
        assert out[1, :, col].min() == 0.0 and out[1, :, col].max() == 1.0
        others = [c for c in range(dt) if c != col]
        npt.assert_array_equal(out[..., others], depth[..., others])
        assert np.all(depth[0, :, col] == 0.7)  # input left as it was


class TestSceneJson:
    """Scene entries given as plain values (lists and numbers), as a scene file holds them."""

    @pytest.mark.parametrize("key,value", [("table_lo", [-0.3, 0.3]), ("table_hi", [0.3, 0.3])],
                             ids=["table_bounds", "table_hi"])
    def test_wrong_type_top_level_value_names_it(self, key, value):
        entries = {"table_lo": [-0.3, -0.3, 0.0], "table_hi": [0.3, 0.3, 0.3], key: value}
        with pytest.raises(sw.SceneError, match=f"{key} must hold 3 values, got 2"):
            sw.SceneSpec(**entries, objects=[], containers=[])

    @pytest.mark.parametrize("build,message", [
        (lambda: sw.ObjectSpec("a", [0.5, 0.5]), "object 'a' position must hold 3 values, got 2"),
        (lambda: sw.TaskSpec("a", "c", family="long", latch_center=[0.1, 0.1]),
         "latch_center must hold 3 values, got 2"),
        (lambda: _scene([sw.ObjectSpec("a", [0.5, np.nan, 0.5])]), "object 'a' outside table bounds"),
    ], ids=["missing_field", "task_missing_field", "bad_value"])
    def test_malformed_entry(self, build, message):
        with pytest.raises(sw.SceneError, match=message):
            build()

    def test_scene_validation(self):
        with pytest.raises(sw.SceneError):
            sw.SceneSpec(
                table_lo=[0, 0, 0],
                table_hi=[1, 1, 1],
                objects=[sw.ObjectSpec("a", [2, 0, 0])],
                containers=[],
            )
        with pytest.raises(sw.SceneError):
            sw.SceneSpec(
                table_lo=[0, 0, 0],
                table_hi=[1, 1, 1],
                objects=[sw.ObjectSpec("a", [0.5, 0.5, 0]), sw.ObjectSpec("a", [0.2, 0.2, 0])],
                containers=[],
            )


def _scene(objects=(), containers=(), table_lo=(0, 0, 0)):
    return sw.SceneSpec(table_lo=table_lo, table_hi=[1, 1, 1], objects=list(objects),
                        containers=list(containers))


def _simulate_task(object_id, container_id):
    scene, _ = sw.default_scene("goal")
    return sw.Simulator(scene, sw.TaskSpec(object_id, container_id))


def _expert_for_task(object_id, container_id):
    # The targets resolve object before container.
    scene, _ = sw.default_scene("goal")
    return sw.ScriptedExpert(scene, sw.TaskSpec(object_id, container_id))


class TestSceneSpec:
    @pytest.mark.parametrize("build,message", [
        (lambda: _scene(table_lo=[0, 0, 1]), "table_lo must be strictly below table_hi"),
        (lambda: _scene([sw.ObjectSpec("a", [2, 0, 0])]), "object 'a' outside table bounds"),
        (lambda: _scene(containers=[sw.ContainerSpec("c", [0, 0, -1])]),
         "container 'c' outside table bounds"),
        (lambda: _scene([sw.ObjectSpec("a", [0.5, 0.5, 0]), sw.ObjectSpec("a", [0.2, 0.2, 0])]),
         "ids must be unique"),
        (lambda: sw.TaskSpec("a", "c", family="kitchen"), "unknown task family 'kitchen'"),
        (lambda: sw.TaskSpec("a", "c", horizon_limit=0), "horizon_limit must be > 0"),
        (lambda: sw.TaskSpec("a", "c", family="long"), "long tasks need a latch_center"),
        (lambda: _simulate_task("block_green", "bin_a"), "unknown object 'block_green'"),
        (lambda: _simulate_task("block_red", "bin_c"), "unknown container 'bin_c'"),
        (lambda: _expert_for_task("block_green", "bin_c"), "unknown object 'block_green'"),
        (lambda: _expert_for_task("block_red", "bin_c"), "unknown container 'bin_c'"),
    ], ids=["table_bounds_order", "object_outside_table",
            "container_outside_table", "duplicate_ids", "unknown_family", "horizon_limit",
            "long_without_latch", "task_unknown_object", "task_unknown_container",
            "expert_unknown_object", "expert_unknown_container"])
    def test_scene_validation(self, build, message):
        with pytest.raises(sw.SceneError, match=message):
            build()
