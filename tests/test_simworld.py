import json

import numpy as np
import numpy.testing as npt
import pytest

from se3bc import geometry as geo
from se3bc import simworld as sw


def run_episode(sim, expert, seed, max_steps=None):
    state = sim.reset(seed)
    expert.reset()
    states = [state]
    actions = []
    limit = max_steps or sim.task.horizon_limit
    for _ in range(limit):
        a = expert.action(state)
        state = sim.step(state, a)
        states.append(state)
        actions.append(a)
        if sim.check_success(state):
            break
    return states, actions


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

    def test_zero_jitter_matches_spec_positions(self):
        scene, task = sw.default_scene("goal")
        sim = sw.Simulator(scene, task, sw.SimConfig(jitter_radius=0.0))
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

    def test_jitter_failure_when_unplaceable(self):
        scene, task = sw.default_scene("goal")
        # huge jitter with a sliver of free space around a corner object
        scene.objects[0].position = scene.table_lo.copy()
        sim = sw.Simulator(scene, task, sw.SimConfig(jitter_radius=5.0))
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
        expert = sw.ScriptedExpert(scene, task)
        states, _ = run_episode(sim, expert, 3)
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
        assert d <= scene.object(task.target_object_id).grasp_radius + 0.05

    def test_attachment_rigidity(self, goal_world):
        scene, task, sim = goal_world
        expert = sw.ScriptedExpert(scene, task)
        states, _ = run_episode(sim, expert, 5)
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
            expert = sw.ScriptedExpert(scene, task)
            states, _ = run_episode(sim, expert, seed)
            assert sim.check_success(states[-1]), f"{family} seed {seed} failed"
            assert states[-1].step_count <= task.horizon_limit * 0.4

    def test_descend_phase_moves_down_with_open_gripper(self, goal_world):
        scene, task, sim = goal_world
        expert = sw.ScriptedExpert(scene, task)
        state = sim.reset(8)
        for _ in range(task.horizon_limit):
            a = expert.action(state)
            if expert.phase == "descend":
                assert a.gripper < 0.5
                dp_world = state.ee_pose[:3, :3] @ a.dp
                assert dp_world[2] < 0
                break
            state = sim.step(state, a)
        else:
            pytest.fail("never reached descend phase")

    def test_open_command_after_latency(self, goal_world):
        # Once attached and above the container, the expert's emitted gripper
        # command drops to 0 exactly latency steps after the open decision.
        scene, task, sim = goal_world
        cfg = sw.ExpertConfig(gripper_latency_steps=2)
        expert = sw.ScriptedExpert(scene, task, cfg)
        state = sim.reset(9)
        emitted = []
        phases = []
        for _ in range(task.horizon_limit):
            a = expert.action(state)
            emitted.append(a.gripper)
            phases.append(expert.phase)
            state = sim.step(state, a)
            if sim.check_success(state):
                break
        assert sim.check_success(state)
        first_open_phase = phases.index("open")
        first_open_cmd = next(
            i for i in range(first_open_phase, len(emitted)) if emitted[i] < 0.5
        )
        assert first_open_cmd - first_open_phase == 2

    def test_long_family_visits_latch_first(self):
        scene, task = sw.default_scene("long")
        sim = sw.Simulator(scene, task)
        expert = sw.ScriptedExpert(scene, task)
        states, _ = run_episode(sim, expert, 4)
        latch_step = next(i for i, s in enumerate(states) if s.latch_visited)
        attach_step = next(i for i, s in enumerate(states) if s.attached is not None)
        assert latch_step < attach_step
        assert sim.check_success(states[-1])

    def test_unreachable_target_fails(self):
        scene, task = sw.default_scene("goal")
        scene.objects[0].position = np.array([-0.10, 0.05, 0.02])
        bad = sw.SceneSpec(
            table_lo=scene.table_lo,
            table_hi=scene.table_hi,
            objects=scene.objects,
            containers=scene.containers,
        )
        bad.objects[0].position = np.array([5.0, 5.0, 5.0])  # bypass scene validation
        with pytest.raises(sw.ExpertFailure):
            sw.ScriptedExpert(bad, task)


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
        ee_cam = geo.world_to_camera(state.ee_pose, cam.extrinsic)
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
    def test_round_trip(self):
        scene, task = sw.default_scene("long")
        cam = sw.default_camera()
        doc = json.loads(json.dumps(sw.scene_to_json(scene, {"long": task}, cam)))
        scene2, tasks2, cam2 = sw.scene_from_json(doc)
        npt.assert_array_equal(scene2.table_lo, scene.table_lo)
        assert [o.id for o in scene2.objects] == [o.id for o in scene.objects]
        npt.assert_array_equal(tasks2["long"].latch_center, task.latch_center)
        npt.assert_array_equal(cam2.extrinsic, cam.extrinsic)
        assert cam2.intrinsic == cam.intrinsic

    def test_schema_mismatch(self):
        with pytest.raises(sw.SceneError):
            sw.scene_from_json({"schema": "nope"})

    @pytest.mark.parametrize("key", ["table_bounds", "objects", "containers", "tasks", "camera"])
    def test_missing_top_level_key_names_it(self, key):
        scene, task = sw.default_scene("long")
        doc = sw.scene_to_json(scene, {"long": task}, sw.default_camera())
        del doc[key]
        with pytest.raises(sw.SceneError, match=f"lacks key '{key}'"):
            sw.scene_from_json(doc)

    @pytest.mark.parametrize("key,value", [
        ("table_bounds", [-0.3, 0.3]), ("camera", []), ("tasks", []), ("objects", 3),
        ("containers", {}),
    ], ids=["table_bounds", "camera", "tasks", "objects", "containers"])
    def test_wrong_type_top_level_value_names_it(self, key, value):
        scene, task = sw.default_scene("long")
        doc = sw.scene_to_json(scene, {"long": task}, sw.default_camera())
        doc[key] = value
        with pytest.raises(sw.SceneError, match=f"key '{key}' is a {type(value).__name__}"):
            sw.scene_from_json(doc)

    def test_bare_schema_names_first_missing_key(self):
        with pytest.raises(sw.SceneError, match="lacks key 'table_bounds'"):
            sw.scene_from_json({"schema": "scene_spec_v1"})

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["objects"][0].pop("position"),
        lambda doc: doc["containers"][1].update(depth=0.1),
        lambda doc: doc["tasks"]["long"].pop("target_object_id"),
        lambda doc: doc["camera"]["intrinsic"].update(fx=-1.0),
        lambda doc: doc["camera"].update(intrinsic=[220.0, 220.0, 112.0, 112.0, 224, 224]),
    ], ids=["missing_field", "unknown_field", "task_missing_field", "bad_value", "not_an_object"])
    def test_malformed_entry(self, corrupt):
        scene, task = sw.default_scene("long")
        doc = json.loads(json.dumps(sw.scene_to_json(scene, {"long": task}, sw.default_camera())))
        corrupt(doc)
        with pytest.raises(sw.SceneError, match="malformed"):
            sw.scene_from_json(doc)

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
