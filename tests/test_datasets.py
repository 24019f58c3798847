import dataclasses
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from se3bc import datasets as ds
from se3bc import geometry as geo
from se3bc import simworld as sw


@pytest.fixture(scope="module")
def small_dataset():
    scene, task = sw.default_scene("goal")
    return ds.record_demonstrations(scene, task, n=5, seed=100)


class TestRecording:
    def test_single_noiseless_episode_succeeds(self):
        scene, task = sw.default_scene("goal")
        data = ds.record_demonstrations(scene, task, n=1, seed=0)
        assert len(data.demos) == 1
        demo = data.demos[0]
        # replay the recorded executed actions and re-check success
        sim = sw.Simulator(scene, task)
        state = sim.reset(demo.seed)
        for step in demo.steps[:-1]:
            state = sim.step(state, step.action)
        assert sim.check_success(state)

    def test_recording_deterministic(self, tmp_path):
        scene, task = sw.default_scene("goal")
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ds.write_dataset(str(p1), ds.record_demonstrations(scene, task, n=2, seed=7))
        ds.write_dataset(str(p2), ds.record_demonstrations(scene, task, n=2, seed=7))
        assert p1.read_bytes() == p2.read_bytes()

    def test_per_step_invariants(self, small_dataset):
        data = small_dataset
        for demo in data.demos:
            for t, step in enumerate(demo.steps):
                cam_expect = geo.world_to_camera(step.ee_pose_world, data.camera.extrinsic)
                assert np.max(np.abs(step.ee_pose_cam - cam_expect)) < 1e-10
                if t + 1 < len(demo.steps):
                    nxt = geo.apply_action(step.ee_pose_world, step.action)
                    assert np.max(np.abs(nxt - demo.steps[t + 1].ee_pose_world)) < 1e-9
            # final record is the stationary pad
            last = demo.steps[-1]
            npt.assert_array_equal(last.action.dp, np.zeros(3))
            npt.assert_array_equal(last.action.dtheta, np.zeros(3))

    def test_consistency_triangle(self, small_dataset):
        # world poses, camera poses, and action chain reconstruct each other
        data = small_dataset
        for demo in data.demos:
            cur = demo.steps[0].ee_pose_world.copy()
            for t, step in enumerate(demo.steps[:-1]):
                cur = geo.apply_action(cur, step.action)
                target = demo.steps[t + 1].ee_pose_world
                assert np.max(np.abs(cur - target)) < 1e-8
                cam = geo.world_to_camera(cur, data.camera.extrinsic)
                assert np.max(np.abs(cam - demo.steps[t + 1].ee_pose_cam)) < 1e-8

    def test_failure_rate_raises(self):
        scene, task = sw.default_scene("goal")
        task.horizon_limit = 3  # impossible budget
        with pytest.raises(ds.DatasetError, match="20%"):
            ds.record_demonstrations(scene, task, n=5, seed=1)


class TestWindows:
    def test_window_count_and_padding(self, small_dataset):
        demo = small_dataset.demos[0]
        length = len(demo.steps)
        windows = ds.make_windows(demo, horizon=8)
        assert len(windows) == length

    def test_padded_rows_are_stationary(self, small_dataset):
        demo = small_dataset.demos[0]
        windows = ds.make_windows(demo, horizon=8)
        last = windows[-1]
        npt.assert_array_equal(last.target_actions[:, :6], np.zeros((8, 6)))
        final_pose = geo.se3_to_pose(demo.steps[-1].ee_pose_cam)
        for h in range(8):
            npt.assert_array_equal(last.target_poses_cam[h], final_pose)

    def test_actions_chain_to_target_poses(self, small_dataset):
        data = small_dataset
        for demo in data.demos[:2]:
            windows = ds.make_windows(demo, horizon=8)
            for t, w in list(enumerate(windows))[::5]:
                cur = demo.steps[t].ee_pose_world.copy()
                for h in range(8):
                    a = geo.RelativeAction(w.target_actions[h, :3], w.target_actions[h, 3:6])
                    cur = geo.apply_action(cur, a)
                    pose_cam = geo.world_to_camera(cur, data.camera.extrinsic)
                    npt.assert_allclose(
                        geo.se3_to_pose(pose_cam), w.target_poses_cam[h], atol=1e-8
                    )

    def test_horizon_validation(self, small_dataset):
        with pytest.raises(ds.DatasetError):
            ds.make_windows(small_dataset.demos[0], horizon=0)

    @pytest.mark.parametrize("horizon", [1, 8, 40])
    def test_matches_per_step_reference(self, goal_and_long_demos, horizon):
        for demo in goal_and_long_demos:
            windows = ds.make_windows(demo, horizon)
            expect = per_step_windows(demo, horizon)
            assert len(windows) == len(expect) == len(demo.steps)
            for w, (poses, actions, t) in zip(windows, expect):
                for got, ref in [(w.target_poses_cam, poses), (w.target_actions, actions)]:
                    assert got.dtype == ref.dtype and got.shape == ref.shape
                    assert got.tobytes() == ref.tobytes()
                npt.assert_array_equal(w.state_vec, demo.steps[t].state_vec)
                assert w.features is demo.steps[t].features


@pytest.fixture(scope="module")
def goal_and_long_demos():
    demos = []
    for family in ["goal", "long"]:
        scene, task = sw.default_scene(family)
        demos += ds.record_demonstrations(scene, task, n=2, seed=11).demos
    return demos


def per_step_windows(demo, horizon):
    """Reference windowing: one (t, h) pair at a time, tail rows rebuilt as a
    zero rigid action with the final gripper command held.

    Returns (target_poses_cam, target_actions, t) per timestep.
    """
    last = len(demo.steps) - 1
    poses_cam = [geo.se3_to_pose(s.ee_pose_cam) for s in demo.steps]
    out = []
    for t in range(len(demo.steps)):
        poses, actions = np.zeros((horizon, 6)), np.zeros((horizon, 7))
        for h in range(1, horizon + 1):
            poses[h - 1] = poses_cam[min(t + h, last)]
            if t + h - 1 >= last:
                actions[h - 1] = np.concatenate([np.zeros(6), [demo.steps[last].action.gripper]])
            else:
                src = demo.steps[t + h - 1]
                actions[h - 1] = np.concatenate([src.action.dp, src.action.dtheta, [src.action.gripper]])
        out.append((poses, actions, t))
    return out


@pytest.fixture(scope="module")
def window(small_dataset):
    return ds.make_windows(small_dataset.demos[0], horizon=8)[3]


class TestSupervision:
    def test_camera_se3_is_pose_vector(self, window, small_dataset):
        targets = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("traj_camera_se3"),
                                  small_dataset.camera)
        assert targets.shape == (8, 6)
        npt.assert_allclose(targets, window.target_poses_cam, atol=0)

    def test_world_se3_matches_extrinsic_lift(self, window, small_dataset):
        targets = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("traj_world_se3"),
                                  small_dataset.camera)
        for h in range(8):
            t_world = geo.camera_to_world(
                geo.pose_to_se3(window.target_poses_cam[h]), small_dataset.camera.extrinsic
            )
            npt.assert_allclose(targets[h], geo.se3_to_pose(t_world), atol=1e-9)

    def test_2d_is_projection_of_3d(self, window, small_dataset):
        cam = small_dataset.camera
        t2 = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("traj_2d"), cam)
        t3 = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("traj_3d_pos"), cam)
        assert (t2.shape[1], t3.shape[1]) == (2, 3)
        for h in range(8):
            uv = geo.project_pinhole(t3[h], cam.intrinsic)
            npt.assert_allclose(t2[h], [uv[0] / cam.intrinsic.width, uv[1] / cam.intrinsic.height],
                                atol=1e-12)

    def test_quaternion_targets_unit_norm(self, window, small_dataset):
        targets = ds.pose_targets(
            window.target_poses_cam,
            ds.SupervisionVariant("traj_camera_se3", rotation_param="quaternion"),
            small_dataset.camera)
        assert targets.shape[1] == 7
        npt.assert_allclose(np.linalg.norm(targets[:, 3:], axis=1), np.ones(8), atol=1e-12)

    def test_no_traj_empty(self, window, small_dataset):
        targets = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("no_traj"),
                                  small_dataset.camera)
        assert targets.shape == (8, 0)

    def test_aux_equals_camera_targets(self, window, small_dataset):
        a = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("aux_traj"),
                            small_dataset.camera)
        c = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("traj_camera_se3"),
                            small_dataset.camera)
        npt.assert_array_equal(a, c)

    def test_supervision_deterministic(self, window, small_dataset):
        v = ds.SupervisionVariant("traj_camera_se3")
        a = ds.pose_targets(window.target_poses_cam, v, small_dataset.camera)
        b = ds.pose_targets(window.target_poses_cam, v, small_dataset.camera)
        npt.assert_array_equal(a, b)

    def test_all_variant_dims(self, window, small_dataset):
        for target in ds.TARGET_KINDS:
            rotations = ds.ROTATION_PARAMS if target in ds.SE3_TARGETS else ["axis_angle"]
            for rot in rotations:
                v = ds.SupervisionVariant(target, rotation_param=rot)
                targets = ds.pose_targets(window.target_poses_cam, v, small_dataset.camera)
                assert targets.shape == (8, v.target_dim)

    def test_invalid_variant_combo(self):
        with pytest.raises(ds.DatasetError):
            ds.SupervisionVariant("traj_2d", rotation_param="quaternion")

    def test_chart_violation_names_step(self, window, small_dataset):
        bad = ds.TrainingWindow(
            features=window.features,
            state_vec=window.state_vec,
            target_poses_cam=np.vstack(
                [window.target_poses_cam[:5],
                 np.concatenate([np.zeros(3), [math.pi - 1e-9, 0, 0]])[None, :],
                 window.target_poses_cam[6:]]
            ),
            target_actions=window.target_actions,
        )
        with pytest.raises(ds.DatasetError, match="step 5"):
            ds.pose_targets(bad.target_poses_cam, ds.SupervisionVariant("traj_camera_se3"),
                            small_dataset.camera)


class TestFileFormat:
    def test_empty_dataset_round_trip(self, tmp_path):
        scene, task = sw.default_scene("goal")
        data = ds.DemoDataset(scene, task, sw.default_camera(), sw.SimConfig(), sw.ExpertConfig(), 5)
        path = str(tmp_path / "empty.jsonl")
        ds.write_dataset(path, data)
        back = ds.read_dataset(path)
        assert back.demos == []
        assert back.root_seed == 5

    def test_round_trip_exact(self, tmp_path, small_dataset):
        path = str(tmp_path / "demos.jsonl")
        ds.write_dataset(path, small_dataset)
        back = ds.read_dataset(path)
        assert len(back.demos) == len(small_dataset.demos)
        for da, db in zip(small_dataset.demos, back.demos):
            assert da.seed == db.seed
            for sa, sbk in zip(da.steps, db.steps):
                npt.assert_array_equal(sa.ee_pose_world, sbk.ee_pose_world)
                npt.assert_array_equal(sa.ee_pose_cam, sbk.ee_pose_cam)
                npt.assert_array_equal(sa.state_vec, sbk.state_vec)
                npt.assert_array_equal(sa.action.dp, sbk.action.dp)
                npt.assert_array_equal(sa.action.dtheta, sbk.action.dtheta)
                assert sa.action.gripper == sbk.action.gripper
                for block in ("lang", "visual", "depth"):
                    npt.assert_array_equal(getattr(sa.features, block), getattr(sbk.features, block))
        assert back.config_hash() == small_dataset.config_hash()

    def test_corrupted_line_names_line(self, tmp_path, small_dataset):
        path = tmp_path / "demos.jsonl"
        ds.write_dataset(str(path), small_dataset)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # truncate line 3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.DatasetFormatError, match="line 3"):
            ds.read_dataset(str(path))

    def test_rejects_non_metric_depth(self, tmp_path, small_dataset):
        path = tmp_path / "demos.jsonl"
        ds.write_dataset(str(path), small_dataset)
        lines = path.read_text().splitlines()
        assert '"depth_mode": "metric"' in lines[3]
        lines[3] = lines[3].replace('"depth_mode": "metric"', '"depth_mode": "relative"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.DatasetFormatError, match="line 4: .*'relative'"):
            ds.read_dataset(str(path))

    def test_rejects_gripper_cmd_that_differs_from_the_action(self, tmp_path, small_dataset):
        path = tmp_path / "demos.jsonl"
        ds.write_dataset(str(path), small_dataset)
        lines = path.read_text().splitlines()
        row = json.loads(lines[5])
        row["gripper_cmd"] = 1.0 - row["action"]["gripper"]
        lines[5] = json.dumps(row, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.DatasetFormatError, match="line 6: gripper_cmd"):
            ds.read_dataset(str(path))

    def test_rejects_a_final_record_that_moves(self, tmp_path, small_dataset):
        path = tmp_path / "demos.jsonl"
        ds.write_dataset(str(path), small_dataset)
        lines = path.read_text().splitlines()
        final = len(small_dataset.demos[0].steps)  # index of demo 0's final record
        row = json.loads(lines[final])
        assert (row["demo"], row["t"]) == (0, final - 1)
        row["action"]["dp"][2] = 0.01
        lines[final] = json.dumps(row, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.DatasetFormatError, match=f"line {final + 1}: final record of demo 0"):
            ds.read_dataset(str(path))

    def test_rejects_a_negative_demo_index(self, tmp_path, small_dataset):
        path = tmp_path / "demos.jsonl"
        ds.write_dataset(str(path), dataclasses.replace(small_dataset, demos=small_dataset.demos[:2]))
        lines = path.read_text().splitlines()
        first = 1 + len(small_dataset.demos[0].steps)  # index of demo 1's first record
        for k in range(first, len(lines)):
            row = json.loads(lines[k])
            row["demo"] = -1
            lines[k] = json.dumps(row, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.DatasetFormatError, match=f"line {first + 1}: demo -1"):
            ds.read_dataset(str(path))

    @pytest.mark.parametrize("key", ["demo", "t"])
    def test_rejects_a_bool_demo_or_timestep(self, tmp_path, small_dataset, key):
        path = tmp_path / "demos.jsonl"
        ds.write_dataset(str(path), small_dataset)
        lines = path.read_text().splitlines()
        k = 2 + len(small_dataset.demos[0].steps)  # index of demo 1's second record
        row = json.loads(lines[k])
        assert (row["demo"], row["t"]) == (1, 1)
        row[key] = True  # equal to 1, so only its type gives it away
        lines[k] = json.dumps(row, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.DatasetFormatError, match=f"line {k + 1}: (demo|timestep) True"):
            ds.read_dataset(str(path))

    @pytest.mark.parametrize("corrupt", [
        lambda header: header.pop("episode_seeds"),
        lambda header: header["scene"]["objects"][0].pop("position"),
        lambda header: header["scene"]["tasks"]["task"].update(colour="red"),
        lambda header: header["sim_config"].update(gravity=9.81),
        lambda header: header["scene"].update(tasks=[]),
        lambda header: header.update(scene=[]),
    ], ids=["no_episode_seeds", "object_without_position", "task_with_unknown_field",
            "unknown_sim_field", "scene_tasks_not_an_object", "scene_not_an_object"])
    def test_malformed_header_names_line_1(self, tmp_path, small_dataset, corrupt):
        path = tmp_path / "demos.jsonl"
        ds.write_dataset(str(path), small_dataset)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        corrupt(header)
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.DatasetFormatError, match="line 1: "):
            ds.read_dataset(str(path))

    def test_rejects_a_file_cut_at_a_demo_boundary(self, tmp_path, small_dataset):
        path = tmp_path / "demos.jsonl"
        ds.write_dataset(str(path), small_dataset)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: 1 + len(small_dataset.demos[0].steps)]) + "\n")
        with pytest.raises(ds.DatasetFormatError, match="demo 1 has no records"):
            ds.read_dataset(str(path))

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other_v9"}\n')
        with pytest.raises(ds.DatasetFormatError, match="line 1"):
            ds.read_dataset(str(path))
