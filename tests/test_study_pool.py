"""run_study's worker pool: the rows of a serial loop, one BLAS thread per
worker, and no process left behind whether the study returns, a cell raises,
a worker dies or the parent is killed."""

import glob
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from dataclasses import replace

import pytest

from se3bc import harness as hs

# steps=0 keeps the jobs cheap: record, collate, evaluate an untrained policy.
# test_harness.py pins the rows of a two-seed closed-form study that trains.
SPECS = {kind: hs.StudySpec(kind=kind, seeds=(0, 1), episodes=1, demos=1, steps=0)
         for kind in ("ladder", "closed_form")}
ONE_SEED_LADDER = hs.StudySpec(kind="ladder", seeds=(0,), episodes=1, demos=1, steps=101)

pooled = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 or hs._openblas_threads() is None,
    reason="run_study pools its jobs only with two usable CPUs and an OpenBLAS to pin",
)


def children(pid="self"):
    """PIDs of the live or unreaped children of every thread of a process.

    A thread that exits between the listing and the read hands its children
    to a live thread of the same process, so the listing repeats until one
    pass reads the file of every thread it lists.
    """
    while True:
        pids = []
        try:
            for path in glob.glob(f"/proc/{pid}/task/*/children"):
                with open(path) as f:
                    pids.extend(int(c) for c in f.read().split())
        except FileNotFoundError:
            continue
        return pids


def assert_no_children():
    assert multiprocessing.active_children() == []
    assert children() == []


def running(pid):
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def serial_loop(spec):
    return [row for seed in spec.seeds for cell, variant, _ in hs.study_cells(spec)
            for row in hs._study_job(spec, seed, cell, variant)]


@pytest.fixture(scope="module")
def serial_rows():
    return {name: serial_loop(spec) for name, spec in SPECS.items()}


def test_serial_rows_are_pinned(serial_rows):
    # One sha256 over every row without its config_hash, then the hashes
    # themselves: a change that moves one seeded number changes the digest.
    stripped = {name: [{k: v for k, v in row.items() if k != "config_hash"} for row in rows]
                for name, rows in serial_rows.items()}
    digest = hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()
    assert digest == "5b8362647f0ae4d7bac45097722e2c95a779026b019d3069c79f02bdfb5b6416"
    assert {name: [row["config_hash"] for row in rows] for name, rows in serial_rows.items()} == {
        "ladder": ["549e6d525ad9baeb", "ecf4fe360f7d5864", "1a65fddb71c50a63", "73094daa4de5e368",
                   "03a4d5f9aedd4e7d", "59a51baf0748914c",
                   "283e44693428af3e", "24ec557e8a4c16dc", "3a6da26e5307fad9", "bcc9f15c9b482151",
                   "f8ac9f1e37bc706c", "22f7e11d9985364c"],
        "closed_form": ["d05ddfad7690134c"] * 3 + ["063d150c7ea6ddb3"] * 3,
    }


@pytest.mark.parametrize("name", sorted(SPECS))
def test_rows_and_reports_match_a_serial_loop(name, serial_rows, tmp_path):
    result = hs.run_study(SPECS[name])
    assert_no_children()
    expected = serial_rows[name]
    assert not any("error" in row for row in expected)
    assert result["rows"] == expected
    assert result["summary"] == hs.summarize_rows(expected)
    written = hs.emit_report(result["rows"], str(tmp_path / "pooled"))
    for pooled_path, serial_path in zip(written, hs.emit_report(expected, str(tmp_path / "serial"))):
        with open(pooled_path, "rb") as a, open(serial_path, "rb") as b:
            assert a.read() == b.read()


def test_a_raising_cell_is_an_error_row(monkeypatch):
    def train(data, cfg):
        raise RuntimeError(f"no {cfg.policy.variant.target}")

    monkeypatch.setattr(hs, "train", train)
    rows = hs.run_study(ONE_SEED_LADDER)["rows"]
    assert_no_children()
    assert [row["error"] for row in rows] == [f"no {cell}" for cell in hs.LADDER_TARGETS]


@pooled
def test_a_dead_worker_fails_its_jobs_not_the_study(monkeypatch):
    monkeypatch.setattr(hs, "train", lambda data, cfg: os._exit(1))
    rows = hs.run_study(ONE_SEED_LADDER)["rows"]
    assert_no_children()
    assert [(row["cell"], row["seed"]) for row in rows] == [(c, 0) for c in hs.LADDER_TARGETS]
    assert all("terminated abruptly" in row["error"] for row in rows)


@pooled
def test_an_error_in_the_parent_waits_for_the_workers(monkeypatch):
    class Interrupted(BaseException):  # as KeyboardInterrupt, not an error row
        pass

    def result(future, timeout=None):
        raise Interrupted

    def train(data, cfg):
        time.sleep(0.1)
        raise RuntimeError("not trained")

    monkeypatch.setattr(hs, "train", train)
    monkeypatch.setattr(Future, "result", result)
    with pytest.raises(Interrupted):
        hs.run_study(ONE_SEED_LADDER)
    assert_no_children()


@pooled
def test_workers_run_one_blas_thread(monkeypatch):
    get_threads, _ = hs._openblas_threads()
    before = get_threads()

    def train(data, cfg):
        raise RuntimeError(f"{get_threads()} BLAS threads")

    monkeypatch.setattr(hs, "train", train)
    rows = hs.run_study(ONE_SEED_LADDER)["rows"]
    assert_no_children()
    assert [row["error"] for row in rows] == ["1 BLAS threads"] * len(hs.LADDER_TARGETS)
    assert get_threads() == before


def test_without_a_blas_pin_the_jobs_run_in_process(monkeypatch, serial_rows):
    def fork():
        raise AssertionError("run_study started a process")

    monkeypatch.setattr(hs, "_openblas_threads", lambda: None)
    monkeypatch.setattr(os, "fork", fork)
    one_seed = replace(SPECS["ladder"], seeds=(0,))
    assert hs.run_study(one_seed)["rows"] == serial_rows["ladder"][:len(hs.LADDER_TARGETS)]


# The no_traj job, submitted last, sleeps in one worker; the other worker
# takes the rest, which fail at once, and then waits on the job queue.
ORPHANING_STUDY = """
import time
from se3bc import harness as hs

def train(data, cfg):
    if cfg.policy.variant.target == "no_traj":
        time.sleep(60)
    raise RuntimeError("not trained")

hs.train = train
hs.run_study(hs.StudySpec(kind="ladder", seeds=(0,), demos=1, episodes=1, steps=101))
"""


@pooled
@pytest.mark.slow
def test_workers_exit_when_the_parent_is_killed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hs.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen([sys.executable, "-c", ORPHANING_STUDY], env=env)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert proc.poll() is None and time.monotonic() < deadline, "no workers started"
            time.sleep(0.05)
            workers = children(proc.pid)
        time.sleep(0.3)  # let the second worker run out of jobs
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while any(running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in workers if running(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in workers:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
