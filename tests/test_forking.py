"""``forking.run_tasks``: the same results and the same first error in
each of its three modes, and no child or pipe left behind."""

import multiprocessing
import multiprocessing.context
import os
import pickle
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouploss import forking
from grouploss.data import DatasetRowError, InputFormatError, LabeledDataset

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="this platform cannot fork")


def _task(i, first_failure):
    """Task ``i``: its index and the pid it ran in; from ``first_failure``
    on, every task raises instead."""
    if first_failure is not None and i >= first_failure:
        raise ValueError(f"task {i} fails")
    return i, os.getpid()


@settings(deadline=None, max_examples=60)
@given(cpus=st.integers(1, 5), n=st.integers(0, 6), pool=st.booleans(), data=st.data())
def test_every_mode_keeps_task_order_and_the_first_error(cpus, n, pool, data):
    first_failure = data.draw(st.none() | st.integers(0, max(n - 1, 0)), label="first_failure")
    tasks = [(_task, (i, first_failure)) for i in range(n)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forking, "usable_cpus", lambda: cpus)
        count = forking.workers(n)
        if first_failure is not None and first_failure < n:
            with pytest.raises(ValueError, match=f"^task {first_failure} fails$"):
                forking.run_tasks(tasks, pool)
            assert multiprocessing.active_children() == []
            return
        results = forking.run_tasks(tasks, pool)
    assert multiprocessing.active_children() == []
    assert [i for i, _ in results] == list(range(n))
    pids = [pid for _, pid in results]
    if count < 2:
        assert pids == [os.getpid()] * n
    elif count == n and not pool:
        # the first task here, each other one in a child of its own
        assert pids[0] == os.getpid() and os.getpid() not in pids[1:]
        assert len(set(pids[1:])) == n - 1
    else:
        assert os.getpid() not in pids and len(set(pids)) <= count


def _build_dataset(scores):
    return LabeledDataset(np.zeros((len(scores), 1)), np.array(scores), np.zeros(len(scores)))


def _raise(error):
    raise error


@pytest.mark.parametrize("cpus, n", [(1, 2), (2, 2), (2, 3)], ids=["serial", "per-task", "pool"])
@pytest.mark.parametrize("kind", ["row", "format"])
def test_dataset_errors_cross_a_fork(monkeypatch, cpus, n, kind):
    # the failing task is the last one, so it runs in a child in both
    # forked modes; a row that sums to 1.2 is row 1
    if kind == "row":
        failing = (_build_dataset, ([[0.5, 0.5], [0.6, 0.6]],))
    else:
        failing = (_raise, (InputFormatError("line 3: column 'score' is not a number: 'x'"),))
    monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
    with pytest.raises(ValueError) as info:
        forking.run_tasks([(int, ())] * (n - 1) + [failing])
    error = info.value
    if kind == "row":
        assert type(error) is DatasetRowError
        assert (error.row, error.problem) == (1, "scores do not sum to 1 (sum 1.2)")
        assert str(error) == "row 1: scores do not sum to 1 (sum 1.2)"
    else:
        assert type(error) is InputFormatError
        assert str(error) == "line 3: column 'score' is not a number: 'x'"
    assert multiprocessing.active_children() == []


def test_dataset_row_error_pickles():
    error = pickle.loads(pickle.dumps(DatasetRowError(4, "negative score entry -1")))
    assert (error.row, error.problem, str(error)) == (4, "negative score entry -1",
                                                      "row 4: negative score entry -1")


@pytest.mark.parametrize("cpus, n", [(3, 3), (2, 3)], ids=["per-task", "pool"])
def test_a_failing_fork_leaves_no_child(monkeypatch, cpus, n):
    # the first child sleeps; the second fork fails, and the error comes
    # back at once, with the first child ended and every pipe closed
    start = multiprocessing.context.ForkProcess.start
    started = []

    def second_fails(self):
        started.append(os.getpid())
        if len(started) == 2:
            raise OSError("fork failed")
        start(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", second_fails)
    monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
    fds = len(os.listdir("/proc/self/fd")) if sys.platform == "linux" else None
    began = time.monotonic()
    with pytest.raises(OSError, match="fork failed") as info:
        forking.run_tasks([(time.sleep, (60,))] * n)
    assert time.monotonic() - began < 30
    assert multiprocessing.active_children() == []
    # checked while ``info`` holds the error: its traceback no longer
    # holds the pool's queues, the unstarted worker's arguments
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds


def test_a_failing_pool_task_ends_the_workers_at_once(monkeypatch):
    # two workers hold a task each when the first one fails: they are
    # terminated rather than waited for, and the first failure is raised
    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    began = time.monotonic()
    with pytest.raises(ValueError, match="^the first task fails$"):
        forking.run_tasks([(_raise, (ValueError("the first task fails"),)),
                           (time.sleep, (3,)), (time.sleep, (3,))])
    assert time.monotonic() - began < 1
    assert multiprocessing.active_children() == []
