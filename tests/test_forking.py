"""``forking.run_tasks``: the same results and the same first error in
this process and in both forked shapes (this process and one child per
other task, or children only), each task to the child that frees up
first, and no child or pipe left behind."""

import json
import multiprocessing
import multiprocessing.context
import os
import pickle
import subprocess
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


@pytest.mark.parametrize("cpus, n, pool", [(1, 2, False), (2, 2, False), (2, 3, False),
                                           (2, 2, True)],
                         ids=["serial", "per-task", "pool", "pool=True"])
def test_tasks_that_cannot_be_pickled_run(monkeypatch, capfd, cpus, n, pool):
    # the children take their tasks from the fork, so a lambda or a
    # closure runs as it does in this process
    offset = 10
    monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
    tasks = [((lambda i: i + offset), (i,)) for i in range(n)]
    assert forking.run_tasks(tasks, pool) == [i + offset for i in range(n)]
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("cpus, n, pool", [(2, 2, False), (2, 3, False), (2, 2, True)],
                         ids=["per-task", "pool", "pool=True"])
def test_a_child_that_dies_gives_one_error(monkeypatch, cpus, n, pool):
    # the dying task is the last one, so it runs in a child in every shape
    monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
    with pytest.raises(RuntimeError, match="exited with code 7 without a result"):
        forking.run_tasks([(int, ())] * (n - 1) + [(os._exit, (7,))], pool)
    assert multiprocessing.active_children() == []


def _slow_pid():
    time.sleep(0.5)
    return os.getpid()


def test_each_task_goes_to_the_child_that_frees_up_first(monkeypatch):
    # one child holds the slow first task; the other takes every quick one
    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    slow, *quick = forking.run_tasks([(_slow_pid, ())] + [(os.getpid, ())] * 6, pool=True)
    assert len(set(quick)) == 1 and slow not in quick and os.getpid() not in quick
    assert multiprocessing.active_children() == []


def _children_after_a_pause():
    time.sleep(0.5)
    return multiprocessing.active_children()


@pytest.mark.parametrize("n", [2, 3])
def test_a_child_exits_once_it_has_sent_its_last_result(monkeypatch, n):
    # this process runs the first task; each child, done with its own
    # long before, has exited without waiting for this process to read it
    monkeypatch.setattr(forking, "usable_cpus", lambda: n)
    left, *pids = forking.run_tasks([(_children_after_a_pause, ())] + [(os.getpid, ())] * (n - 1))
    assert left == [] and os.getpid() not in pids


_CHILDREN_PRINT = """
from grouploss import forking
forking.usable_cpus = lambda: 2

def say(i):
    print("task", i)  # no flush: standard output is a pipe, so block-buffered
    return i

for r in range(50):
    forking.run_tasks([(say, (2 * r,)), (say, (2 * r + 1,))], pool=True)
"""


def _run_script(source, *argv):
    """Standard output of ``source`` run by a fresh interpreter on this
    source tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = os.path.dirname(os.path.dirname(forking.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", source, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_child_flushes_its_output_before_it_ends():
    # once every result is in, the children are joined, not terminated
    # while they may still be flushing their standard streams
    stdout = _run_script(_CHILDREN_PRINT)
    assert sorted(stdout.splitlines()) == sorted(f"task {i}" for i in range(100))


_BLAS_THREADS = """
import json, sys
from grouploss import forking

cpus, lookup = int(sys.argv[1]), sys.argv[2]
forking.usable_cpus = lambda: cpus
calls = forking.blas_thread_calls()
threads = calls[0] if calls else (lambda: None)
if calls:
    calls[1](2)  # the pool this process starts with, on any CPU count
if lookup == "none":
    forking.blas_thread_calls = lambda: None
before = threads()
results = forking.run_tasks([(threads, ()), (abs, (-3,)), (threads, ())], pool=True)
print(json.dumps([before, results, threads()]))
"""


def _blas_threads(cpus, lookup="found"):
    """The caller's BLAS thread count before and after a ``run_tasks`` of
    three tasks on ``cpus`` CPUs, and the tasks' results: the count where
    the first and the last ran, and ``abs(-3)``."""
    return json.loads(_run_script(_BLAS_THREADS, str(cpus), lookup))


needs_blas_setter = pytest.mark.skipif(forking.blas_thread_calls() is None,
                                       reason="numpy's BLAS has no thread-count setter here")


@needs_blas_setter
def test_a_forking_call_caps_blas_at_one_thread_here_and_in_its_children():
    assert _blas_threads(2) == [2, [1, 3, 1], 1]


@needs_blas_setter
def test_a_serial_call_leaves_the_blas_thread_count():
    assert _blas_threads(1) == [2, [2, 3, 2], 2]


def test_a_forking_call_without_a_blas_setter_gives_the_same_results():
    before, results, after = _blas_threads(2, lookup="none")
    assert results == [before, 3, before] and after == before
