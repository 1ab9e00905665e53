"""The package's one way to use more than one CPU: forked processes.

``workers`` says how many processes a piece of work may spread over, and
``run_tasks`` runs a list of tasks on them, or in this process where it
says one.  Before it forks, ``run_tasks`` caps numpy's bundled OpenBLAS
at one thread, so its thread pool does not run beside the forked
children.
"""

import os
import threading

# Most processes one piece of work spreads over: the calibration curve's
# grid runs, or ``grouploss sweep``'s forked children.
MAX_WORKERS = 4


def usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def workers(tasks):
    """How many processes ``tasks`` independent tasks spread over: one per
    usable CPU, at most ``MAX_WORKERS`` and at most one per task; but one,
    in this process, wherever it may not fork: without ``fork``, in a
    process multiprocessing started (a sweep's child or another one,
    whose CPU is already in use), or while another thread runs (a forked
    process would inherit any lock that thread holds)."""
    import multiprocessing  # on first use, so importing the package stays cheaper

    if (tasks < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None or threading.active_count() > 1):
        return 1
    return min(usable_cpus(), MAX_WORKERS, tasks)


def run_tasks(tasks, pool=False):
    """``fn(*args)`` for each ``(fn, args)`` of ``tasks``, in task order.

    Where ``count = workers(len(tasks))`` is 1, they run one after another
    here.  Otherwise, after ``cap_blas_threads``, forked children run
    them: at one per task, this process runs the first and ``count - 1``
    children the others; below that, or with ``pool``, ``count`` children
    run them all, so a task's own forked work (a sweep's pipeline) stays
    in its child, where ``workers`` says one.  A child reads task indices from one pipe and
    sends ``(ok, value)`` back on another; the tasks come from the fork,
    so nothing is pickled on the way in.  Each index goes to the child
    that reports first, and the task pipes close after the last one, so
    a child exits once it has sent its last result.

    The first task in task order that raises has its exception raised
    again here, once the tasks before it have finished; a child that exits
    without a result raises ``RuntimeError``.  Every child is then
    terminated and joined, and every pipe closed.
    """
    count = workers(len(tasks))
    if count < 2:
        return [fn(*args) for fn, args in tasks]
    cap_blas_threads()
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    here = int(count == len(tasks) and not pool)  # the tasks this process runs
    indices = iter(range(here, len(tasks)))
    task_ends, result_ends, children = [], [], []
    holds = {}  # a child's result end -> the child, its task end and the index it runs
    replies = {}  # a task's index -> (ok, value) from the child that ran it

    def deal(task_end):
        index = next(indices, None)
        if index is not None:
            task_end.send(index)
        if index == len(tasks) - 1:  # each child's stop: its task pipe's end of file
            for end in task_ends:
                end.close()
        return index

    try:
        for _ in range(count - here):
            inbox, task_end = ctx.Pipe(duplex=False)
            result_end, outbox = ctx.Pipe(duplex=False)
            task_ends.append(task_end)
            result_ends.append(result_end)
            index = deal(task_end)  # before the fork, so no send meets a child that has died
            with inbox, outbox:
                child = ctx.Process(target=_child_main,
                                    args=(tasks, inbox, outbox, task_ends + result_ends))
                # unlike a bare os.fork, start() flushes the standard streams first
                child.start()
            children.append(child)
            holds[result_end] = child, task_end, index
        results = [fn(*args) for fn, args in tasks[:here]]
        while len(results) < len(tasks):
            if len(results) in replies:
                ok, value = replies.pop(len(results))
                if not ok:
                    raise value
                results.append(value)
                continue
            for result_end in wait(list(holds)):
                child, task_end, index = holds.pop(result_end)
                try:
                    replies[index] = result_end.recv()
                except EOFError:
                    child.join()
                    replies[index] = False, RuntimeError(
                        f"the forked {tasks[index][0].__name__} exited with code "
                        f"{child.exitcode} without a result")
                    continue
                if (index := deal(task_end)) is not None:
                    holds[result_end] = child, task_end, index
        for child in children:
            child.join()  # rather than end a child that has yet to flush its output
        return results
    finally:
        for child in children:
            child.terminate()  # a no-op once it has exited
            child.join()
            child.close()
        for end in task_ends + result_ends:
            end.close()


def blas_thread_calls():
    """The ``(get, set)`` thread-count calls of the OpenBLAS that numpy
    bundles (in ``numpy.libs`` beside the package, or ``numpy/.dylibs`` on
    macOS), or None where none is found: another BLAS, or a build that
    names them otherwise."""
    import ctypes
    import glob

    import numpy

    package = os.path.dirname(numpy.__file__)
    paths = (glob.glob(os.path.join(os.path.dirname(package), "numpy.libs", "*openblas*"))
             + glob.glob(os.path.join(package, ".dylibs", "*openblas*")))
    for path in sorted(paths):
        try:
            # numpy has loaded it already, so this is a handle on that copy
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for stem, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", "_"),
                             ("openblas_", "")):
            try:
                get = getattr(lib, f"{stem}get_num_threads{suffix}")
                set_ = getattr(lib, f"{stem}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def cap_blas_threads():
    """Cap numpy's OpenBLAS at one thread for the rest of this process.

    Its pool would otherwise run beside the forked children, a second,
    unmanaged way to use more CPUs.  The cap is set here, before the first
    fork, and the children inherit it.  It is neither set in each child
    nor restored afterwards: a fork shuts the pool down, and the setter
    called after that starts it again, with a new thread that spins beside
    the next product.  Where no setter is found, nothing changes."""
    calls = blas_thread_calls()
    if calls is not None and calls[0]() != 1:
        calls[1](1)


def _child_main(tasks, inbox, outbox, ends):
    # the caller's ends: held here, the task ends would keep the inbox from
    # its end of file, and a result end would let a send block on a full
    # pipe once the caller is gone, rather than fail
    for end in ends:
        end.close()
    while True:
        try:
            index = inbox.recv()
        except EOFError:
            return
        fn, args = tasks[index]
        try:
            reply = True, fn(*args)
        except Exception as exc:
            reply = False, exc
        outbox.send(reply)
