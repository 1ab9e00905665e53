"""The package's one way to use more than one CPU: forked processes.

``in_child`` runs one function in a forked child and hands its result
back; ``run_tasks`` runs a list of tasks on a pool of forked workers.
``workers`` says how many processes a piece of work may spread over;
where it says one, the same functions run in this process.
"""

import contextlib
import os
import threading

# Most processes one piece of work spreads over: the calibration curve's
# grid runs, or ``grouploss sweep``'s workers.
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
    process multiprocessing started (a sweep worker or another child,
    whose CPU is already in use), or while another thread runs (a forked
    process would inherit any lock that thread holds)."""
    import multiprocessing  # on first use, so importing the package stays cheaper

    if (tasks < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None or threading.active_count() > 1):
        return 1
    return min(usable_cpus(), MAX_WORKERS, tasks)


@contextlib.contextmanager
def in_child(fn, *args):
    """Start ``fn(*args)`` in one forked child; yield the function that
    waits for it and returns its result.

    The child sends its result, or the exception it raised, back through
    a pipe; the exception is raised again here with its type and message,
    and a child that exits without a result raises ``RuntimeError``.
    The child is joined before the block is left, and terminated first if
    the block leaves without its result.  Where ``workers`` gives two
    tasks one process, ``fn`` runs here instead, when its result is asked
    for.  Either way, an error the block raises first is the one reported.
    """
    if workers(2) < 2:
        yield lambda: fn(*args)
        return
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    # unlike a bare os.fork, start() flushes the standard streams first
    child = ctx.Process(target=_child_main, args=(receiver, sender, fn, args))
    child.start()
    sender.close()
    in_child.forks += 1

    def result():
        try:
            ok, value = receiver.recv()
        except EOFError:
            child.join()
            raise RuntimeError(
                f"the forked {fn.__name__} exited with code {child.exitcode} "
                "without a result") from None
        child.join()
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        if child.exitcode is None:
            child.terminate()
        child.join()
        receiver.close()


in_child.forks = 0  # children forked by this process, read by the tests


def _child_main(receiver, sender, fn, args):
    # without a read end of its own, the child's send fails once the parent
    # is gone, rather than blocking on a full pipe forever
    receiver.close()
    try:
        reply = True, fn(*args)
    except Exception as exc:
        reply = False, exc
    sender.send(reply)


def run_tasks(tasks):
    """``fn(*args)`` for each ``(fn, args)`` of ``tasks``, in task order.

    The tasks run in ``workers(len(tasks))`` forked processes or, where
    that is one, one after another in this process.  Either way the first
    task in task order that raises has its exception re-raised; the pool
    first cancels the pending tasks and waits for every worker to exit.
    A task's function and arguments are pickled, the function by its
    name: it must be a module-level function that nothing rebinds.
    """
    count = workers(len(tasks))
    if count < 2:
        return [fn(*args) for fn, args in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(count, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(fn, *args) for fn, args in tasks]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)
