"""The package's one way to use more than one CPU: forked processes.

``workers`` says how many processes a piece of work may spread over, and
``run_tasks`` runs a list of tasks on them, or in this process where it
says one.
"""

import os
import threading
import traceback

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


def run_tasks(tasks, pool=False):
    """``fn(*args)`` for each ``(fn, args)`` of ``tasks``, in task order.

    ``count = workers(len(tasks))`` picks where they run: below two, one
    after another in this process; at one per task, the first here and
    each other one in a forked child of its own, which reads its
    arguments from the fork and sends its result back through a pipe;
    below that, or with ``pool``, none here but on a pool of ``count``
    forked workers, where a task's own work (a sweep's pipeline) cannot
    fork.  A pool pickles each task's function by its name: it must be
    a module-level function that nothing rebinds.

    In every mode the first task in task order that raises has its
    exception raised again here with its type and message, and a child
    that exits without a result raises ``RuntimeError``, once every child
    has exited: each child that still runs, of its own or a pool worker,
    is terminated.
    """
    count = workers(len(tasks))
    if count < 2:
        return [fn(*args) for fn, args in tasks]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    if count == len(tasks) and not pool:
        return _one_child_per_task(ctx, tasks)
    from concurrent.futures import ProcessPoolExecutor

    before = multiprocessing.active_children()

    def own_workers():
        return [p for p in multiprocessing.active_children() if p not in before]

    executor = ProcessPoolExecutor(count, mp_context=ctx)
    try:
        futures = [executor.submit(fn, *args) for fn, args in tasks]
        return [future.result() for future in futures]
    except BaseException as exc:
        # the shutdown below would wait for the tasks the workers hold
        for process in own_workers():
            process.terminate()
        # a fork failing in the first submit leaves the unstarted worker,
        # and with it the pool's pipes, in the frames of its traceback
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        executor.shutdown(cancel_futures=True)
        # a fork failing in the first submit leaves no manager thread to end the ones before it
        for process in own_workers():
            process.terminate()
            process.join()
            process.close()


def _one_child_per_task(ctx, tasks):
    receivers, children = [], []
    try:
        for fn, args in tasks[1:]:
            receiver, sender = ctx.Pipe(duplex=False)
            receivers.append(receiver)
            with sender:
                child = ctx.Process(target=_child_main, args=(receiver, sender, fn, args))
                # unlike a bare os.fork, start() flushes the standard streams first
                child.start()
            children.append(child)
        fn, args = tasks[0]
        results = [fn(*args)]
        for (fn, _), receiver, child in zip(tasks[1:], receivers, children):
            try:
                ok, value = receiver.recv()
            except EOFError:
                child.join()
                ok, value = False, RuntimeError(
                    f"the forked {fn.__name__} exited with code {child.exitcode} without a result")
            child.join()
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for child in children:
            child.terminate()  # a no-op once it has exited
            child.join()
            child.close()
        for receiver in receivers:
            receiver.close()


def _child_main(receiver, sender, fn, args):
    # without a read end of its own, the child's send fails once the parent
    # is gone, rather than blocking on a full pipe forever
    receiver.close()
    try:
        reply = True, fn(*args)
    except Exception as exc:
        reply = False, exc
    sender.send(reply)
