"""Fixtures shared by the test modules."""

import multiprocessing.context
import os

import pytest


@pytest.fixture
def forks(monkeypatch, tmp_path):
    """The pid of the process that started each forked child so far, in
    start order, from this process or any process forked from it.

    ``forks()`` reads them from a file that the wrapped
    ``ForkProcess.start`` appends to, so starts in a forked worker count
    too.
    """
    log = tmp_path / "forks.log"
    log.touch()
    start = multiprocessing.context.ForkProcess.start

    def logged(self):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        start(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", logged)
    return lambda: [int(pid) for pid in log.read_text().split()]
