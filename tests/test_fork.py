"""Unit tests of ``_fork.Child``, the one way fortress forks a process."""

from __future__ import annotations

import os
import signal
import time

import pytest
from conftest import assert_no_child, open_fds

from fortress import _fork

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
    reason="needs fork and /proc/self/fd",
)


class _Probe(_fork.Child):
    """A child that runs ``work(requests, replies)`` as its ``serve``."""

    def __init__(self, work) -> None:
        self._work = work
        super().__init__()

    def serve(self, requests: int, replies: int) -> None:
        self._work(requests, replies)


def _blocked(requests, replies):
    os.read(requests, 1)


def _death(child: _Probe) -> str:
    """The message of a child that is dying or dead, once its pipe shows it."""
    try:
        assert os.read(child.replies, 1) == b""
        return str(child.died("the probe"))
    finally:
        child.close()


def test_exit_status_is_reported():
    assert _death(_Probe(lambda req, rep: os._exit(3))) == "the probe exited with status 3"


def test_a_raising_serve_exits_with_status_1():
    def fails(req, rep):
        raise RuntimeError("in the child")

    assert _death(_Probe(fails)) == "the probe exited with status 1"


def test_a_returning_serve_exits_with_status_0():
    assert _death(_Probe(lambda req, rep: None)) == "the probe exited with status 0"


@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM], ids=lambda s: s.name)
def test_a_killed_child_names_the_signal(signum):
    child = _Probe(_blocked)
    os.kill(child.pid, signum)
    assert _death(child) == f"the probe was killed by signal {signum.name}"


@pytest.mark.skipif(not hasattr(signal, "SIGRTMIN"), reason="needs real-time signals")
def test_a_signal_without_a_name_is_given_by_number():
    signum = int(signal.SIGRTMIN) + 1
    with pytest.raises(ValueError):
        signal.Signals(signum)
    child = _Probe(_blocked)
    os.kill(child.pid, signum)
    assert _death(child) == f"the probe was killed by signal {signum}"


def test_a_child_works_serially(at_cpus):
    at_cpus(2)
    assert _fork.worker_count() == 2

    def report(req, rep):
        os.write(rep, bytes([_fork.worker_count()]))

    child = _Probe(report)
    try:
        assert os.read(child.replies, 1) == bytes([1])
    finally:
        child.close()
    assert _fork.worker_count() == 2 and not _fork._in_child


def test_close_kills_a_busy_child_and_leaves_nothing_behind():
    before = open_fds()
    child = _Probe(lambda req, rep: time.sleep(60))
    start = time.monotonic()
    child.close()
    assert time.monotonic() - start < 0.5
    assert open_fds() == before
    assert_no_child()


def test_a_failed_fork_closes_the_pipes(monkeypatch):
    def no_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    before = open_fds()
    with pytest.raises(OSError, match="no process to spare"):
        _Probe(_blocked)
    assert open_fds() == before


def test_a_failed_second_pipe_closes_the_first(monkeypatch):
    real_pipe, calls = os.pipe, []

    def pipe():
        calls.append(None)
        if len(calls) == 2:
            raise OSError(24, "Too many open files")
        return real_pipe()

    monkeypatch.setattr(os, "pipe", pipe)
    before = open_fds()
    with pytest.raises(OSError, match="Too many open files"):
        _Probe(_blocked)
    assert len(calls) == 2
    assert open_fds() == before
    assert_no_child()
