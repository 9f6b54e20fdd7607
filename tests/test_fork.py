"""Unit tests of ``_fork.Child``, the one way fortress forks a process, and
of ``_fork.in_order``, the one pool that fans numbered work out to children."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import signal
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from conftest import assert_no_child, open_fds

import fortress
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


def _phrase(i: int) -> str:
    return f"the probe of item {i}"


def _later_first(i: int) -> tuple[int, int]:
    """Item ``i`` of four, finishing after every later one, and the process
    that computed it."""
    time.sleep(0.05 * (4 - i))
    return i, os.getpid()


class TestInOrder:
    """The pool returns what ``map`` returns, in order, whoever computes it."""

    def test_results_come_back_in_index_order(self, at_cpus):
        at_cpus(3)
        before = open_fds()
        with _fork.in_order(_later_first, range(4), _phrase) as results:
            got = list(results)
        assert [i for i, _ in got] == [0, 1, 2, 3]
        assert os.getpid() not in {pid for _, pid in got}
        assert len({pid for _, pid in got}) == 3
        assert open_fds() == before
        assert_no_child()

    def test_an_exception_is_raised_after_the_items_before_it(self, at_cpus):
        def fails_at_2(i):
            if i == 2:
                raise ValueError("item 2 failed")
            return _later_first(i)[0]

        at_cpus(3)
        got = []
        with pytest.raises(ValueError, match="item 2 failed"):
            with _fork.in_order(fails_at_2, range(4), _phrase) as results:
                for value in results:
                    got.append(value)
        assert got == [0, 1]
        assert_no_child()

    def test_a_killed_worker_is_named_by_the_callers_phrase(self, at_cpus):
        def killed_at_1(i):
            if i == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        at_cpus(2)
        before = open_fds()
        with pytest.raises(ChildProcessError) as exc:
            with _fork.in_order(killed_at_1, range(4), _phrase) as results:
                list(results)
        assert str(exc.value) == "the probe of item 1 was killed by signal SIGKILL"
        assert open_fds() == before
        assert_no_child()

    def test_leaving_early_kills_busy_workers(self, at_cpus):
        def slow_after_0(i):
            if i:
                time.sleep(60)
            return i

        at_cpus(3)
        before = open_fds()
        start = time.monotonic()
        with _fork.in_order(slow_after_0, range(5), _phrase) as results:
            assert next(results) == 0
        assert time.monotonic() - start < 30
        assert open_fds() == before
        assert_no_child()

    @pytest.mark.parametrize("case", ["one CPU", "another thread", "forks fail after one"])
    def test_without_two_workers_this_process_computes(self, at_cpus, case):
        at_cpus(1 if case == "one CPU" else 3)
        real, forks = os.fork, []

        def first_only():
            forks.append(1)
            if case != "forks fail after one":
                raise AssertionError("a worker was forked")
            if len(forks) > 1:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real()

        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        if case == "another thread":
            waiter.start()
        before = open_fds()
        try:
            with mock.patch.object(os, "fork", first_only):
                with _fork.in_order(_later_first, range(4), _phrase) as results:
                    got = list(results)
        finally:
            release.set()
            if waiter.is_alive():
                waiter.join(timeout=60)
        assert got == [(i, os.getpid()) for i in range(4)]
        assert len(forks) == (2 if case == "forks fail after one" else 0)
        assert open_fds() == before
        assert_no_child()


def test_only_the_fork_module_forks():
    """``_fork`` is the one module that calls ``os.fork``, and its pool
    worker and the split helper of ``model.train`` are the package's only
    children."""
    package = Path(fortress.__file__).parent
    forking = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "fork") or (
                isinstance(node, ast.ImportFrom)
                and any(alias.name == "fork" for alias in node.names)
            ):
                forking.add(path.name)
    assert forking == {"_fork.py"}

    for module in pkgutil.iter_modules([str(package)]):
        importlib.import_module(f"fortress.{module.name}")
    children, todo = set(), [_fork.Child]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("fortress."):
                children.add(f"{sub.__module__}.{sub.__qualname__}")
    assert children == {"fortress._fork._Worker", "fortress.model._SplitHelper"}
