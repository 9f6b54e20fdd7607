"""When this process may fork workers, the one way it forks them, and the
one pool that fans numbered work out to them.

:func:`in_order` is that pool: ``pipeline`` retrains its candidates on it
and ``data.write_csv`` formats its parts on it. The split helper of
``model.train`` is the one other :class:`Child`. All of them follow the rule
of :func:`worker_count`, so a child trains and writes serially and they
never run more busy processes than there are CPUs.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import threading
from typing import Any, Callable, Iterator, Sequence

_in_child = False  # set in a forked Child, whose work stays serial


def worker_count() -> int:
    """How many processes may share this process's work: the CPUs in its
    affinity set (``taskset`` restricts it), or 1 where it may not fork.

    It may not fork without ``os.fork`` (Windows), inside a :class:`Child`
    or a caller's daemonic ``multiprocessing`` process, which may not have
    children, or while other threads run: a fork copies only the calling
    thread, so a lock another thread holds would stay locked in the child.
    ``multiprocessing`` is not imported here, so it loads only if used.
    """
    if _in_child or not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Child:
    """A forked process that answers this one over two raw pipes.

    The child runs :meth:`serve` on its ends of the request and the reply
    pipe, then leaves through ``os._exit``: 0 when ``serve`` returns, 1 when
    it raises. This process keeps its ends as ``requests`` and ``replies``.
    A subclass owns the wire format and sets what ``serve`` needs before
    ``Child.__init__`` forks.
    """

    def __init__(self) -> None:
        fds = os.pipe()
        try:
            fds += os.pipe()
            self.pid: int | None = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        req_read, self.requests, self.replies, rep_write = fds
        if self.pid == 0:
            global _in_child
            _in_child, code = True, 1
            try:
                os.close(self.requests)
                os.close(self.replies)
                self.serve(req_read, rep_write)
                code = 0
            finally:
                # no atexit handler, no flush of stdio inherited from the parent
                os._exit(code)
        os.close(req_read)
        os.close(rep_write)

    def serve(self, requests: int, replies: int) -> None:
        raise NotImplementedError

    def died(self, what: str) -> ChildProcessError:
        """Reap the child, which closed its pipes by dying, and say how."""
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if code >= 0:
            return ChildProcessError(f"{what} exited with status {code}")
        name = {s.value: s.name for s in signal.Signals}.get(-code, str(-code))
        return ChildProcessError(f"{what} was killed by signal {name}")

    def close(self) -> None:
        """Kill the child (dropping any work in flight), reap it and close
        the pipes."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        os.close(self.requests)
        os.close(self.replies)


@contextlib.contextmanager
def in_order(
    work: Callable[[int], Any], indices: Sequence[int], who: Callable[[int], str]
) -> Iterator[Iterator[Any]]:
    """Yield an iterator of ``work(i)`` for ``i`` in ``indices``, in order.

    Where :func:`worker_count` allows more than one worker, ``work`` runs
    ahead on forked :class:`_Worker` processes, as many as it allows and at
    most one per index. They inherit ``work`` and its state instead of
    receiving it pickled; only the index goes in and the pickled result
    comes back. This process starts no thread for them: it hands the next
    index to whichever worker is idle while it waits for the result it
    needs. A worker that dies raises ``ChildProcessError`` naming it
    ``who(i)`` for its index ``i``; an exception of ``work(i)`` is raised
    once the results before ``i`` were yielded. Leaving the block kills the
    workers, dropping the work still in flight. Otherwise, and where a fork
    fails before two workers have started, the same results come from
    ``map`` in this process.
    """
    count = min(worker_count(), len(indices))
    with contextlib.ExitStack() as stack:
        workers: list[_Worker] = []
        while count > 1 and len(workers) < count:
            try:
                workers.append(_Worker(work))
            except OSError:  # no process to spare after all: keep those started
                break
            stack.callback(workers[-1].close)
        if len(workers) < 2:
            stack.close()
            yield map(work, indices)
        else:
            yield _dispatch(workers, indices, who)


class _Worker(Child):
    """A forked process that answers each 8-byte index ``i`` with the
    pickle of ``(True, work(i))`` or ``(False, the exception)``."""

    def __init__(self, work: Callable[[int], Any]) -> None:
        self._work = work
        super().__init__()
        self.reader = open(self.replies, "rb", closefd=False)

    def serve(self, requests: int, replies: int) -> None:
        with open(replies, "wb", closefd=False) as out:
            while msg := os.read(requests, 8):
                try:
                    reply = (True, self._work(int.from_bytes(msg, "little")))
                except Exception as exc:
                    reply = (False, exc)
                out.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
                out.flush()


def _dispatch(
    workers: list[_Worker], indices: Sequence[int], who: Callable[[int], str]
) -> Iterator[Any]:
    """Results for ``indices`` in order, from ``workers`` fed one index at
    a time."""
    import select  # here, so that a process that never forks workers skips it
    todo = iter(indices)
    busy: dict[int, tuple[_Worker, int]] = {}  # reply pipe -> worker, its index
    done: dict[int, tuple[bool, Any]] = {}

    def send(worker: _Worker, i: int) -> None:
        try:
            os.write(worker.requests, i.to_bytes(8, "little"))
        except BrokenPipeError:
            raise worker.died(who(i)) from None
        busy[worker.replies] = worker, i

    for worker, i in zip(workers, todo):
        send(worker, i)
    for i in indices:
        while i not in done:
            for fd in select.select(list(busy), [], [])[0]:
                worker, j = busy.pop(fd)
                try:
                    done[j] = pickle.load(worker.reader)
                except (EOFError, pickle.UnpicklingError):
                    raise worker.died(who(j)) from None
                if (nxt := next(todo, None)) is not None:
                    send(worker, nxt)
        ok, value = done.pop(i)
        if not ok:
            raise value
        yield value
