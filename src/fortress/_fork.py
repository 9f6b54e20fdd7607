"""When this process may fork workers, and the one way it forks them.

The candidate pool of ``pipeline``, the split helper of ``model.train`` and
the CSV formatters of ``data.write_csv`` share the rule of
:func:`worker_count` and are all a :class:`Child`, so a child trains and
writes serially and they never run more busy processes than there are CPUs.
"""

from __future__ import annotations

import os
import signal
import sys
import threading

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
