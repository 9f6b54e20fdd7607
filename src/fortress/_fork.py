"""When this process may fork workers, and how to report one that died.

The candidate pool of ``pipeline`` and the split helper of ``model.train``
share this rule, so a forked candidate worker (daemonic) trains serially and
the two never run more busy processes than there are CPUs.
"""

from __future__ import annotations

import os
import signal
import sys
import threading


def worker_count() -> int:
    """How many processes may share this process's work: the CPUs in its
    affinity set (``taskset`` restricts it), or 1 where it may not fork.

    It may not fork without ``os.fork`` (Windows), inside a daemonic
    ``multiprocessing`` process, which may not have children, or while other
    threads run: a fork copies only the calling thread, so a lock another
    thread holds would stay locked in the child. ``multiprocessing`` is not
    imported here, so a process that never used it does not load it.
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def exit_description(exitcode: int) -> str:
    """``exited with status N`` or ``was killed by signal NAME``, from an
    exit code in ``multiprocessing``'s convention (minus the signal number
    for a killed process)."""
    if exitcode >= 0:
        return f"exited with status {exitcode}"
    try:
        name = signal.Signals(-exitcode).name
    except ValueError:
        name = str(-exitcode)
    return f"was killed by signal {name}"
