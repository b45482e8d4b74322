"""Keep every process a benchmark run starts inside that run.

The serve workload forks one worker per service, and shared memory makes
``multiprocessing`` start a resource-tracker helper process (before
Python 3.13 even in a process that only attaches a segment).  A tracker
started by a forked worker outlives the worker and is re-parented away
from the run, and nothing waits for it.  So a run

1. marks itself a child subreaper (Linux), so that orphaned descendants
   re-parent to it rather than to the host's init;
2. starts its own tracker before it forks a worker, so that the workers
   inherit and share it instead of each starting one;
3. on the way out closes its end of the tracker's pipe, which stops the
   tracker once no worker holds the pipe either, and waits for every
   child, killing any that outlast a grace period.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

#: ``prctl`` option, from ``<linux/prctl.h>``
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Make orphaned descendants of this process its children; ``False``
    where the platform has no such option."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def share_resource_tracker() -> None:
    """Start this process's resource tracker now, before any fork."""
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()


def _close_resource_tracker() -> None:
    """Close this process's end of the tracker's pipe; the tracker exits
    at end of stream and is then reaped like any other child."""
    from multiprocessing import resource_tracker

    # CPython keeps the tracker's pipe and pid private; without them there
    # is no tracker of ours to stop.
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        os.close(fd)
        tracker._fd = None
        tracker._pid = None


def _live_children() -> list[int]:
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue
        if int(ppid) == me and state != "Z":
            out.append(int(entry))
    return out


def stop_all(grace: float = 10.0) -> list[int]:
    """Stop the tracker and wait for every child of this process; children
    still running after ``grace`` seconds are killed.  Returns the pids
    that had to be killed (none in a clean run)."""
    _close_resource_tracker()
    deadline = time.monotonic() + grace
    killed: set[int] = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return sorted(killed)
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _live_children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                killed.add(child)
        time.sleep(0.01)
