"""Host and process counters read from /proc (psutil is not available).

Every process the benchmark starts (the Ray head daemons and workers)
inherits the ``PERFBENCH_SESSION`` environment variable, so the benchmark
can find its own processes: to sum their peak RSS, to stop them at exit,
and to clear processes left behind by an earlier run that was killed.
"""

from __future__ import annotations

import os
import signal
import time

SESSION_VAR = "PERFBENCH_SESSION"

# /proc/stat cpu line: user nice system idle iowait irq softirq steal ...
_BUSY_FIELDS = (0, 1, 2, 5, 6)
_STEAL_FIELD = 7


def host_ticks() -> tuple[int, int, int]:
    """(busy, steal, total) host CPU ticks since boot, all CPUs.

    busy = user + nice + system + irq + softirq; it counts the Ray
    daemons and workers as well as this process.  Steal is not busy."""
    with open("/proc/stat") as f:
        vals = [int(x) for x in f.readline().split()[1:]]
    busy = sum(vals[i] for i in _BUSY_FIELDS)
    steal = vals[_STEAL_FIELD] if len(vals) > _STEAL_FIELD else 0
    return busy, steal, sum(vals[:8])


TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")


class HostCpu:
    """Busy host CPU and steal over an interval, from /proc/stat."""

    def __init__(self):
        self.start = host_ticks()

    def busy_ms(self) -> float:
        return (host_ticks()[0] - self.start[0]) * TICK_MS

    def steal_frac(self) -> float:
        b, s, t = host_ticks()
        dt = t - self.start[2]
        return (s - self.start[1]) / dt if dt > 0 else 0.0


def _environ_tag(pid: int) -> str | None:
    try:
        with open(f"/proc/{pid}/environ", "rb") as f:
            env = f.read().split(b"\0")
    except OSError:
        return None
    key = SESSION_VAR.encode() + b"="
    for kv in env:
        if kv.startswith(key):
            return kv[len(key):].decode(errors="replace")
    return None


def tagged_pids(prefix: str, orphans_only: bool = False) -> list[int]:
    """Pids (other than this one) whose session tag starts with prefix.
    A tag ends in ``:<driver pid>``; ``orphans_only`` keeps the processes
    whose driver has exited."""
    me = os.getpid()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        tag = _environ_tag(int(name))
        if tag is None or not tag.startswith(prefix):
            continue
        if orphans_only and _alive(int(tag.rsplit(":", 1)[1])):
            continue
        out.append(int(name))
    return out


def vmhwm_mb(pid: int) -> float:
    """Peak resident set size of one process, MiB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb(session: str) -> float:
    """Sum of VmHWM over this process and every process of the session."""
    return vmhwm_mb(os.getpid()) + sum(vmhwm_mb(p)
                                       for p in tagged_pids(session))


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().split(") ", 1)[1][:1] != "Z"
    except OSError:
        return False


def kill_tagged(prefix: str, grace_s: float = 5.0,
                orphans_only: bool = False) -> int:
    """SIGTERM, then SIGKILL, every tagged process; wait until all ended.
    Returns how many were found."""
    pids = tagged_pids(prefix, orphans_only)
    found = len(pids)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for p in pids:
            try:
                os.kill(p, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            pids = [p for p in pids if _alive(p)]
            if not pids:
                break
            time.sleep(0.05)
        if not pids:
            break
    # reap any that are our own children
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break
    return found
