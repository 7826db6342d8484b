"""Shared harness: the pinned Ray session, process accounting, host
context, statistics and the in-memory span recorder.

The environment is pinned here so every workload runs under the same
settings (also listed in kgbench/README.md):

- local Ray, ``NUM_CPUS`` CPUs, a fixed object store, no dashboard,
  progress bars off;
- the load generator is this process: one thread, one outstanding call.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 1024 * 1024
#: Ray session starts (each with its own warm-up pass) per run;
#: ``setup_s`` is their median, the last session is the timed one
SETUPS = 3

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: everything a run writes lives under here (git-ignored)
DATA_DIR = os.path.join(ROOT, ".kgb")
#: Ray's unix-socket paths must stay under ~107 bytes; beyond this
#: length the session dir falls back to Ray's default temp root
_MAX_RAY_TMP = 40


class Metrics:
    """Named metric values with units, in emission order."""

    def __init__(self):
        self.values: Dict[str, dict] = {}

    def put(self, name: str, value, unit: str) -> None:
        self.values[name] = {"value": float(value), "unit": unit}


class Tally:
    """Operations attempted / failed, plus the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q: int) -> float:
    """Inclusive linear-interpolation percentile ``q`` (1..99)."""
    xs = list(xs)
    if not xs:
        return 0.0
    if len(xs) == 1:
        return float(xs[0])
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# host context
# ---------------------------------------------------------------------------

def host_burn_ms() -> float:
    """Wall time of a fixed pure-Python loop: a slow host regime shows
    up here before it shows up in the workload."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return 1000 * (time.perf_counter() - t0)


def loadavg_1m() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def cpu_ticks():
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat:
    steal is the time the hypervisor ran something else on our vCPUs."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    # guest and guest_nice are already counted in user and nice
    return ticks[7], sum(ticks[:8])


def _children_map() -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants(pid: int) -> List[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def _vm_hwm_kb(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


_TICKS = os.sysconf("SC_CLK_TCK")


def _cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS
    except (OSError, IndexError, ValueError):
        return 0.0


def _session_pids() -> List[int]:
    """This driver and every Ray worker process (``ray::…``) under it."""
    me = os.getpid()
    return [me] + [p for p in descendants(me) if _is_ray_worker(p)]


class CpuClock:
    """CPU seconds (user + system) spent by this driver and the Ray
    worker processes of the session since ``start``."""

    def __init__(self):
        self._base: Dict[int, float] = {}

    def _now(self) -> Dict[int, float]:
        return {p: _cpu_s(p) for p in _session_pids()}

    def start(self) -> None:
        self._base = self._now()

    def elapsed(self) -> float:
        return sum(v - self._base.get(p, 0.0) for p, v in self._now().items())


def peak_rss_mb() -> float:
    """Σ kernel RSS high-water marks (VmHWM) of this driver and every
    Ray worker process of the session, in MiB."""
    return sum(_vm_hwm_kb(p) or 0 for p in _session_pids()) / 1024.0


# ---------------------------------------------------------------------------
# Ray session
# ---------------------------------------------------------------------------

class Session:
    """The pinned local Ray session.  ``close`` shuts Ray down and waits
    until every process the session started has exited."""

    def __init__(self):
        self.init_s = 0.0
        self._tmp: Optional[str] = None

    def open(self) -> "Session":
        # workers import the package under test from the checkout
        paths = [p for p in os.environ.get("PYTHONPATH", "")
                 .split(os.pathsep) if p]
        if ROOT not in paths:
            os.environ["PYTHONPATH"] = os.pathsep.join([ROOT] + paths)
        import ray

        tmp = os.path.join(DATA_DIR, f"r{os.getpid()}")
        kw = {}
        if len(tmp) <= _MAX_RAY_TMP:
            os.makedirs(tmp, exist_ok=True)
            kw["_temp_dir"] = self._tmp = tmp
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=NUM_CPUS,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, **kw)
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        self.init_s = time.perf_counter() - t0
        return self

    def close(self, timeout_s: float = 60.0) -> None:
        import ray

        before = set(descendants(os.getpid()))
        ray.shutdown()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            alive = []
            for pid in before:
                try:
                    # reap our own exited children; others just vanish
                    if os.waitpid(pid, os.WNOHANG)[0] == pid:
                        continue
                except ChildProcessError:
                    pass
                if os.path.exists(f"/proc/{pid}"):
                    alive.append(pid)
            if not alive:
                break
            time.sleep(0.05)
        if self._tmp:
            shutil.rmtree(self._tmp, ignore_errors=True)


def fresh_dir(*parts: str) -> str:
    d = os.path.join(DATA_DIR, *parts)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


# ---------------------------------------------------------------------------
# span recorder (traced runs only)
# ---------------------------------------------------------------------------

class Trace:
    """In-memory spans around calls into the program's public functions.

    A span is ``(id, layer, parent, start, end, cpu_ms, counts…)``; the
    parent is the span open when it started.  Spans stay in memory and
    are written out once, by ``dump``, after the run."""

    def __init__(self):
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, layer: str, **counts):
        rec = {"id": len(self.spans), "layer": layer,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, **counts}
        c0 = time.process_time()
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_ms"] = 1000 * (time.process_time() - c0)
            self._open.pop()

    def of(self, layer: str) -> List[dict]:
        return [s for s in self.spans if s["layer"] == layer]

    def walls(self, layer: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.of(layer)]

    def self_s(self, rec: dict) -> float:
        """Duration minus the part of it covered by child spans."""
        kids = sorted((s["start"], s["end"]) for s in self.spans
                      if s["parent"] == rec["id"])
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in kids:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return (rec["end"] - rec["start"]) - covered

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({**s, "self_s": self.self_s(s)}) + "\n")
