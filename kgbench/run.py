#!/usr/bin/env python3
"""KG-engine benchmark: one workload per invocation.

    python3 kgbench/run.py --workload crawl_build --seed 1 --seconds 24 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics (from a separate, traced run).  The
line above it is a context object (host regime, set-up breakdown, pass
walls, first failures).  See kgbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

WORKLOADS = ("crawl_build", "corpus_curate")
#: per-layer context every traced run reports, whatever the workload
CONTEXT_METRICS = ("host.burn_ms", "host.loadavg_1m", "setup.ray_init_s",
                   "setup.inputs_s", "setup.warmup_s")


class Context:
    """What a workload gets: its seed, its time budget, the tally of
    operations and (traced runs) the span recorder."""

    def __init__(self, seed: int, seconds: float, traced: bool):
        from kgbench.common import Tally, Trace

        self.seed = seed
        self.seconds = seconds
        self.t0 = _T0
        self.trace = Trace() if traced else None
        self.tally = Tally()
        self.passes_s = []
        self._deadline = None

    def start_timing(self) -> None:
        self._deadline = time.perf_counter() + self.seconds

    def passes(self):
        """Yield pass numbers while the next pass, as long as the median
        pass so far, should end before the deadline (always one)."""
        from kgbench.common import median

        took = []
        while True:
            t0 = time.perf_counter()
            if took and t0 + median(took) > self._deadline:
                return
            yield len(took)
            took.append(time.perf_counter() - t0)


def catalog(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import sophia_rs_ray  # noqa: F401
    except ImportError as e:
        print(f"kgbench: the package under test is missing: {e}",
              file=sys.stderr)
        return 2

    from kgbench.common import (DATA_DIR, SETUPS, Metrics, Session,
                                cpu_ticks, host_burn_ms, loadavg_1m, median,
                                peak_rss_mb)

    want = catalog("per_layer" if args.trace else "end_to_end")
    workload = importlib.import_module(f"kgbench.{args.workload}")
    ctx = Context(args.seed, args.seconds, bool(args.trace))
    burn = host_burn_ms()
    t0 = time.perf_counter()
    state = workload.prepare(ctx)
    inputs_s = time.perf_counter() - t0
    # set-up = a fresh Ray session plus a checked warm-up pass, made
    # SETUPS times; the last session stays open for the timed phase
    setups, inits, warms = [], [], []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        session = Session().open()
        t1 = time.perf_counter()
        try:
            workload.warm_up(ctx, state, k)
        except BaseException:
            session.close()
            raise
        setups.append(time.perf_counter() - t0)
        inits.append(session.init_s)
        warms.append(time.perf_counter() - t1)
        if k + 1 < SETUPS:
            session.close()
    try:
        steal0, total0 = cpu_ticks()
        ctx.start_timing()
        m = workload.measure(ctx, state)
        rss = peak_rss_mb()
        steal1, total1 = cpu_ticks()
    finally:
        session.close()
    setup = {"setup.ray_init_s": median(inits), "setup.inputs_s": inputs_s,
             "setup.warmup_s": median(warms)}

    out = Metrics()
    if args.trace:
        missing = set(workload.LAYER_METRICS) - set(m.values)
        if missing:
            raise RuntimeError(f"{args.workload} did not measure {missing}")
        out.put("host.burn_ms", burn, "ms")
        out.put("host.loadavg_1m", loadavg_1m(), "load")
        for name, v in setup.items():
            out.put(name, v, "s")
        out.values.update(m.values)
        for name, unit in want.items():
            # a layer this workload never calls did no work here
            out.values.setdefault(name, {"value": 0.0, "unit": unit})
        ctx.trace.dump(os.path.join(
            DATA_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
    else:
        out.put("setup_s", median(setups), "s")
        out.put("peak_rss_mb", rss, "MiB")
        out.values.update(m.values)
    for name, v in out.values.items():
        if want.get(name) != v["unit"]:
            raise RuntimeError(f"metric {name} [{v['unit']}] is not in "
                               "BENCHMARK.json with that unit")
    if set(out.values) != set(want):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{set(want) ^ set(out.values)}")

    t = ctx.tally
    # the host regime of this run, one line above the result: a run
    # made in a slow phase of a shared host shows up here
    print(json.dumps({"context": {
        "host.burn_ms": round(burn, 1),
        "host.burn_end_ms": round(host_burn_ms(), 1),
        "host.loadavg_1m": loadavg_1m(),
        "host.steal_pct": round(100 * (steal1 - steal0)
                                / max(total1 - total0, 1), 2),
        **{k: round(v, 3) for k, v in setup.items()},
        "setups_s": [round(x, 3) for x in setups],
        "passes_s": [round(x, 3) for x in ctx.passes_s],
        "errors": t.errors}}))
    print(json.dumps({"correct": t.attempted > 0 and t.failed == 0,
                      "attempted": t.attempted, "failed": t.failed,
                      "metrics": {k: out.values[k] for k in want}}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
