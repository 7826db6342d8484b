"""Read-path layers (pattern lookups and SPARQL), measured in
``crawl_build``'s traced run over the layouts of its last traced pass.

``graph_query`` is not a timed workload (see README.md: its SPARQL loop
hits a Ray task-cancellation crash in about 1 run in 25).  Here one
client (this process) keeps one call outstanding at a time, as callers
of the library's synchronous API do.  A round is ``LOOKUPS``
``triples_matching`` calls (binding s, o or (p, o)) and one SPARQL
SELECT of each shape in ``SHAPES``, in seeded order.  Keys are drawn by
picking a random triple of the graph, so every key shows up as often as
it occurs there (entity 0 and ``rdf:type schema:Person`` included).
Each lookup is checked against a pyarrow filter over the SPO table,
each SELECT against a DuckDB translation over it.
"""

from __future__ import annotations

import collections
import os
import random
import time

import pyarrow as pa
import pyarrow.compute as pc

from .common import Metrics, Tally, median, percentile

#: rounds continue until they hold this many calls, so p95 / p75 each
#: have ≥10 samples beyond them ...
MIN_LOOKUPS = 200
MIN_SPARQL = 40
#: ... or until the run is this old, so the traced run still ends within
#: its 180 s limit.  The read path is the run's last phase, so it gets
#: all the time left; missing the floor is a failed operation.
RUN_DEADLINE_S = 165

SCHEMA = "http://schema.org/"
KNOWS = f"<{SCHEMA}knows>"
NAME = f"<{SCHEMA}name>"
ALUMNI = f"<{SCHEMA}alumniCount>"
SHAPES = ("star", "knows2", "count", "optional", "filter")
#: lookups per round: both floors are reached in the same round
LOOKUPS = MIN_LOOKUPS * len(SHAPES) // MIN_SPARQL

LAYER_METRICS = (
    "scan.plan_ms", "scan.exec_ms", "scan.files_read", "scan.rows_returned",
    "scan.s.exec_ms", "scan.o.exec_ms", "scan.po.exec_ms",
    "lookup.p50_ms", "lookup.p95_ms",
    "sparql.parse_ms", "sparql.plan_ms", "sparql.exec_ms", "sparql.rows_out",
    "sparql.p50_ms", "sparql.p75_ms",
) + tuple(f"sparql.{s}.exec_ms" for s in SHAPES)


class Graph:
    """The built layouts plus the driver-side reference copy of SPO."""

    def __init__(self, out_dir: str, shards: int):
        import duckdb
        import pyarrow.dataset as pds

        self.out_dir = out_dir
        self.shards = shards
        self.spo = pds.dataset(os.path.join(out_dir, "spo"),
                               format="parquet").to_table(
                                   columns=["s", "p", "o"])
        self.cols = {c: self.spo[c].to_pylist() for c in ("s", "p", "o")}
        self.db = duckdb.connect()
        self.db.register("spo", self.spo)
        self._by_p = collections.defaultdict(list)
        for i, p in enumerate(self.cols["p"]):
            self._by_p[p].append(i)

    def row(self, rng: random.Random, p: str = None, iri_s: bool = False,
            iri_o: bool = False):
        pool = self._by_p[p] if p else None
        while True:
            i = rng.choice(pool) if pool else rng.randrange(self.spo.num_rows)
            s, pp, o = (self.cols[c][i] for c in ("s", "p", "o"))
            if (not iri_s or s.startswith("<")) and \
                    (not iri_o or o.startswith("<")):
                return s, pp, o

    def filter(self, **bound) -> collections.Counter:
        mask = None
        for c, v in bound.items():
            e = pc.equal(self.spo[c], pa.scalar(v, self.spo[c].type))
            mask = e if mask is None else pc.and_(mask, e)
        t = self.spo.filter(mask)
        return collections.Counter(zip(*(t[c].to_pylist()
                                         for c in ("s", "p", "o"))))

    def sql(self, text: str, params) -> collections.Counter:
        return collections.Counter(
            tuple(r) for r in self.db.execute(text, params).fetchall())


def _int_lit(n: int) -> str:
    return f'"{n}"^^<http://www.w3.org/2001/XMLSchema#integer>'


def make_query(shape: str, g: Graph, rng: random.Random):
    """→ (SPARQL text, projected vars, expected row Counter)."""
    if shape == "star":
        s, _, _ = g.row(rng, iri_s=True)
        return (f"SELECT ?p ?o WHERE {{ {s} ?p ?o }}", ("p", "o"),
                g.sql("SELECT p, o FROM spo WHERE s = ?", [s]))
    if shape == "knows2":
        s, _, _ = g.row(rng, p=KNOWS, iri_s=True)
        return (f"SELECT ?b ?c WHERE {{ {s} {KNOWS} ?b . ?b {KNOWS} ?c }}",
                ("b", "c"),
                g.sql("SELECT a.o, b.o FROM spo a JOIN spo b ON a.o = b.s "
                      "WHERE a.s = ? AND a.p = ? AND b.p = ?",
                      [s, KNOWS, KNOWS]))
    if shape == "count":
        _, p, o = g.row(rng, iri_o=True)
        n = g.sql("SELECT count(*) FROM spo WHERE p = ? AND o = ?", [p, o])
        return (f"SELECT (COUNT(?s) AS ?n) WHERE {{ ?s {p} {o} }}", ("n",),
                collections.Counter({(_int_lit(k[0]),): 1 for k in n}))
    if shape == "optional":
        s, _, _ = g.row(rng, iri_s=True)
        return (f"SELECT ?p ?o ?n WHERE {{ {s} ?p ?o "
                f"OPTIONAL {{ ?o {NAME} ?n }} }}", ("p", "o", "n"),
                g.sql("SELECT a.p, a.o, b.o FROM spo a LEFT JOIN spo b "
                      "ON b.s = a.o AND b.p = ? WHERE a.s = ?", [NAME, s]))
    if shape == "filter":
        _, _, o = g.row(rng, p=ALUMNI)
        k = int(o.split('"')[1])
        return (f"SELECT ?s ?y WHERE {{ ?s {ALUMNI} ?y FILTER(?y >= {k}) }}",
                ("s", "y"),
                g.sql("SELECT s, o FROM spo WHERE p = ? AND CAST("
                      "regexp_extract(o, '^\"(-?[0-9]+)\"', 1) AS BIGINT) >= ?",
                      [ALUMNI, k]))
    raise ValueError(shape)


def _rows(ds, cols) -> collections.Counter:
    got = collections.Counter()
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        got.update(zip(*(b[c].to_pylist() for c in cols)))
    return got


def _round(g: Graph, rng: random.Random):
    """One pass: LOOKUPS lookups + one query per shape, shuffled."""
    calls = []
    kinds = ("s", "o", "po")
    for i in range(LOOKUPS):
        kind = kinds[i % 3]
        s, p, o = g.row(rng)
        bound = {"s": {"s": s}, "o": {"o": o}, "po": {"p": p, "o": o}}[kind]
        calls.append(("lookup", kind, bound))
    for shape in SHAPES:
        calls.append(("sparql", shape, make_query(shape, g, rng)))
    rng.shuffle(calls)
    return calls


def _call(g: Graph, call, tally: Tally, trace=None) -> float:
    """Run one call; → its wall seconds.  Failures are tallied."""
    from sophia_rs_ray.sparql.parser import parse_query
    from sophia_rs_ray.sparql.run import select
    from sophia_rs_ray.stages.materialize import (
        MaterializedGraph, triples_matching)

    what, kind, arg = call
    t0 = time.perf_counter()
    try:
        if what == "lookup":
            if trace is None:
                got = _rows(triples_matching(g.out_dir, num_shards=g.shards,
                                             **arg), ("s", "p", "o"))
            else:
                with trace.span("scan", kind=kind) as sp:
                    with trace.span("scan.plan"):
                        ds = triples_matching(g.out_dir, num_shards=g.shards,
                                              **arg)
                    with trace.span("scan.exec"):
                        got = _rows(ds, ("s", "p", "o"))
                    sp["rows"] = sum(got.values())
            dt = time.perf_counter() - t0
            if trace is not None:
                # the part files the returned Dataset reads, after the
                # partition pruning of ``triples_matching``
                sp["files"] = len(ds.input_files())
            ok = got == g.filter(**arg)
        else:
            text, cols, want = arg
            graph = MaterializedGraph(g.out_dir, num_shards=g.shards)
            if trace is None:
                got = _rows(select(text, graph), cols)
            else:
                with trace.span("sparql", shape=kind) as sp:
                    with trace.span("sparql.parse"):
                        parse_query(text)
                    with trace.span("sparql.parse_plan"):
                        ds = select(text, graph)
                    with trace.span("sparql.exec"):
                        got = _rows(ds, cols)
                    sp["rows"] = sum(got.values())
            dt = time.perf_counter() - t0
            ok = got == want
    except Exception as e:  # noqa: BLE001 — a failed call is counted
        tally.record(False, f"{what} {kind}: {type(e).__name__}: {e}")
        return time.perf_counter() - t0
    tally.record(ok, f"{what} {kind} {arg if what == 'lookup' else arg[0]}")
    return dt


def measure(ctx, out_dir: str, shards: int, m: Metrics) -> None:
    """Warm up with one round, then run traced rounds over the layouts
    in ``out_dir`` and put the read-path layer metrics into ``m``."""
    trace = ctx.trace
    g = Graph(out_dir, shards)
    for call in _round(g, random.Random(f"warm-{ctx.seed}")):
        _call(g, call, ctx.tally)
    rng = random.Random(f"graph-{ctx.seed}")
    lookups: list = []
    queries: list = []
    cap = ctx.t0 + RUN_DEADLINE_S
    while (len(lookups) < MIN_LOOKUPS or len(queries) < MIN_SPARQL) \
            and time.perf_counter() < cap:
        for call in _round(g, rng):
            dt = _call(g, call, ctx.tally, trace)
            (lookups if call[0] == "lookup" else queries).append(dt)
    ctx.tally.record(
        len(lookups) >= MIN_LOOKUPS and len(queries) >= MIN_SPARQL,
        f"read path: {len(lookups)} lookups and {len(queries)} SELECTs "
        f"before its deadline, below the {MIN_LOOKUPS} / {MIN_SPARQL} floor")

    def ms(layer, **match):
        return 1000 * median(
            s["end"] - s["start"] for s in trace.of(layer)
            if all(s.get(k) == v for k, v in match.items()))

    scans = trace.of("scan")
    m.put("scan.plan_ms", ms("scan.plan"), "ms")
    m.put("scan.exec_ms", ms("scan.exec"), "ms")
    m.put("scan.files_read", median(s["files"] for s in scans
                                     if "files" in s), "count")
    m.put("scan.rows_returned", median(s["rows"] for s in scans
                                         if "rows" in s), "count")
    for kind in ("s", "o", "po"):
        ids = {s["id"] for s in scans if s["kind"] == kind}
        m.put(f"scan.{kind}.exec_ms", 1000 * median(
            s["end"] - s["start"] for s in trace.of("scan.exec")
            if s["parent"] in ids), "ms")
    m.put("lookup.p50_ms", 1000 * median(lookups), "ms")
    m.put("lookup.p95_ms", 1000 * percentile(lookups, 95), "ms")

    parse = trace.walls("sparql.parse")
    m.put("sparql.parse_ms", 1000 * median(parse), "ms")
    m.put("sparql.plan_ms", 1000 * median(
        pp - p for pp, p in zip(trace.walls("sparql.parse_plan"), parse)),
        "ms")
    m.put("sparql.exec_ms", ms("sparql.exec"), "ms")
    m.put("sparql.rows_out", median(
        s["rows"] for s in trace.of("sparql") if "rows" in s), "count")
    m.put("sparql.p50_ms", 1000 * median(queries), "ms")
    m.put("sparql.p75_ms", 1000 * percentile(queries, 75), "ms")
    for shape in SHAPES:
        ids = {s["id"] for s in trace.of("sparql") if s["shape"] == shape}
        m.put(f"sparql.{shape}.exec_ms", 1000 * median(
            s["end"] - s["start"] for s in trace.of("sparql.exec")
            if s["parent"] in ids), "ms")
