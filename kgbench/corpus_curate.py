"""``corpus_curate``: the fixed curation-operator suite from
``pipelines.queries.registry()`` over a 5,000-document table.

A pass runs every operator in ``OPS`` once, in order, and consumes each
result fully inside the timer.  After the pass each result is compared
with the registry's own DuckDB SQL for that operator by column names,
row count and an order-insensitive hash of the values.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import nullcontext

import pyarrow as pa
import pyarrow.parquet as pq

from . import inputs
from .common import SETUPS, CpuClock, Metrics, fresh_dir, median

DOCS = 5000
#: a smaller, differently seeded table for each set-up's warm-up pass
WARM_DOCS = 1000
OPS = ("token_counts", "vocab_top_terms", "tfidf_top_terms", "novel_bigrams",
       "lm_score", "dsir_weights", "heavy_hitters_cms", "clean_corpus",
       "dedup_exact_docs")

LAYER_METRICS = tuple(f"curate.{op}_s" for op in OPS)


def _norm(v):
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, (list, tuple)):
        return tuple(_norm(x) for x in v)
    if isinstance(v, dict):
        return tuple(sorted((k, _norm(x)) for k, x in v.items()))
    return str(v)


def digest(table: pa.Table):
    """(sorted column names, rows, order-insensitive value hash)."""
    names = sorted(table.column_names)
    cols = [table[c].to_pylist() for c in names]
    rows = sorted(repr(tuple(_norm(v) for v in r)) for r in zip(*cols))
    h = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    return names, table.num_rows, h


def consume(res) -> pa.Table:
    """Pull every row of an operator result into one Arrow table."""
    if isinstance(res, pa.Table):
        return res
    if hasattr(res, "iter_batches"):
        parts = list(res.iter_batches(batch_format="pyarrow",
                                      batch_size=None))
        return pa.concat_tables(parts) if parts else \
            pa.table({n: pa.array([], t) for n, t in
                      zip(res.schema().names, res.schema().types)})
    return pa.Table.from_pandas(res, preserve_index=False)


def _oracles(docs_dir: str, reg) -> dict:
    import duckdb

    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM read_parquet("
                f"'{os.path.join(docs_dir, 'documents.parquet')}')")
    return {op: digest(con.execute(reg[op][1]).arrow()) for op in OPS}


def _suite(reg, docs_dir: str, tally, want, trace=None, clock=None):
    """One pass over ``OPS``; → (summed operator wall s, their CPU s,
    or 0 without ``clock``)."""
    total = cpu = 0.0
    for op in OPS:
        if clock is not None:
            clock.start()
        t0 = time.perf_counter()
        try:
            with trace.span(f"curate.{op}") if trace else nullcontext():
                got = consume(reg[op][0](docs_dir))
        except Exception as e:  # noqa: BLE001 — a failed operator is counted
            tally.record(False, f"{op}: {type(e).__name__}: {e}")
            total += time.perf_counter() - t0
            continue
        total += time.perf_counter() - t0
        if clock is not None:
            cpu += clock.elapsed()
        have = digest(got)
        tally.record(have == want[op],
                     f"{op}: got {have[:2]} want {want[op][:2]}")
    return total, cpu


def prepare(ctx) -> dict:
    """The seeded timed table, one smaller warm-up table per set-up, and
    the registry's DuckDB answer for each operator on each of them."""
    from sophia_rs_ray.pipelines.queries import registry

    reg = registry()
    docs_dir = fresh_dir("curate", "docs")
    pq.write_table(inputs.documents_table(ctx.seed, DOCS),
                   os.path.join(docs_dir, "documents.parquet"))
    warm = []
    for k in range(SETUPS):
        d = fresh_dir("curate", f"warm-{k}")
        pq.write_table(inputs.documents_table(f"warm-{ctx.seed}-{k}",
                                              WARM_DOCS),
                       os.path.join(d, "documents.parquet"))
        warm.append((d, _oracles(d, reg)))
    return {"reg": reg, "docs": docs_dir, "want": _oracles(docs_dir, reg),
            "warm": warm}


def warm_up(ctx, state: dict, k: int) -> None:
    """Set-up ``k``'s warm-up pass, every result checked."""
    d, want = state["warm"][k]
    _suite(state["reg"], d, ctx.tally, want)


def measure(ctx, state: dict) -> Metrics:
    m = Metrics()
    reg, docs_dir, want = state["reg"], state["docs"], state["want"]
    walls, cpus = [], []
    clock = CpuClock()
    for _ in ctx.passes():
        w, c = _suite(reg, docs_dir, ctx.tally, want, ctx.trace, clock)
        walls.append(w)
        cpus.append(c)
    if ctx.trace:
        for op in OPS:
            m.put(f"curate.{op}_s", median(ctx.trace.walls(f"curate.{op}")),
                  "s")
        return m
    ctx.passes_s = walls
    m.put("pass_s", median(walls), "s")
    m.put("pass_cpu_s", median(cpus), "s")
    return m
