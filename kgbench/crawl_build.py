"""``crawl_build``: Parquet ``(url, html)`` pages → sorted SPO/POS/OSP
layouts through ``pipelines.kg.kg_materialize_pipeline``.

One pass builds one fresh batch of ``PASS_PAGES`` pages (seeded page-id
range, never seen by this process or its workers before) into a fresh
output directory.  The timed wall runs from the Parquet pages to the
finished layouts, writes included; the pages are written to Parquet
before the timer starts.  Every pass is checked: P/R = 1.0 against the
generator's oracle, equal row counts and equal ``dataset_digest`` for
spo, pos and osp.
"""

from __future__ import annotations

import os
import time

from . import canon, graph_layers, inputs
from .common import SETUPS, CpuClock, Metrics, Tally, fresh_dir, median

PASS_PAGES = 4000
#: pages of each set-up's warm-up pass
WARM_PAGES = 1000
#: input blocks per pass: one Parquet file per block
BLOCKS = 8
SHARDS = 8
#: pages per kernel-timing batch (the pipeline's map_batches size)
KERNEL_BATCH = 256
KERNEL_PAGES = 1024
#: disjoint page ranges cap the timed passes of one untraced run
MAX_PASSES = 12
#: (untraced, traced) pass pairs in a traced run; the rest of its time
#: goes to the canonicalization and read-path layers
TRACED_PAIRS = 2

LAYER_METRICS = (
    "extract.cpu_ms_per_kpage", "extract.html_page.cpu_ms_per_kpage",
    "extract.jsonld.cpu_ms_per_kpage", "extract.micro_rdfa.cpu_ms_per_kpage",
    "extract.nt_format.cpu_ms_per_kpage", "extract.triples_per_page",
    "prededup.cpu_ms_per_kpage", "prededup.keep_ratio",
    "source.read_s", "build.prefix_s",
    "materialize.s", "materialize.rows_in", "materialize.rows_written",
    "materialize.partitions", "materialize.bytes_written",
    "materialize.partition_skew", "materialize.sort_ms",
    "materialize.dedup_ms", "materialize.write_ms",
    "materialize.exchange_objects",
    "trace.overhead_ratio", "trace.coverage",
) + canon.LAYER_METRICS + graph_layers.LAYER_METRICS


def _build(pages_dir: str, out_dir: str) -> dict:
    import ray.data as rd

    from sophia_rs_ray.pipelines.kg import kg_materialize_pipeline

    return kg_materialize_pipeline(
        rd.read_parquet(pages_dir, override_num_blocks=BLOCKS),
        out_dir, num_shards=SHARDS)


def check_layouts(out_dir: str, first: int, n: int) -> str:
    """'' when the layouts hold exactly the oracle triples of the page
    range (P = R = 1.0) in all three orders; else the reason."""
    import pyarrow.dataset as pds

    from sophia_rs_ray.stages.materialize import dataset_digest

    got = pds.dataset(os.path.join(out_dir, "spo"), format="parquet") \
        .to_table(columns=["s", "p", "o"])
    got_set = set(zip(*(got[c].to_pylist() for c in ("s", "p", "o"))))
    want = inputs.expected_spo(first, n)
    if len(got_set) != got.num_rows:
        return f"spo holds {got.num_rows - len(got_set)} duplicate rows"
    if got_set != want:
        hit = len(got_set & want)
        return (f"P={hit / max(len(got_set), 1):.4f} "
                f"R={hit / max(len(want), 1):.4f}")
    rows, digests = {}, {}
    for order in ("spo", "pos", "osp"):
        rows[order] = pds.dataset(os.path.join(out_dir, order),
                                  format="parquet").count_rows()
        digests[order] = dataset_digest(out_dir, order)
    if len(set(rows.values())) != 1 or rows["spo"] != len(want):
        return f"row counts {rows} vs {len(want)} expected"
    if len(set(digests.values())) != 1:
        return f"digests differ {digests}"
    return ""


def prepare(ctx) -> dict:
    """Seeded page ranges: one small warm-up batch per set-up, the timed
    passes' ranges, and a last range only the driver-side kernels see.
    Writes the warm-up pages."""
    n_passes = 2 * TRACED_PAIRS if ctx.trace else MAX_PASSES
    ranges = inputs.page_ranges(
        ctx.seed,
        [WARM_PAGES] * SETUPS + [PASS_PAGES] * n_passes + [KERNEL_PAGES])
    warm = []
    for k, (first, n) in enumerate(ranges[:SETUPS]):
        d = fresh_dir("crawl", f"warm-pages-{k}")
        inputs.write_pages(d, first, n, BLOCKS)
        warm.append((d, first, n))
    return {"warm": warm, "passes": ranges[SETUPS:-1], "kernel": ranges[-1]}


def warm_up(ctx, state: dict, k: int) -> None:
    """Set-up ``k``'s warm-up pass, checked like a timed one."""
    pages, first, n = state["warm"][k]
    out = fresh_dir("crawl", "warm-out")
    _build(pages, out)
    why = check_layouts(out, first, n)
    ctx.tally.record(not why, f"warm-up pass {k}: {why}")


def measure(ctx, state: dict) -> Metrics:
    m = Metrics()
    tally: Tally = ctx.tally
    ranges = state["passes"]
    if ctx.trace:
        _traced(ctx, ranges, state["kernel"], m)
        return m

    walls, cpus = [], []
    clock = CpuClock()
    for k, (first, n) in zip(ctx.passes(), ranges):
        pages = fresh_dir("crawl", "pages")
        out = fresh_dir("crawl", "out")
        inputs.write_pages(pages, first, n, BLOCKS)
        clock.start()
        t0 = time.perf_counter()
        try:
            _build(pages, out)
        except Exception as e:  # noqa: BLE001 — a failed pass is counted
            tally.record(False, f"pass {k}: {type(e).__name__}: {e}")
            continue
        dt = time.perf_counter() - t0
        cpu = clock.elapsed()
        why = check_layouts(out, first, n)
        if tally.record(not why, f"pass {k}: {why}"):
            walls.append(dt)
            cpus.append(cpu)
    ctx.passes_s = walls
    m.put("pass_s", median(walls), "s")
    m.put("pass_cpu_s", median(cpus), "s")
    return m


# ---------------------------------------------------------------------------
# traced run: the pass split into its layers, plus driver-side kernels
# ---------------------------------------------------------------------------

def _split_pass(trace, pages_dir: str, out_dir: str) -> dict:
    import ray.data as rd

    from sophia_rs_ray.stages.dedup import add_spo_key, prededup_batch
    from sophia_rs_ray.stages.extract import extract_nt_batch
    from sophia_rs_ray.stages.materialize import (
        DEFAULT_SALTS, load_manifest, materialize_graph)

    with trace.span("build") as whole:
        with trace.span("build.prefix") as pre:
            with trace.span("source.read") as sp:
                src = rd.read_parquet(pages_dir,
                                      override_num_blocks=BLOCKS).materialize()
                sp["rows"] = src.count()
            with trace.span("extract_prededup") as sp:
                nt = src.map_batches(
                    lambda b: extract_nt_batch(b, keep=()),
                    batch_format="pyarrow", batch_size=KERNEL_BATCH)
                nt = nt.map_batches(
                    lambda b: prededup_batch(add_spo_key(b))
                    .drop_columns(["spo_key"]),
                    batch_format="pyarrow").materialize()
                sp["rows"] = nt.count()
            pre["blocks"] = nt.num_blocks()
        with trace.span("materialize") as sp:
            rep = materialize_graph(nt, out_dir, num_shards=SHARDS,
                                    distinct=True)
    orders = ("spo", "pos", "osp")
    manifests = [r for o in orders for r in load_manifest(out_dir, o).values()]
    sizes = sorted(r["rows"] for r in manifests)
    n_part = sum(SHARDS * DEFAULT_SALTS.get(o, 1) for o in orders)
    nbytes = 0
    for dirpath, _dirs, files in os.walk(out_dir):
        nbytes += sum(os.path.getsize(os.path.join(dirpath, f))
                      for f in files if f.endswith(".parquet"))
    sp.update({
        "rows_in": nt.count(),
        "rows": sum(rep[o]["rows"] for o in orders),
        "partitions": len(manifests),
        "bytes": nbytes,
        "skew": sizes[-1] / median(sizes) if sizes else 0.0,
        "sort_ms": sum(r["t_sortonly_ms"] for r in manifests),
        "dedup_ms": sum(r["t_sort_ms"] - r["t_combine_ms"]
                        - r["t_sortonly_ms"] for r in manifests),
        "write_ms": sum(r["t_write_ms"] for r in manifests),
        "exchange_objects": pre["blocks"] * n_part,
    })
    return whole


def _traced(ctx, ranges, kernel, m: Metrics) -> None:
    trace = ctx.trace
    tally: Tally = ctx.tally
    plain, traced_walls, cover = [], [], []
    it = iter(ranges)
    for k, _, (f1, n1), (f2, n2) in zip(ctx.passes(), range(TRACED_PAIRS),
                                        it, it):
        pages = fresh_dir("crawl", "pages")
        out = fresh_dir("crawl", "out")
        inputs.write_pages(pages, f1, n1, BLOCKS)
        t0 = time.perf_counter()
        _build(pages, out)
        plain.append(time.perf_counter() - t0)
        why = check_layouts(out, f1, n1)
        tally.record(not why, f"untraced pass {k}: {why}")

        pages = fresh_dir("crawl", "tpages")
        out = fresh_dir("crawl", "tout")
        inputs.write_pages(pages, f2, n2, BLOCKS)
        whole = _split_pass(trace, pages, out)
        traced_walls.append(whole["end"] - whole["start"])
        why = check_layouts(out, f2, n2)
        tally.record(not why, f"traced pass {k}: {why}")
        cover.append(sum(trace.walls(layer)[-1] for layer in (
            "source.read", "extract_prededup", "materialize")) / plain[-1])

    mat = trace.of("materialize")
    m.put("source.read_s", median(trace.walls("source.read")), "s")
    m.put("build.prefix_s", median(trace.walls("build.prefix")), "s")
    m.put("materialize.s", median(trace.walls("materialize")), "s")
    for key, name, unit in (
            ("rows_in", "materialize.rows_in", "count"),
            ("rows", "materialize.rows_written", "count"),
            ("partitions", "materialize.partitions", "count"),
            ("bytes", "materialize.bytes_written", "bytes"),
            ("skew", "materialize.partition_skew", "ratio"),
            ("sort_ms", "materialize.sort_ms", "ms"),
            ("dedup_ms", "materialize.dedup_ms", "ms"),
            ("write_ms", "materialize.write_ms", "ms"),
            ("exchange_objects", "materialize.exchange_objects", "count")):
        m.put(name, median(s[key] for s in mat), unit)
    m.put("trace.overhead_ratio", median(traced_walls) / median(plain),
          "ratio")
    m.put("trace.coverage", median(cover), "ratio")

    kernel_dir = fresh_dir("crawl", "kpages")
    inputs.write_pages(kernel_dir, *kernel, 1)
    _kernels(trace, kernel_dir, m)
    canon.measure(ctx, pages, m)
    graph_layers.measure(ctx, out, SHARDS, m)


def _kernels(trace, pages_dir: str, m: Metrics) -> None:
    """CPU time of the pure extract kernels in this process, over
    ``KERNEL_PAGES`` pages of a range no pass and no oracle has touched,
    so the url-keyed caches (``skolem_suffix``, ``_NT_MEMO``) start
    cold."""
    import pyarrow.dataset as pds

    from sophia_rs_ray.extract.html_page import extract_page
    from sophia_rs_ray.extract.to_triples import (
        _Alloc, microdata_to_triples, rdfa_to_triples)
    from sophia_rs_ray.iri import BaseIri
    from sophia_rs_ray.jsonld import jsonld_to_triples
    from sophia_rs_ray.stages.dedup import add_spo_key, prededup_batch
    from sophia_rs_ray.stages.extract import extract_nt_batch
    from sophia_rs_ray.terms import format_term

    pages = pds.dataset(pages_dir, format="parquet").to_table()
    n = pages.num_rows
    kpage = n / 1000.0

    rows_in = rows_out = 0
    for lo in range(0, n, KERNEL_BATCH):
        batch = pages.slice(lo, KERNEL_BATCH)
        with trace.span("kernel.extract_nt_batch"):
            nt = extract_nt_batch(batch, keep=())
        with trace.span("kernel.prededup_batch"):
            kept = prededup_batch(add_spo_key(nt))
        rows_in += nt.num_rows
        rows_out += kept.num_rows

    urls = pages["url"].to_pylist()
    htmls = [bytes(h).decode("utf-8", errors="replace")
             for h in pages["html"].to_pylist()]
    parsed = []
    with trace.span("kernel.extract_page"):
        for h in htmls:
            parsed.append(extract_page(h, want_text=False))
    terms = []
    with trace.span("kernel.jsonld_to_triples"):
        for url, (_t, blocks, _mi, _rd) in zip(urls, parsed):
            for blk in blocks:
                trs, _err = jsonld_to_triples(blk, base=url)
                terms.extend(t for q in trs for t in q[:3])
    with trace.span("kernel.micro_rdfa"):
        for url, (_t, _b, micro, rdfa) in zip(urls, parsed):
            base = BaseIri(url)
            for trs in (microdata_to_triples(micro, base, _Alloc(0)),
                        rdfa_to_triples(rdfa, base, _Alloc(0))):
                terms.extend(t for q in trs for t in q)
    with trace.span("kernel.format_term"):
        for t in terms:
            format_term(t)

    def cpu(layer: str) -> float:
        return sum(s["cpu_ms"] for s in trace.of(layer)) / kpage

    m.put("extract.cpu_ms_per_kpage", cpu("kernel.extract_nt_batch"), "ms")
    m.put("extract.html_page.cpu_ms_per_kpage", cpu("kernel.extract_page"),
          "ms")
    m.put("extract.jsonld.cpu_ms_per_kpage", cpu("kernel.jsonld_to_triples"),
          "ms")
    m.put("extract.micro_rdfa.cpu_ms_per_kpage", cpu("kernel.micro_rdfa"),
          "ms")
    m.put("extract.nt_format.cpu_ms_per_kpage", cpu("kernel.format_term"),
          "ms")
    m.put("extract.triples_per_page", rows_in / n, "count")
    m.put("prededup.cpu_ms_per_kpage", cpu("kernel.prededup_batch"), "ms")
    m.put("prededup.keep_ratio", rows_out / max(rows_in, 1), "ratio")
