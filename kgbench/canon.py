"""Canonicalization layers, measured in ``crawl_build``'s traced run.

``entity_canon`` is not a timed workload (see README.md: its passes
are too long for the run budget to hold enough of them), so its layers
are measured here instead, on the NT rows of the last traced crawl
pass: ``entity_name_table`` → ``minhash_signatures`` /
``lsh_candidate_pairs`` / ``verify_pairs`` → ``near_dup_clusters`` →
rewrite → ``dedup_triples`` → ``c14n_per_graph``, each its own span,
plus the ``normalize_quads`` kernel in this process.
"""

from __future__ import annotations

import random

from .common import Metrics, Tally

#: ``canonicalize_entities``'s default name-similarity threshold
THRESHOLD = 0.9
#: page graphs given to the driver-side ``normalize_quads`` kernel
KERNEL_GRAPHS = 400
#: of those, graphs re-canonicalized with renamed blank nodes
RELABEL_SAMPLE = 50

LAYER_METRICS = (
    "entity.names_s", "neardup.signatures_s", "neardup.candidates",
    "neardup.verified", "neardup.pair_yield", "neardup.clusters_s",
    "entity.mapping_size", "entity.rewrite_s",
    "dedup.exchange_s", "dedup.keep_ratio",
    "c14n.cpu_ms_per_graph", "c14n.bnodes_per_graph", "c14n.stage_s",
)


def _count(ds) -> int:
    return ds.materialize().count()


def measure(ctx, pages_dir: str, m: Metrics) -> None:
    import pyarrow.compute as pc
    import ray.data as rd

    from sophia_rs_ray.stages.c14n_stage import c14n_per_graph
    from sophia_rs_ray.stages.dedup import dedup_triples
    from sophia_rs_ray.stages.entity_dedup import (
        RewriteTerms, entity_name_table)
    from sophia_rs_ray.stages.extract import extract_nt_batch
    from sophia_rs_ray.stages.neardup import (
        lsh_candidate_pairs, minhash_signatures, near_dup_clusters,
        verify_pairs)

    trace = ctx.trace
    nt = rd.read_parquet(pages_dir).map_batches(
        lambda b: extract_nt_batch(b, keep=("url",)),
        batch_format="pyarrow").materialize()
    n_in = nt.count()

    with trace.span("entity.names") as sp:
        names = entity_name_table(nt).materialize()
        sp["rows"] = names.count()
    with trace.span("neardup.signatures"):
        sigs = minhash_signatures(names).materialize()
    with trace.span("neardup.candidates") as sp:
        pairs = lsh_candidate_pairs(sigs).materialize()
        sp["rows"] = pairs.count()
    with trace.span("neardup.verify") as sp:
        edges = verify_pairs(pairs, sigs, threshold=THRESHOLD).materialize()
        # distinct pairs: a name seen in several input blocks yields
        # repeated signature rows, so the join can repeat a pair
        sp["rows"] = edges.groupby(["a", "b"]).count().count()
    with trace.span("neardup.clusters"):
        clusters = near_dup_clusters(names, threshold=THRESHOLD) \
            .materialize()
    merged = {}
    for b in clusters.iter_batches(batch_format="pyarrow", batch_size=None):
        f = b.filter(pc.invert(pc.equal(b["cluster"], b["doc_id"])))
        merged.update(zip(f["doc_id"].to_pylist(), f["cluster"].to_pylist()))
    with trace.span("entity.rewrite"):
        rw = RewriteTerms(merged)
        rewritten = nt.map_batches(lambda b: rw(b),
                                   batch_format="pyarrow").materialize()
    with trace.span("dedup.exchange") as sp:
        sp["rows"] = _count(dedup_triples(rewritten, carry_min=("url",)))
    with trace.span("c14n.stage") as sp:
        sp["rows"] = _count(c14n_per_graph(nt, group_col="url",
                                           digest_only=True))

    cand = trace.of("neardup.candidates")[-1]["rows"]
    verified = trace.of("neardup.verify")[-1]["rows"]
    m.put("entity.names_s", trace.walls("entity.names")[-1], "s")
    m.put("neardup.signatures_s", trace.walls("neardup.signatures")[-1], "s")
    m.put("neardup.candidates", cand, "count")
    m.put("neardup.verified", verified, "count")
    m.put("neardup.pair_yield", verified / max(cand, 1), "ratio")
    m.put("neardup.clusters_s", trace.walls("neardup.clusters")[-1], "s")
    m.put("entity.mapping_size", len(merged), "count")
    m.put("entity.rewrite_s", trace.walls("entity.rewrite")[-1], "s")
    m.put("dedup.exchange_s", trace.walls("dedup.exchange")[-1], "s")
    m.put("dedup.keep_ratio",
          trace.of("dedup.exchange")[-1]["rows"] / max(n_in, 1), "ratio")
    m.put("c14n.stage_s", trace.walls("c14n.stage")[-1], "s")

    rows = nt.limit(KERNEL_GRAPHS * 40).take_batch(
        KERNEL_GRAPHS * 40, batch_format="pyarrow")
    _c14n_kernel(ctx, rows, m)


def _c14n_kernel(ctx, rows, m: Metrics) -> None:
    """``normalize_quads`` CPU per page graph, and the relabel check: a
    graph's canonical form must not change when its blank nodes are
    renamed."""
    from sophia_rs_ray.c14n import normalize_quads
    from sophia_rs_ray.ntriples import parse_term_text
    from sophia_rs_ray.terms import KIND_BNODE

    tally: Tally = ctx.tally
    graphs: dict = {}
    for u, s, p, o in zip(*(rows[c].to_pylist()
                            for c in ("url", "s", "p", "o"))):
        graphs.setdefault(u, []).append(
            (parse_term_text(s), parse_term_text(p), parse_term_text(o),
             None))
    urls = sorted(graphs)[:KERNEL_GRAPHS]
    canon = {}
    bnodes = 0
    with ctx.trace.span("kernel.normalize_quads") as sp:
        for u in urls:
            canon[u] = normalize_quads(graphs[u])
    for u in urls:
        bnodes += len({t[1] for q in graphs[u] for t in q[:3]
                       if t[0] == KIND_BNODE})
    m.put("c14n.cpu_ms_per_graph", sp["cpu_ms"] / max(len(urls), 1), "ms")
    m.put("c14n.bnodes_per_graph", bnodes / max(len(urls), 1), "count")

    rng = random.Random(f"relabel-{ctx.seed}")
    for u in rng.sample(urls, min(RELABEL_SAMPLE, len(urls))):
        def rename(t):
            if t is not None and t[0] == KIND_BNODE:
                return (t[0], "r" + t[1][::-1]) + tuple(t[2:])
            return t
        quads = [tuple(rename(t) for t in q) for q in graphs[u]]
        rng.shuffle(quads)
        same = normalize_quads(quads) == canon[u]
        tally.record(same, f"c14n relabel changed the canonical form of {u}")
