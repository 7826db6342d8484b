"""Near-duplicate document pipeline: MinHash-LSH blocking → signature
verification → connected components → cluster assignment (SURVEY §2.8,
north-rule dedup family; the standard MinHash/LSH construction of
Broder '97 / MMDS ch.3 — public algorithmic references).

Shape (all wide ops explicit):
  map_batches(minhash_batch)            — signatures, perms cached per
                                          worker process
  → flat explode to band rows           — (doc_id, band_id, band_hash)
  → groupby(band)                       — THE blocking shuffle
  → capped candidate pairs              — hub/skew guard (pair_cap)
  → pair dedup (groupby)                — each pair verified once
  → join signatures ×2                  — est. Jaccard = matching minhash
                                          fraction (no text re-shipping)
  → filter ≥ threshold → CC fixpoint    — `functions/components.py`
  → (doc_id, cluster) with cluster = min doc_id in the component.

Docs not in any surviving pair keep themselves as cluster (left join).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.dedup import band_rows, minhash_batch
from ..functions.components import connected_components
from ..util import safe_join


def minhash_signatures(docs_ds, *, n_perm: int = 64, k: int = 3,
                       seed: int = 42, batch_size: int = 256):
    """documents (doc_id, text) → (doc_id, sig): a TASK pool over
    ``minhash_batch`` (params cached per worker process) — per-execution
    actor spin-up would dominate this cheap-setup stage's wall time."""
    return docs_ds.map_batches(
        lambda b: minhash_batch(b, n_perm=n_perm, k=k, seed=seed),
        batch_format="pyarrow", batch_size=batch_size)


def lsh_candidate_pairs(sigs_ds, *, n_bands: int = 16, rows_per_band: int = 4,
                        pair_cap: int = 50, num_partitions: int = 8):
    """signatures → deduplicated candidate pairs (a < b).

    Both wide steps ride the raw-task hash exchange
    (``functions/exchange.hash_aggregate``) instead of Ray's sort-based
    groupby — the exchange BASELINE.md measured as the bottleneck and
    every other wide op already avoids.  Hub buckets keep at most
    ``pair_cap`` members chosen by md5-hash order: a deterministic,
    UNBIASED pseudo-random sample (first-k sorted doc_ids would bias
    candidate recall toward small ids), and SQL-expressible so the
    DuckDB oracle reproduces the cap exactly."""
    import hashlib

    from ..functions.exchange import grouped, hash_aggregate

    bands = sigs_ds.map_batches(
        lambda b: band_rows(b, n_bands, rows_per_band),
        batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        # per-block dedup of (bucket, doc) rows before the exchange
        return t.group_by(["band_id", "band_hash", "doc_id"]).aggregate([])

    def bucket_pairs(t: pa.Table) -> pa.Table:
        import collections

        typ = t["doc_id"].type
        bykey = collections.defaultdict(set)
        for bi, bh, d in zip(t["band_id"].to_pylist(),
                             t["band_hash"].to_pylist(),
                             t["doc_id"].to_pylist()):
            bykey[(bi, bh)].add(d)
        a_out, b_out = [], []
        for members in bykey.values():
            if len(members) > pair_cap:    # hub guard: unbiased sample
                ms = sorted(
                    members,
                    key=lambda d: (hashlib.md5(str(d).encode())
                                   .hexdigest(), d))[:pair_cap]
                ms.sort()
            else:
                ms = sorted(members)
            for i, x in enumerate(ms):
                for y in ms[i + 1:]:
                    a_out.append(x)
                    b_out.append(y)
        return pa.table({"a": pa.array(a_out, typ),
                         "b": pa.array(b_out, typ)})

    pairs = hash_aggregate(bands, ["band_id", "band_hash"],
                           combine, bucket_pairs,
                           num_partitions=num_partitions)

    # a pair found in several bands must be verified once
    return grouped(pairs, ["a", "b"], num_partitions=num_partitions)


def verify_pairs(pairs_ds, sigs_ds, *, threshold: float = 0.5,
                 num_partitions: int = 8):
    """Estimate Jaccard as the fraction of agreeing minhash components
    (E[match] = J, MMDS §3.3) — joins signatures instead of re-shipping
    document text. Returns edges (a, b, sim) with sim ≥ threshold."""
    # Arrow hash join rejects list<> payload columns — pack each
    # signature into fixed-width binary (n_perm × int64, zero-copy numpy)
    def pack(b: pa.Table, idc: str, sigc: str) -> pa.Table:
        packed = [np.asarray(s, np.int64).tobytes()
                  for s in b["sig"].to_pylist()]
        return pa.table({idc: b["doc_id"],
                         sigc: pa.array(packed, pa.binary())})

    sa = sigs_ds.map_batches(lambda b: pack(b, "a", "sig_a"),
                             batch_format="pyarrow")
    sb = sigs_ds.map_batches(lambda b: pack(b, "b", "sig_b"),
                             batch_format="pyarrow")
    joined = safe_join(
        safe_join(pairs_ds, sa, "inner", num_partitions, on=("a",)),
        sb, "inner", num_partitions, on=("b",))

    def est(b: pa.Table) -> pa.Table:
        A = np.array([np.frombuffer(x, np.int64)
                      for x in b["sig_a"].to_pylist()])
        B = np.array([np.frombuffer(x, np.int64)
                      for x in b["sig_b"].to_pylist()])
        sim = (A == B).mean(axis=1) if len(A) else np.zeros(0)
        t = pa.table({"a": b["a"], "b": b["b"],
                      "sim": pa.array(sim, pa.float64())})
        return t.filter(pc.greater_equal(t["sim"], pa.scalar(threshold)))

    return joined.map_batches(est, batch_format="pyarrow")


def near_dup_clusters(docs_ds, *, n_perm: int = 64, k: int = 3,
                      n_bands: int = 16, rows_per_band: int = 4,
                      threshold: float = 0.5, pair_cap: int = 50,
                      num_partitions: int = 8, seed: int = 42):
    """documents (doc_id, text) → (doc_id, cluster); cluster = min doc_id
    reachable through verified near-dup edges."""
    ids = docs_ds.map_batches(lambda b: b.select(["doc_id"]),
                              batch_format="pyarrow")
    # signatures are tiny vs the corpus (n_perm × 8 B/doc) and are read
    # THREE times (banding, verify join ×2); materialize once so the
    # signature tasks run exactly once
    sigs = minhash_signatures(docs_ds, n_perm=n_perm, k=k,
                              seed=seed).materialize()
    # candidate pairs are tiny vs the corpus: materialize to (a) reuse
    # across the verify join + CC rounds and (b) detect the no-pairs case
    # (an empty lazy dataset drops its schema, breaking downstream joins)
    pairs = lsh_candidate_pairs(sigs, n_bands=n_bands,
                                rows_per_band=rows_per_band,
                                pair_cap=pair_cap,
                                num_partitions=num_partitions).materialize()
    if pairs.count() == 0:
        return ids.map_batches(
            lambda b: pa.table({"doc_id": b["doc_id"],
                                "cluster": b["doc_id"]}),
            batch_format="pyarrow")
    edges = verify_pairs(pairs, sigs, threshold=threshold,
                         num_partitions=num_partitions).materialize()
    if edges.count() == 0:
        return ids.map_batches(
            lambda b: pa.table({"doc_id": b["doc_id"],
                                "cluster": b["doc_id"]}),
            batch_format="pyarrow")
    sch = docs_ds.schema()  # Ray Schema wrapper: parallel names/types
    id_type = sch.types[sch.names.index("doc_id")]
    numeric = pa.types.is_integer(id_type)

    def pad(col):
        # CC picks the lexicographic-min node as representative; zero-pad
        # integer ids so lexicographic == numeric order.  String ids
        # (e.g. entity IRIs) already have a deterministic lexicographic
        # min — pass through.
        col = pc.cast(col, pa.string())
        return pc.utf8_lpad(col, 20, "0") if numeric else col

    comp = connected_components(
        edges.map_batches(
            lambda b: pa.table({"src": pad(b["a"]), "dst": pad(b["b"])}),
            batch_format="pyarrow"),
        num_partitions=num_partitions)
    comp = comp.map_batches(
        lambda b: pa.table({
            "doc_id": pc.cast(b["node"], id_type),
            "_comp": pc.cast(b["component"], id_type)}),
        batch_format="pyarrow")
    out = safe_join(ids, comp, "left_outer", num_partitions,
                    on=("doc_id",))

    def finish(b: pa.Table) -> pa.Table:
        comp_col = b["_comp"].combine_chunks()
        doc = b["doc_id"].combine_chunks()
        cluster = pc.coalesce(comp_col, doc)
        return pa.table({"doc_id": doc, "cluster": cluster})

    return out.map_batches(finish, batch_format="pyarrow")
