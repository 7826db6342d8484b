"""Canonical entity dedup: MinHash-LSH blocking over entity names →
verified edges → connected components → subject/object rewrite.

The north-star canonicalization stage (SURVEY §7.2 step 5): entities
whose surface names are near-duplicates collapse onto one canonical IRI
(min IRI in the component), and the triple table is rewritten through a
broadcast mapping — the KG analogue of document near-dup dedup, sharing
its MinHash/LSH/CC machinery (stages/neardup).

Scale notes: the *entity name table* is the small side (O(#entities)),
so the LSH pipeline runs over it, not the corpus; the resulting
mapping contains ONLY merged entities (non-identity rows) and is
broadcast with ``ray.put`` once; each worker process builds its
:class:`RewriteTerms` from it once (``functions.broadcast.worker_cached``).
Hub surfaces are capped by the LSH ``pair_cap``; the rewrite pass itself
is embarrassingly parallel.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..util import safe_join
from .ner import SCHEMA_NAME, _unescape_nt_literal


def entity_name_table(nt_ds, *, subject_prefix: str = "",
                      name_predicate: str = SCHEMA_NAME):
    """(doc_id=NT-IRI, text=name) rows for IRI-subject entities — the
    LSH input.  Distinct per (entity, name)."""
    pred = f"<{name_predicate}>"

    def pick(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(b["p"], pa.scalar(pred)),
                    pc.starts_with(b["s"], "<" + subject_prefix))
        f = b.filter(m)
        names = [_unescape_nt_literal(o) or "" for o in f["o"].to_pylist()]
        t = pa.table({"doc_id": pc.cast(f["s"], pa.string()),
                      "text": pa.array(names, pa.string())})
        return t.group_by(["doc_id", "text"]).aggregate([])

    return nt_ds.map_batches(pick, batch_format="pyarrow")


def entity_mapping_ds(nt_ds, *, subject_prefix: str = "",
                      name_predicate: str = SCHEMA_NAME,
                      threshold: float = 0.9, **neardup_kwargs):
    """Dataset of (old, canon) NT-IRI pairs for MERGED entities only
    (identity rows filtered out) — stays distributed; callers choose
    broadcast-dict vs join-rewrite by its size."""
    from .neardup import near_dup_clusters

    ents = entity_name_table(nt_ds, subject_prefix=subject_prefix,
                             name_predicate=name_predicate)
    clusters = near_dup_clusters(ents, threshold=threshold,
                                 **neardup_kwargs)
    return clusters.map_batches(
        lambda b: (lambda f: pa.table({
            "old": pc.cast(f["doc_id"], pa.string()),
            "canon": pc.cast(f["cluster"], pa.string())}))(
            b.filter(pc.invert(pc.equal(b["cluster"], b["doc_id"])))),
        batch_format="pyarrow")


def exact_entity_mapping_ds(nt_ds, *, subject_prefix: str = "",
                            name_predicate: str = SCHEMA_NAME):
    """Dataset (old, canon) for entities whose names are *exactly*
    equal (canonical = min IRI per name group) — the SQL-checkable
    sibling of ``entity_mapping_ds``."""
    from ray.data.aggregate import Min

    ents = entity_name_table(nt_ds, subject_prefix=subject_prefix,
                             name_predicate=name_predicate)
    canon = ents.groupby("text").aggregate(Min("doc_id", alias_name="canon"))
    pairs = safe_join(ents, canon, "inner", 8, on=("text",))
    return pairs.map_batches(
        lambda b: (lambda f: pa.table({
            "old": pc.cast(f["doc_id"], pa.string()),
            "canon": pc.cast(f["canon"], pa.string())}))(
            b.filter(pc.invert(pc.equal(b["doc_id"], b["canon"])))),
        batch_format="pyarrow")


def rewrite_via_join(nt_ds, mapping_ds, *, num_partitions: int = 16):
    """Distributed rewrite: left-join the triple table against the
    (old, canon) mapping on s then on o, coalescing matches — the
    above-RAM path the broadcast dict can't serve."""
    mapping_ds = mapping_ds.map_batches(
        lambda b: pa.table({
            "old": pc.cast(b["old"], pa.large_string()),
            "canon": pc.cast(b["canon"], pa.large_string())}),
        batch_format="pyarrow").materialize()  # match triple col types
    for col in ("s", "o"):
        if mapping_ds.count() == 0:
            break
        nt_ds = safe_join(
            nt_ds, mapping_ds, "left_outer", num_partitions,
            on=(col,), right_on=("old",))

        def merge(b: pa.Table, _col=col) -> pa.Table:
            out = {}
            for c in b.column_names:
                if c == _col:
                    out[c] = pc.cast(
                        pc.coalesce(b["canon"], b[_col]), pa.large_string())
                elif c in ("canon", "old"):
                    continue
                else:
                    out[c] = b[c]
            return pa.table(out)

        nt_ds = nt_ds.map_batches(merge, batch_format="pyarrow")
    return nt_ds


class RewriteTerms:
    """Rewrite s/o through an {old: canon} mapping.  The dict is
    converted ONCE to parallel Arrow key/value arrays; each batch is
    then a vectorized index_in/take/coalesce — no Python loop touches
    the corpus."""

    def __init__(self, mapping: dict):
        self.keys = pa.array(list(mapping.keys()), pa.large_string())
        self.vals = pa.array(list(mapping.values()), pa.large_string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(self.keys) == 0:
            return batch
        cols = dict.fromkeys(batch.column_names)
        for c in batch.column_names:
            if c in ("s", "o"):
                col = pc.cast(batch[c], pa.large_string())
                idx = pc.index_in(col, value_set=self.keys)
                cols[c] = pc.coalesce(pc.take(self.vals, idx), col)
            else:
                cols[c] = batch[c]
        return pa.table(cols)


def canonicalize_entities(nt_ds, *, subject_prefix: str = "",
                          name_predicate: str = SCHEMA_NAME,
                          threshold: float = 0.9,
                          dedup: bool = True,
                          method: str = "lsh",
                          **neardup_kwargs):
    """Full stage: triples → (mapping via LSH+CC, or exact name match
    with ``method="exact"``) → rewritten, deduped triples.
    Returns (dataset, mapping) — ``mapping`` is a driver dict on the
    broadcast path, or the (old, canon) Dataset when the merged-entity
    count exceeds ``BROADCAST_ROWS`` (join-rewrite path)."""
    import ray

    from ..functions.broadcast import (BROADCAST_ROWS, gated_gather,
                                       worker_cached)

    nt_ds = nt_ds.materialize()  # consumed twice: mapping build + rewrite
    if method == "exact":
        map_ds = exact_entity_mapping_ds(
            nt_ds, subject_prefix=subject_prefix,
            name_predicate=name_predicate)
    else:
        map_ds = entity_mapping_ds(nt_ds, subject_prefix=subject_prefix,
                                   name_predicate=name_predicate,
                                   threshold=threshold, **neardup_kwargs)
    map_ds = map_ds.materialize()
    pairs = gated_gather(map_ds, BROADCAST_ROWS)
    if pairs is None:
        mapping = map_ds
        out = rewrite_via_join(nt_ds, map_ds)
    else:
        mapping = dict(zip(pairs["old"].to_pylist(),
                           pairs["canon"].to_pylist())) \
            if pairs.num_rows else {}
        ref = ray.put(mapping)
        out = nt_ds.map_batches(
            lambda b: worker_cached(ref, RewriteTerms)(b),
            batch_format="pyarrow")
    if dedup:
        from .dedup import dedup_triples

        carry = tuple(c for c in ("url",) if c in nt_ds.schema().names)
        out = dedup_triples(out, carry_min=carry)
    return out, mapping
