"""Exact distributed deduplication — the ``SetGraph`` semantics
(``inmem/src/graph.rs:111-143``) as a shuffle.

Pattern (SURVEY §2.8): compose a single key column, pre-deduplicate
inside each batch (combiner — cuts shuffle volume before the wide op),
then one exact per-triple aggregate on the raw-task hash exchange
(``functions.exchange.hash_aggregate``), fully vectorized (no per-group
Python). The key IS the content, so the aggregate only needs to carry
provenance (min url) and multiplicity.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

SEP = "\x1f"


def add_spo_key(batch: pa.Table, cols=("s", "p", "o")) -> pa.Table:
    arrs = [pc.cast(batch[c], pa.large_string()) for c in cols]
    key = pc.binary_join_element_wise(*arrs, pa.scalar(SEP, pa.large_string()))
    return batch.append_column("spo_key", key)


def prededup_batch(batch: pa.Table, key: str = "spo_key") -> pa.Table:
    """In-batch combiner: keep first row per key (pyarrow hash-groupby)."""
    idx = pa.table({key: batch[key],
                    "_i": pa.array(range(len(batch)), pa.int64())})
    first = idx.group_by(key).aggregate([("_i", "min")])
    return batch.take(first["_i_min"].combine_chunks())


def dedup_triples(ds, carry_min: tuple = ("url",), with_count: bool = False,
                  num_partitions: int = 16):
    """Dataset of (s,p,o[,url,...]) NT-text rows → distinct triples.

    The one wide op of the core pipeline, run on the raw-task
    hash-exchange (functions/exchange.py — measured ~5× cheaper than the
    sort-based groupby at bench scale): per-block combiner dedup, then
    one exact per-partition dedup.  The combiner means a hub triple is
    shipped once per *block*, not once per page.  The s/p/o payload is
    plain large_string; dictionary-encoded input is decoded once where
    its block enters the exchange.  A 0-row block without s/p/o (Ray
    passes 0-row blocks through ``map_batches`` without calling the fn)
    adds no rows.
    """
    from ..functions.exchange import hash_aggregate

    keep_extra = list(carry_min) + (["n_dups"] if with_count else [])
    carry = list(carry_min)
    term_cols = ["s", "p", "o"]

    def _aggs():
        aggs = [(c, "min") for c in carry]
        if with_count:
            aggs.append(("n_dups", "sum"))
        return aggs

    def _names():
        return term_cols + carry + (["n_dups"] if with_count else [])

    def combine(b: pa.Table) -> pa.Table:
        if not b.num_rows and not set(term_cols) <= set(b.column_names):
            return pa.table({c: pa.array([], pa.int64() if c == "n_dups"
                                         else pa.large_string())
                             for c in _names()})
        b = add_spo_key(b)
        cols = {"spo_key": b["spo_key"]}
        for c in term_cols:
            cols[c] = pc.cast(b[c], pa.large_string())
        for c in carry:
            cols[c] = b[c]
        if with_count:
            cols["n_dups"] = pa.array([1] * b.num_rows, pa.int64())
        t = pa.table(cols)
        # s/p/o are functionally determined by the key; "min" carries
        # them through the per-key aggregate
        g = t.group_by("spo_key").aggregate(
            [(c, "min") for c in term_cols] + _aggs())
        return g.rename_columns(["spo_key"] + _names()).select(_names())

    def finalize(t: pa.Table) -> pa.Table:
        aggs = _aggs() or [([], "count_all")]
        g = t.group_by(term_cols).aggregate(aggs)
        g = g.select(g.column_names[:len(_names())])
        g = g.rename_columns(_names()[:g.num_columns])
        keep = term_cols + [c for c in keep_extra if c in g.column_names]
        return g.select(keep)

    return hash_aggregate(ds, term_cols, combine, finalize,
                          num_partitions=num_partitions)
