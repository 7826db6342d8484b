"""The flagship KG-construction pipeline (north rule / SURVEY §7.1).

Two shapes of the same extraction:

* ``kg_pipeline``: ``pages → extract (map_batches) → NT format → exact
  dedup (hash exchange) → sort(s,p,o)`` as one streaming Dataset.
  Output: N-Triples-compatible ``(s, p, o[, url])`` rows, the same
  shape the oracle table uses for P/R scoring.
* ``kg_materialize_pipeline`` (the flagship): ``pages → [extract → NT
  format → in-block combiner → hash split] → exact dedup + sort +
  Parquet write per partition``.  The bracketed part is ONE raw task
  per page block, the map side of ``materialize_graph``'s exchange, so
  Ray Data only reads the pages.
"""

from __future__ import annotations

import functools

import pyarrow as pa

from ..stages.dedup import add_spo_key, dedup_triples, prededup_batch
from ..stages.extract import (extract_nt_batch, extract_text_batch,
                              extract_triples_batch)


def extract_triples(pages_ds, batch_size: int = 256):
    """pages → flat term-column triple rows (incl. error rows)."""
    return pages_ds.map_batches(
        extract_triples_batch,
        batch_format="pyarrow",
        batch_size=batch_size,  # html is multi-KB per row: keep batches modest
    )


def kg_pipeline(pages_ds, *, dedup: bool = True, sort: bool = True,
                keep_url: bool = True, batch_size: int = 256):
    """pages Dataset → distinct (s, p, o[, url]) triples Dataset."""
    keep = ("url",) if keep_url else ()
    nt = pages_ds.map_batches(lambda b: extract_nt_batch(b, keep=keep),
                              batch_format="pyarrow",
                              batch_size=batch_size)
    if dedup:
        nt = dedup_triples(nt, carry_min=keep)
    if sort:
        nt = nt.sort(["s", "p", "o"])
    return nt


def extract_prededup_block(block: pa.Table,
                           batch_size: int = 256) -> pa.Table:
    """One page block → its distinct (s, p, o) NT rows: the fused
    extract→NT kernel over ``batch_size``-page slices (bounds the
    kernel's working set — html is multi-KB per row), then one in-block
    combiner over the whole block.  The map-side ``transform`` of the
    flagship's materialize exchange."""
    nt = pa.concat_tables([
        extract_nt_batch(block.slice(lo, batch_size), keep=())
        for lo in range(0, max(block.num_rows, 1), batch_size)])
    return prededup_batch(add_spo_key(nt)).drop_columns(["spo_key"])


def kg_materialize_pipeline(pages_ds, out_dir: str, *,
                            num_shards: int = 64,
                            orders=("spo", "pos", "osp"),
                            batch_size: int = 256,
                            resume: bool = True):
    """The full north-star flagship: pages → extract → per-block
    combiner dedup → sharded SetGraph dedup + sorted SPO/POS/OSP
    Parquet layouts with lineage manifests (checkpoint-resumable).

    Stage graph: the pages Dataset goes to ``materialize_graph``
    unchanged; each page block's exchange map task runs
    ``extract_prededup_block`` (extract in ``batch_size``-page slices,
    then one combiner per block) and hash-splits the result; one write
    task per (order, shard, salt) partition dedups, sorts and writes.
    So there is no Ray Data operator between the read and the
    exchange, and no stored NT block.

    Exactly one int-keyed shuffle per index order — no global sort, no
    long-string groupby key; dedup happens (a) per block before the
    shuffle (combiner), (b) per shard inside the writer (exact, since a
    triple's shard is a pure function of its content).  This is the
    configuration benchmarked for the N→4N scaling criterion."""
    from ..stages.materialize import materialize_graph

    # NB: the shuffle fans every input block out to every (order, shard)
    # partition, so its overhead is O(blocks × partitions) small objects.
    # Callers control the block count at the SOURCE (e.g.
    # ``pages_dataset(n, override_num_blocks=2*cpus)``) — a mid-pipeline
    # repartition() is an extra barrier that serializes the extract
    # stage against the shuffle (measured 3-9× slower end-to-end).
    return materialize_graph(
        pages_ds, out_dir, orders=orders, num_shards=num_shards,
        resume=resume, distinct=True,
        transform=functools.partial(extract_prededup_block,
                                    batch_size=batch_size))


def extract_text(pages_ds, batch_size: int = 256):
    """pages → (url, text) — the byte-identical visible-text surface."""
    return pages_ds.map_batches(extract_text_batch, batch_format="pyarrow",
                                batch_size=batch_size)
