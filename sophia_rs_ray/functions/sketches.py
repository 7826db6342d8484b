"""Mergeable streaming sketches: HyperLogLog + Count-Min.

The 100-TB primitives for corpus statistics: both sketches merge
associatively (HLL: per-bucket MAX of ranks; CMS: per-cell SUM), so a
merged sketch is the fixed sketch size regardless of corpus size.  HLL
partials are per batch, so its exchange carries no distinct tokens at
all; CMS counters are derived from exact token counts
(:func:`cms_cells`), one sketch per token partition.

Both are DETERMINISTIC (md5-derived hashes, no RNG) and built from
exact integer / binary-fraction arithmetic, so the DuckDB oracles in
pipelines/queries.py reproduce them bit-for-bit:

- HLL ranks come from ``bin(w)`` string length (no float log2 on the
  hash path); the harmonic sum Σ 2^-M_j is a sum of binary fractions
  with ≤ 33 significand bits — EXACT in float64 in any summation
  order, so the raw estimate is bit-stable across partitionings.
- CMS counters are integer sums; estimates are integer mins.

Differential pins: tests/test_sketches.py (vs exact counts and a
hashlib reference); fuzz: tests/test_registry_fuzz.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .md5np import md5_prefix_u32_arrow

#: HLL precision: p=12 → m=4096 buckets, ~1.6% standard error —
#: 32 KiB of state for any corpus size
HLL_P = 12
HLL_M = 1 << HLL_P
#: bits of the md5-u32 hash left for the rank after the bucket index
HLL_RANK_BITS = 32 - HLL_P
#: alpha_m for m ≥ 128 (Flajolet et al. 2007)
HLL_ALPHA = 0.7213 / (1.0 + 1.079 / HLL_M)

#: CMS geometry: d=4 rows × w=1024 cells (16 KiB of int64 state)
CMS_D = 4
CMS_W = 1024
#: heavy-hitter report size
CMS_TOP_K = 20


def hll_partial_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → per-batch HLL partial: (bucket, maxrank) over
    the batch's tokens.  hash = first 4 md5 digest bytes (vectorized);
    bucket = hash >> (32-p); rank = leading zeros of the remaining
    (32-p)-bit window + 1 (window 0 → RANK_BITS+1).  Output is ≤ m
    rows regardless of batch size — the mergeable sketch property."""
    from .text import ngram_rows, token_lists

    toks = ngram_rows(token_lists(b, ()), 1, "tok", ()).unique().to_arrow()
    h = md5_prefix_u32_arrow(toks["tok"]).astype(np.uint32)
    bucket = (h >> np.uint32(HLL_RANK_BITS)).astype(np.int64)
    w = (h & np.uint32((1 << HLL_RANK_BITS) - 1)).astype(np.int64)
    # rank = RANK_BITS - bit_length(w) + 1;  w == 0 → RANK_BITS + 1.
    # bit_length via frexp's exponent: int64 < 2^53 converts to float64
    # exactly and frexp is exact (no log rounding hazard) —
    # w = mant · 2^e with mant ∈ [0.5, 1) ⇒ e = bit_length(w).
    bl = np.zeros(len(w), np.int64)
    nz = w > 0
    bl[nz] = np.frexp(w[nz].astype(np.float64))[1].astype(np.int64)
    rank = HLL_RANK_BITS - bl + 1
    t = pa.table({"bucket": pa.array(bucket, pa.int64()),
                  "maxrank": pa.array(rank, pa.int64())})
    return (t.group_by(["bucket"]).aggregate([("maxrank", "max")])
            .rename_columns(["bucket", "maxrank"]))


def hll_estimate(buckets: np.ndarray, maxranks: np.ndarray) -> dict:
    """Assemble the HLL estimate from merged (bucket, maxrank) rows.
    Returns est (float, raw or linear-counting-corrected), nonzero
    bucket count, and m.  Σ 2^-M_j is exact in float64 (binary
    fractions, ≤ 33 significand bits), so the value is independent of
    summation order — safe to reproduce in SQL."""
    import math

    nonzero = len(buckets)
    zeros = HLL_M - nonzero
    s = float(np.sum(np.ldexp(1.0, -maxranks.astype(np.int64)))) + zeros
    raw = HLL_ALPHA * HLL_M * HLL_M / s
    if raw <= 2.5 * HLL_M and zeros > 0:
        est = HLL_M * math.log(HLL_M / zeros)
    else:
        est = raw
    return {"est_distinct": round(est, 4),
            "nonzero_buckets": nonzero, "m": HLL_M}


def cms_cells(counts: pa.Table) -> pa.Table:
    """Exact (tok, c) occurrence counts → their Count-Min counters
    (row, cell, c): cell(row, tok) = md5(f"{row}:{tok}") % w
    (vectorized md5), c summed per cell.  ≤ d·w rows out for any number
    of tokens, and mergeable by per-cell SUM — so the sketch of a
    corpus is the per-cell sum of its token partitions' sketches."""
    import pyarrow.compute as pc

    toks = counts["tok"].cast(pa.string())
    c = counts["c"].cast(pa.int64())
    parts = []
    for row in range(CMS_D):
        salted = pc.binary_join_element_wise(
            pa.array([f"{row}:"] * len(toks), pa.string()),
            toks, "")
        cell = (md5_prefix_u32_arrow(salted) % np.uint32(CMS_W)) \
            .astype(np.int64)
        parts.append(pa.table({
            "row": pa.array(np.full(len(toks), row, np.int64)),
            "cell": pa.array(cell, pa.int64()),
            "c": c}))
    t = pa.concat_tables(parts)
    return (t.group_by(["row", "cell"]).aggregate([("c", "sum")])
            .rename_columns(["row", "cell", "c"]))


def cms_lookup(cells: dict, tok: str) -> int:
    """CMS point estimate: min over rows of the token's cell counters
    (missing cell → 0).  ``cells`` maps (row, cell) → counter."""
    import hashlib

    est = None
    for row in range(CMS_D):
        h = int(hashlib.md5(f"{row}:{tok}".encode()).hexdigest()[:8], 16)
        v = cells.get((row, h % CMS_W), 0)
        est = v if est is None else min(est, v)
    return int(est or 0)
