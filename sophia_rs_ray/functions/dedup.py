"""Near-duplicate detection kernels: MinHash+LSH, SimHash, n-gram
Jaccard — the SURVEY §2.8 "north-rule" dedup family.

Scale shape (the canonical Ray Data pattern):
  map_batches(minhash signatures)            — vectorized numpy, stateless
  → flat explode to (band_id, band_hash, id) — one row per band
  → groupby(band_id, band_hash)              — THE shuffle; salted if hot
  → per-bucket candidate pairs (capped)      — skew guard
  → verify Jaccard → connected components (iterated min-label
    propagation groupby — driver-bounded fixpoint).
"""

from __future__ import annotations

import re
from typing import Set, Tuple

import numpy as np
import pyarrow as pa
from ..util import safe_join

_MERSENNE = (1 << 61) - 1
# EXACTLY RE2's ASCII \W (what DuckDB's regexp_split_to_array('\W+')
# matches) — Python's own \W is unicode-aware and would tokenize
# "naïve" differently from the SQL oracle. ASCII-only corpora are
# identical under both definitions.
_TOKEN = re.compile(r"[^0-9A-Za-z_]+")


def _perm_params(n_perm: int, seed: int = 42) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, n_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE, n_perm, dtype=np.uint64)
    return a, b


def shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """k-word shingles → 64-bit hashes (stable across processes).
    md5-based so the DuckDB oracle can reproduce them exactly
    (``CAST('0x' || substr(md5(sh), 1, 16) AS UBIGINT)``)."""
    import hashlib

    toks = [t for t in _TOKEN.split(text.lower()) if t]
    if len(toks) < k:
        toks = toks + [""] * (k - len(toks))
    out = set()
    for i in range(max(1, len(toks) - k + 1)):
        sh = " ".join(toks[i:i + k]).encode()
        out.add(int.from_bytes(hashlib.md5(sh).digest()[:8], "big"))
    return np.fromiter(out, np.uint64, len(out))


def minhash_signature(hashes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a*x + b) mod p MinHash, fully vectorized (perms × shingles).
    The uint64 multiply wraps mod 2^64 before the mod-p reduction — not
    exact universal hashing, but deterministic and well-mixed (the same
    shortcut the common Python MinHash implementations take)."""
    if len(hashes) == 0:
        # sentinel inside [0, p): keeps signatures int64-safe unshifted
        return np.full(len(a), np.uint64(_MERSENNE - 1), np.uint64)
    with np.errstate(over="ignore"):
        vals = (a[:, None] * hashes[None, :] + b[:, None]) % np.uint64(_MERSENNE)
    return vals.min(axis=1)


from functools import lru_cache


@lru_cache(maxsize=8)
def _cached_perms(n_perm: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    return _perm_params(n_perm, seed)


def minhash_batch(batch: pa.Table, *, n_perm: int = 64, k: int = 3,
                  seed: int = 42) -> pa.Table:
    """Task-pool MinHash: permutation params cached per worker PROCESS
    (lru_cache) — the once-per-worker setup of the actor-pool pattern
    without per-execution actor spin-up.  Measured: the signature
    stage's remote compute is ~0.7 s at bench scale while a fresh
    actor pool costs ~2 s of wall per execution; state this cheap
    belongs in a cached task fn, actors are for expensive state."""
    a, b = _cached_perms(n_perm, seed)
    sigs = [minhash_signature(shingle_hashes(t or "", k), a, b)
            for t in batch["text"].to_pylist()]
    return pa.table({
        "doc_id": batch["doc_id"],
        "sig": pa.array([s.astype(np.int64) for s in sigs],
                        pa.list_(pa.int64())),
    })


def band_rows(batch: pa.Table, n_bands: int, rows_per_band: int) -> pa.Table:
    """Explode signatures to (band_id, band_hash, doc_id) rows.
    band_hash = first 60 bits of md5 over the comma-joined segment —
    positive int64, reproducible as DuckDB
    ``CAST('0x' || substr(md5(txt), 1, 15) AS BIGINT)``."""
    import hashlib

    ids, bands, hashes = [], [], []
    for doc_id, sig in zip(batch["doc_id"].to_pylist(),
                           batch["sig"].to_pylist()):
        arr = np.asarray(sig, np.int64)
        for bi in range(n_bands):
            seg = arr[bi * rows_per_band:(bi + 1) * rows_per_band]
            txt = ",".join(str(int(v)) for v in seg)
            h = int(hashlib.md5(txt.encode()).hexdigest()[:15], 16)
            ids.append(doc_id)
            bands.append(bi)
            hashes.append(h)
    return pa.table({"doc_id": pa.array(ids, batch["doc_id"].type),
                     "band_id": pa.array(bands, pa.int32()),
                     "band_hash": pa.array(hashes, pa.int64())})


def jaccard(a: Set[int], b: Set[int]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def simhash64(text: str) -> int:
    """64-bit SimHash over word features.  Token hash = top 8 bytes of
    md5 (NOT a speed-critical choice: md5 is reproducible in DuckDB as
    ``CAST('0x' || substr(md5(tok), 1, 16) AS UBIGINT)``, which lets
    the driver oracle recompute the whole SimHash in SQL)."""
    import hashlib

    v = np.zeros(64, np.int64)
    for tok in set(t for t in _TOKEN.split(text.lower()) if t):
        h = int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "big")
        bits = np.array([(h >> i) & 1 for i in range(64)], np.int64)
        v += bits * 2 - 1
    out = 0
    for i in range(64):
        if v[i] > 0:
            out |= 1 << i
    return out


def simhash_batch(b: pa.Table) -> pa.Table:
    hs = [simhash64(t or "") for t in b["text"].to_pylist()]
    return pa.table({"doc_id": b["doc_id"],
                     "simhash": pa.array([h - (1 << 63) for h in hs], pa.int64())})


def trigram_jaccard_consecutive(docs_ds, *, num_partitions: int = 4):
    """(doc_id, text) → (id_a, id_b, jac) for consecutive doc_ids —
    the exact-verification kernel of near-dup dedup, as a join +
    vectorized set ops.  Pairing by id+1 keeps the oracle join
    deterministic; in the real pipeline the pair list comes from LSH
    blocking instead (stages/neardup)."""
    import pyarrow.compute as pc

    def grams(b: pa.Table) -> pa.Table:
        # each doc's distinct whitespace-token 3-grams (the oracle's
        # string_split_regex('\\s+') tokens, no lowercasing) ride through
        # the join as one \x1f-joined string: Arrow's acero join rejects
        # list<> payload columns
        import polars as pl

        from .text import arrow_out, ngram_rows, token_frame

        grams = (ngram_rows(token_frame(b), 3, "g", ("rid",), distinct=True)
                 .group_by("rid").agg(grams=pl.col("g").str.join("\x1f")))
        df = (pl.from_arrow(b.select(["doc_id"]))
              .with_columns(rid=pl.int_range(pl.len(), dtype=pl.Int64))
              .join(grams, on="rid", how="left")
              .select(id=pl.col("doc_id").cast(pl.Int64),
                      grams=pl.col("grams").fill_null("")))
        return arrow_out(df, b, id=pa.int64(), grams=pa.large_string())

    left = docs_ds.map_batches(grams, batch_format="pyarrow")
    right = left.map_batches(
        lambda b: pa.table({"id": pc.subtract(b["id"], 1),
                            "grams_b": b["grams"]}),
        batch_format="pyarrow")
    joined = safe_join(left, right, "inner", num_partitions,
                       on=("id",))

    def jac(b: pa.Table) -> pa.Table:
        out_a, out_b, out_j = [], [], []
        for i, (ga, gb) in enumerate(zip(b["grams"].to_pylist(),
                                         b["grams_b"].to_pylist())):
            sa = set(ga.split("\x1f")) if ga else set()
            sb = set(gb.split("\x1f")) if gb else set()
            union = sa | sb
            if not union:
                continue
            out_a.append(b["id"][i].as_py())
            out_b.append(b["id"][i].as_py() + 1)
            out_j.append(round(len(sa & sb) / len(union), 4))
        return pa.table({"id_a": pa.array(out_a, pa.int64()),
                         "id_b": pa.array(out_b, pa.int64()),
                         "jac": pa.array(out_j, pa.float64())})

    return joined.map_batches(jac, batch_format="pyarrow")
