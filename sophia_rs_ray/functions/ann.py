"""Embedding similarity ops: cosine near-dup pairs + IVF-bucketed ANN.

SURVEY training-data ops, r2 scale rework (r1 VERDICT items 3/6):

- ``cosine_near_dup`` — EXACT all-pairs at a threshold, now computed as
  distributed block×block tile tasks over normalized chunk matrices: no
  driver ``take_all``, no O(N·d) broadcast.  Exact all-pairs is
  inherently O(N²) flops; this shape spreads them over the cluster with
  O(B²) tiles of bounded memory.  For true 10^12 scale use the LSH
  variant below (approximate, near-linear).
- ``cosine_near_dup_lsh`` — SimHash-banded candidate generation
  (seeded hyperplanes → band keys → per-bucket pairs through the hash
  exchange) + exact cosine verification of the candidates only.
  Recall vs brute force asserted in tests/test_ann.py.
- ``materialize_ivf`` / ``ivf_topk_indexed`` — the IVF layout is now
  PERSISTED as one Parquet file per bucket with a manifest, and probed
  queries read ONLY the probed bucket files (`n_probe / n_buckets` of
  the bytes) instead of scanning every batch and filtering in-flight.
  Bucket ids stay a pure function of the vector (seeded projection
  centroids) — deterministic, resume-safe, no trained state.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

import numpy as np
import pyarrow as pa


def _normalize(mat: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(mat, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return mat / n


def _mat_of(batch: pa.Table) -> Tuple[np.ndarray, np.ndarray]:
    import pyarrow.compute as _pc

    # null embeddings are skipped (the ANN oracles filter IS NOT NULL)
    batch = batch.filter(_pc.is_valid(batch["embedding"]))
    ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
    if len(ids) == 0:
        return ids, np.zeros((0, 1), np.float64)
    mat = _normalize(np.array(batch["embedding"].to_pylist(),
                              dtype=np.float64))
    return ids, mat


# ---------------------------------------------------------------------------
# exact all-pairs (distributed tiles)
# ---------------------------------------------------------------------------

def cosine_near_dup(emb_ds, *, threshold: float = 0.4,
                    concurrency=None, batch_size: int = 4096):
    """All pairs with cosine ≥ threshold, as distributed block-tile
    matmuls.  Each tile task holds two normalized chunks (bounded
    memory); pairs are emitted as (min_id, max_id) so every unordered
    pair appears exactly once."""
    import ray
    import ray.data as rd

    # re-bundle so tiles have a predictable size
    emb_ds = emb_ds.map_batches(lambda t: t, batch_format="pyarrow",
                                batch_size=batch_size)
    refs = emb_ds.to_arrow_refs()
    if not refs:
        return rd.from_arrow(pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "sim": pa.array([], pa.float64())}))
    preps = [_prep_chunk.remote(r) for r in refs]
    tiles = []
    for i in range(len(preps)):
        for j in range(i, len(preps)):
            tiles.append(_tile_pairs.remote(preps[i], preps[j], i == j,
                                            threshold))
    return rd.from_arrow_refs(tiles)


def _prep_chunk_impl(tbl: pa.Table):
    return _mat_of(tbl)


def _tile_pairs_impl(a, b, same: bool, threshold: float) -> pa.Table:
    ids_a, mat_a = a
    ids_b, mat_b = b
    if len(ids_a) == 0 or len(ids_b) == 0:
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64()),
                         "sim": pa.array([], pa.float64())})
    sims = mat_a @ mat_b.T
    rows, cols = np.nonzero(sims >= threshold)
    ia, ib, s = ids_a[rows], ids_b[cols], sims[rows, cols]
    if same:
        keep = ia < ib          # each unordered pair appears twice here
    else:
        keep = ia != ib         # cross tiles see each pair once
    ia, ib, s = ia[keep], ib[keep], s[keep]
    lo, hi = np.minimum(ia, ib), np.maximum(ia, ib)
    return pa.table({"id_a": pa.array(lo, pa.int64()),
                     "id_b": pa.array(hi, pa.int64()),
                     "sim": pa.array(np.round(s, 4), pa.float64())})


import ray as _ray  # noqa: E402


_prep_chunk = _ray.remote(_prep_chunk_impl)
_tile_pairs = _ray.remote(_tile_pairs_impl)


# ---------------------------------------------------------------------------
# SimHash-banded LSH near-dup (the 10^12-scale path; approximate)
# ---------------------------------------------------------------------------

def _planes(dim: int, n_planes: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_planes, dim))


def cosine_near_dup_lsh(emb_ds, *, threshold: float = 0.4,
                        n_planes: int = 128, band_bits: int = 4,
                        seed: int = 11, num_partitions: int = 16,
                        pair_cap: int = 5000):
    """Banded SimHash blocking + exact verification of candidates only.

    Stage 1 emits (band, key, vec_id) signature rows; stage 2 groups by
    band key through the hash exchange and emits candidate id pairs
    (hub buckets capped at ``pair_cap`` pairs); stage 3 joins the
    candidate ids back to their vectors and keeps exact cosine ≥
    threshold.  Recall is probabilistic (1-(1-p^bits)^bands per pair);
    parameters default to ≥99% at threshold 0.4."""
    import ray.data as rd

    from ..util import safe_join
    from .exchange import hash_aggregate

    n_bands = n_planes // band_bits
    emb_ds = emb_ds.materialize()

    def sigs(b: pa.Table) -> pa.Table:
        ids, mat = _mat_of(b)
        if len(ids) == 0:
            return pa.table({"key": pa.array([], pa.string()),
                             "vec_id": pa.array([], pa.int64())})
        pl = _planes(mat.shape[1], n_planes, seed)
        bits = (mat @ pl.T) >= 0                       # (n × planes)
        keys: List[str] = []
        vids: List[int] = []
        for band in range(n_bands):
            chunk = bits[:, band * band_bits:(band + 1) * band_bits]
            vals = chunk @ (1 << np.arange(band_bits))
            keys.extend(f"{band}:{int(v)}" for v in vals)
            vids.extend(ids.tolist())
        return pa.table({"key": pa.array(keys, pa.string()),
                         "vec_id": pa.array(vids, pa.int64())})

    sig = emb_ds.map_batches(sigs, batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        # per-block dedup of (key, vec_id)
        return t.group_by(["key", "vec_id"]).aggregate([])

    def pairs_of(t: pa.Table) -> pa.Table:
        out_a: List[int] = []
        out_b: List[int] = []
        if t.num_rows:
            import collections

            bykey = collections.defaultdict(set)
            for k, v in zip(t["key"].to_pylist(), t["vec_id"].to_pylist()):
                bykey[k].add(v)
            for k, members in bykey.items():
                ms = sorted(members)
                n_pairs = len(ms) * (len(ms) - 1) // 2
                if n_pairs > pair_cap:
                    ms = ms[:int((2 * pair_cap) ** 0.5) + 1]  # hub guard
                for i in range(len(ms)):
                    for j in range(i + 1, len(ms)):
                        out_a.append(ms[i])
                        out_b.append(ms[j])
        return pa.table({"id_a": pa.array(out_a, pa.int64()),
                         "id_b": pa.array(out_b, pa.int64())})

    cand = hash_aggregate(sig, ["key"], combine, pairs_of,
                          num_partitions=num_partitions)

    def dedup(t: pa.Table) -> pa.Table:
        return t.group_by(["id_a", "id_b"]).aggregate([])

    cand = hash_aggregate(cand, ["id_a", "id_b"], dedup, dedup,
                          num_partitions=num_partitions).materialize()
    if cand.count() == 0:
        return rd.from_arrow(pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "sim": pa.array([], pa.float64())}))

    def pack(b: pa.Table) -> pa.Table:
        # Ray's hash join rejects list<float> payload columns — ship
        # vectors as fixed-width binary instead
        import pyarrow.compute as _pc

        b = b.filter(_pc.is_valid(b["embedding"]))  # skip null vectors
        mat = np.array(b["embedding"].to_pylist(), dtype=np.float64)
        return pa.table({"vec_id": b["vec_id"],
                         "emb": pa.array([m.tobytes() for m in mat],
                                         pa.binary())})

    vecs = emb_ds.map_batches(pack, batch_format="pyarrow")
    j1 = safe_join(cand, vecs, "inner", num_partitions,
                   on=("id_a",), right_on=("vec_id",))
    j1 = j1.map_batches(
        lambda b: pa.table({"id_a": b["id_a"], "id_b": b["id_b"],
                            "emb_a": b["emb"]}),
        batch_format="pyarrow")
    j2 = safe_join(j1, vecs, "inner", num_partitions,
                   on=("id_b",), right_on=("vec_id",))

    def verify(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        ea = _normalize(np.stack([np.frombuffer(x, dtype=np.float64)
                                  for x in b["emb_a"].to_pylist()]))
        eb = _normalize(np.stack([np.frombuffer(x, dtype=np.float64)
                                  for x in b["emb"].to_pylist()]))
        sims = np.sum(ea * eb, axis=1)
        keep = sims >= threshold
        return pa.table({
            "id_a": pa.array(np.asarray(b["id_a"])[keep], pa.int64()),
            "id_b": pa.array(np.asarray(b["id_b"])[keep], pa.int64()),
            "sim": pa.array(np.round(sims[keep], 4), pa.float64())})

    return j2.map_batches(verify, batch_format="pyarrow")


#: rows above which the exact O(N²) tile plans refuse to be the default
#: plan: the registry entries (pipelines/queries.py) route inputs larger
#: than this through the near-linear LSH siblings instead (mirrors the
#: _MAPPING_BROADCAST_LIMIT / _DECONTAM_BROADCAST_LIMIT precedent).
#: Overridable for tests via SOPHIA_EXACT_SIM_LIMIT.
EXACT_SIM_LIMIT = 200_000


def exact_sim_limit() -> int:
    return int(os.environ.get("SOPHIA_EXACT_SIM_LIMIT", EXACT_SIM_LIMIT))


def knn_self_join_lsh(emb_ds, *, k: int = 3, n_planes: int = 128,
                      band_bits: int = 4, seed: int = 11,
                      num_partitions: int = 16, pair_cap: int = 5000):
    """Approximate KNN self-join — the near-linear 10^12-scale sibling
    of ``knn_self_join``: SimHash-banded candidate pairs (exact cosine
    verified), symmetrized, then ONE per-id top-k merge exchange.
    Recall vs the exact tiles is asserted in tests/test_ann.py."""
    from .exchange import hash_aggregate

    # threshold=-1.0 keeps every verified candidate pair (cosine ≥ -1
    # always) so ranking sees all LSH-colliding neighbors
    pairs = cosine_near_dup_lsh(emb_ds, threshold=-1.0, n_planes=n_planes,
                                band_bits=band_bits, seed=seed,
                                num_partitions=num_partitions,
                                pair_cap=pair_cap)

    def sym(t: pa.Table) -> pa.Table:
        # each undirected pair feeds both endpoints' candidate lists
        fwd = pa.table({"id": t["id_a"], "neighbor_id": t["id_b"],
                        "sim": t["sim"]})
        rev = pa.table({"id": t["id_b"], "neighbor_id": t["id_a"],
                        "sim": t["sim"]})
        return pa.concat_tables([fwd, rev]).combine_chunks()

    cand = pairs.map_batches(sym, batch_format="pyarrow")
    return hash_aggregate(cand, ["id"],
                          lambda t: _topk_per_id(t, k),
                          lambda t: _topk_per_id(t, k),
                          num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# IVF-bucketed ANN with a persisted, pruned-read layout
# ---------------------------------------------------------------------------

def projection_centroids(dim: int, k: int, seed: int = 7) -> np.ndarray:
    """Deterministic pseudo-centroids: k seeded gaussian directions.
    (A trained k-means would need a fit pass; seeded projections keep
    the bucket id a pure function of the vector — resume-safe.)"""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((k, dim))
    return _normalize(c)


def bucket_of(vecs: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.argmax(_normalize(vecs) @ centroids.T, axis=1)


def _split_ivf_impl(tbl: pa.Table, n_buckets: int, seed: int):
    if tbl.num_rows == 0:
        return tuple([tbl] * n_buckets)
    _ids, mat = _mat_of(tbl)
    cents = projection_centroids(mat.shape[1], n_buckets, seed)
    part = bucket_of(mat, cents).astype(np.int64)
    order = np.argsort(part, kind="stable")
    sorted_tbl = tbl.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(n_buckets + 1))
    return tuple(sorted_tbl.slice(int(bounds[j]),
                                  int(bounds[j + 1] - bounds[j]))
                 for j in range(n_buckets))


def _write_ivf_impl(out_dir: str, j: int, *parts) -> int:
    import pyarrow.parquet as pq

    parts = [p for p in parts if p is not None and p.num_rows]
    if not parts:
        return 0
    t = pa.concat_tables(parts)
    tmp = os.path.join(out_dir, f".bucket-{j:05d}.parquet.tmp")
    pq.write_table(t, tmp)
    os.replace(tmp, os.path.join(out_dir, f"bucket-{j:05d}.parquet"))
    return t.num_rows


_write_ivf = _ray.remote(_write_ivf_impl)


def materialize_ivf(emb_ds, out_dir: str, *, n_buckets: int = 16,
                    seed: int = 7, resume: bool = True) -> dict:
    """Write the IVF layout: one Parquet file per bucket plus a
    ``_manifest.json`` (bucket → rows, dim, params).  The shared
    exchange (``exchange.scatter``) splits each block into one object
    per bucket; one write task per bucket concatenates them.
    ``resume=True`` returns the existing manifest untouched when
    present (per-partition lineage → a failed run re-writes only
    missing buckets via a fresh pass)."""
    import ray

    from .exchange import scatter

    man_path = os.path.join(out_dir, "_manifest.json")
    if resume and os.path.exists(man_path):
        with open(man_path) as f:
            man = json.load(f)
        if man.get("n_buckets") == n_buckets and man.get("seed") == seed:
            return man
    os.makedirs(out_dir, exist_ok=True)
    refs = emb_ds.to_arrow_refs()
    dim = None
    for r in refs:
        t = ray.get(r)
        if t.num_rows:
            dim = len(t["embedding"][0].as_py())
            break
    if dim is None:
        raise ValueError("empty embedding dataset")
    pieces, _ = scatter(refs, _split_ivf_impl, (n_buckets, seed), n_buckets)
    rows = ray.get([_write_ivf.remote(out_dir, j, *p)
                    for j, p in enumerate(pieces)])
    man = {"n_buckets": n_buckets, "seed": seed, "dim": dim,
           "buckets": {str(j): n for j, n in enumerate(rows)}}
    tmp = man_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(man, f)
    os.replace(tmp, man_path)
    return man


def ivf_probe_files(out_dir: str, query: List[float],
                    n_probe: int = 4) -> List[str]:
    """The bucket files a query actually reads: the ``n_probe`` buckets
    whose centroid is nearest the query (empty buckets skipped)."""
    with open(os.path.join(out_dir, "_manifest.json")) as f:
        man = json.load(f)
    q = np.asarray(query, dtype=np.float64)
    cents = projection_centroids(man["dim"], man["n_buckets"], man["seed"])
    order = np.argsort(-(_normalize(q[None, :]) @ cents.T)[0])
    files = []
    for j in order[:n_probe]:
        if man["buckets"].get(str(int(j)), 0) > 0:
            files.append(os.path.join(out_dir, f"bucket-{int(j):05d}.parquet"))
    return files


def ivf_topk_indexed(out_dir: str, query: List[float], *, k: int = 10,
                     n_probe: int = 4, exclude_id: Optional[int] = None):
    """ANN top-k over the persisted layout: reads ONLY the probed
    bucket files (pruned at the read, not filtered in-flight)."""
    import ray.data as rd

    files = ivf_probe_files(out_dir, query, n_probe)
    if not files:
        return rd.from_arrow(pa.table({
            "vec_id": pa.array([], pa.int64()),
            "sim": pa.array([], pa.float64())}))
    ds = rd.read_parquet(files, columns=["vec_id", "embedding"])
    q = np.asarray(query, dtype=np.float64)
    qn = q / (np.linalg.norm(q) or 1.0)

    def score(batch: pa.Table) -> pa.Table:
        ids, mat = _mat_of(batch)
        if exclude_id is not None and len(ids):
            keep = ids != exclude_id
            ids, mat = ids[keep], mat[keep]
        sims = mat @ qn if len(ids) else np.array([])
        if len(sims) > k:        # per-batch top-k prune (combiner)
            top = np.argpartition(-sims, k)[:k]
            ids, sims = ids[top], sims[top]
        return pa.table({"vec_id": pa.array(ids.tolist(), pa.int64()),
                         "sim": pa.array([round(float(s), 4) for s in sims],
                                         pa.float64())})

    return (ds.map_batches(score, batch_format="pyarrow")
            .sort(["sim", "vec_id"], descending=[True, False]).limit(k))


def ivf_topk(emb_ds, query: List[float], *, k: int = 10,
             n_buckets: int = 16, n_probe: int = 4,
             exclude_id: Optional[int] = None, seed: int = 7):
    """Layout-free ANN top-k (scans the dataset, filters by bucket
    in-flight) — kept for ad-hoc queries without a persisted layout;
    prefer ``materialize_ivf`` + ``ivf_topk_indexed`` for repeated
    queries and scale."""
    q = np.asarray(query, dtype=np.float64)
    cents = projection_centroids(len(q), n_buckets, seed)
    probe = set(np.argsort(-(_normalize(q[None, :]) @ cents.T)[0])[:n_probe]
                .tolist())
    qn = q / (np.linalg.norm(q) or 1.0)

    def score(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        batch = batch.filter(_pc.is_valid(batch["embedding"]))
        ids = np.asarray(batch["vec_id"].to_pylist())
        vecs = np.array(batch["embedding"].to_pylist(), dtype=np.float64)
        buckets = bucket_of(vecs, cents)
        mask = np.isin(buckets, list(probe))
        if exclude_id is not None:
            mask &= ids != exclude_id
        ids, vecs = ids[mask], vecs[mask]
        sims = _normalize(vecs) @ qn if len(vecs) else np.array([])
        if len(sims) > k:
            top = np.argpartition(-sims, k)[:k]
            ids, sims = ids[top], sims[top]
        return pa.table({"vec_id": pa.array(ids.tolist(), pa.int64()),
                         "sim": pa.array([round(float(s), 4) for s in sims],
                                         pa.float64())})

    return (emb_ds.map_batches(score, batch_format="pyarrow")
            .sort(["sim", "vec_id"], descending=[True, False]).limit(k))


# ---------------------------------------------------------------------------
# exact KNN self-join (distributed tiles → per-id top-k merge)
# ---------------------------------------------------------------------------

def _topk_per_id(t: pa.Table, k: int) -> pa.Table:
    """Per-id top-k of (id, neighbor_id, sim) rows by the total order
    (sim desc, neighbor_id asc) — vectorized run-length selection."""
    if t.num_rows == 0:
        return t
    ids = t["id"].combine_chunks().to_numpy(zero_copy_only=False) \
        .astype(np.int64, copy=False)
    nid = t["neighbor_id"].combine_chunks().to_numpy(zero_copy_only=False) \
        .astype(np.int64, copy=False)
    sim = t["sim"].combine_chunks().to_numpy(zero_copy_only=False) \
        .astype(np.float64, copy=False)
    order = np.lexsort((nid, -sim, ids))  # id asc, sim desc, nid asc
    ids, nid, sim = ids[order], nid[order], sim[order]
    starts = np.r_[0, np.nonzero(np.diff(ids))[0] + 1]
    rank = np.arange(len(ids)) - np.repeat(starts, np.diff(np.r_[starts, len(ids)]))
    keep = rank < k
    return pa.table({"id": pa.array(ids[keep], pa.int64()),
                     "neighbor_id": pa.array(nid[keep], pa.int64()),
                     "sim": pa.array(sim[keep], pa.float64())})


def _tile_topk_impl(a, b, same: bool, k: int) -> pa.Table:
    """Row-side local top-k of one (rows=a, cols=b) tile.  Sims are
    ROUNDED to 4 decimals BEFORE ranking so every tile (and the DuckDB
    oracle) ranks by the identical total order (rounded sim desc,
    neighbor_id asc) — per-tile top-k then merges to the exact global
    top-k."""
    ids_a, mat_a = a
    ids_b, mat_b = b
    empty = pa.table({"id": pa.array([], pa.int64()),
                      "neighbor_id": pa.array([], pa.int64()),
                      "sim": pa.array([], pa.float64())})
    if len(ids_a) == 0 or len(ids_b) == 0:
        return empty
    # fully vectorized tile top-k: because sims are rounded to 4
    # decimals, (sim desc, neighbor_id asc) collapses into ONE exact
    # int64 composite key (sim×10⁴ scaled by |cols|, minus the
    # column's neighbor-id RANK), so argpartition + a k-wide argsort
    # replace the per-row Python lexsort loop
    ob = np.argsort(ids_b, kind="stable")     # cols in nid-asc order
    ids_b, mat_b = ids_b[ob], mat_b[ob]
    sims = np.round(mat_a @ mat_b.T, 4)
    n_cols = sims.shape[1]
    comp = (np.rint(sims * 10000).astype(np.int64) * n_cols
            - np.arange(n_cols, dtype=np.int64)[None, :])
    sentinel = np.iinfo(np.int64).min // 2
    eq = ids_a[:, None] == ids_b[None, :]     # exclude self matches
    comp = np.where(eq, sentinel, comp)
    kk = min(k, n_cols)
    sel = np.argpartition(-comp, kk - 1, axis=1)[:, :kk]
    selcomp = np.take_along_axis(comp, sel, axis=1)
    order = np.argsort(-selcomp, axis=1, kind="stable")
    sel = np.take_along_axis(sel, order, axis=1)
    selcomp = np.take_along_axis(selcomp, order, axis=1)
    valid = (selcomp > sentinel).ravel()
    out_i = np.repeat(ids_a, kk)[valid]
    out_n = ids_b[sel.ravel()][valid]
    out_s = np.take_along_axis(sims, sel, axis=1).ravel()[valid]
    return pa.table({"id": pa.array(out_i, pa.int64()),
                     "neighbor_id": pa.array(out_n, pa.int64()),
                     "sim": pa.array(out_s, pa.float64())})


_tile_topk = _ray.remote(_tile_topk_impl)


def knn_self_join(emb_ds, *, k: int = 3, batch_size: int = 4096,
                  num_partitions: int = 8):
    """Exact cosine KNN self-join: every vector's top-k neighbors.

    Distributed shape: chunk the table, one tile task per ORDERED chunk
    pair (row chunk × col chunk) emitting the row side's local top-k,
    then ONE hash exchange on the row id merges local top-ks into the
    global top-k (the local/global ranking orders coincide, see
    _tile_topk_impl).  O(N²/chunks) flops spread over the cluster with
    bounded per-task memory; only N·k·tiles candidate rows shuffle.
    This is the exact baseline — the IVF/LSH paths are the 10^12-scale
    approximations."""
    import ray.data as rd

    from .exchange import hash_aggregate

    emb_ds = emb_ds.map_batches(lambda t: t, batch_format="pyarrow",
                                batch_size=batch_size)
    refs = emb_ds.to_arrow_refs()
    if not refs:
        return rd.from_arrow(pa.table({
            "id": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "sim": pa.array([], pa.float64())}))
    preps = [_prep_chunk.remote(r) for r in refs]
    tiles = []
    for i in range(len(preps)):
        for j in range(len(preps)):
            tiles.append(_tile_topk.remote(preps[i], preps[j], i == j, k))
    cand = rd.from_arrow_refs(tiles)
    return hash_aggregate(cand, ["id"],
                          lambda t: _topk_per_id(t, k),
                          lambda t: _topk_per_id(t, k),
                          num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# SemDeDup: cluster-scoped semantic dedup (Abbas et al. 2023 shape)
# ---------------------------------------------------------------------------

#: deterministic centroid count — at real scale K grows with the corpus
#: (the paper uses ~1e5 k-means clusters at 1e9 docs) so cluster sizes
#: stay bounded; here the centroids are the first K corpus vectors,
#: which keeps the op fully deterministic and SQL-mirrorable
SEMDEDUP_K = 8
SEMDEDUP_THR = 0.4
#: hard cap on one cluster's rows inside a partition — the per-cluster
#: verify is O(size²) flops, so an oversized cluster means K is too
#: small for the corpus; fail loudly instead of thrashing
SEMDEDUP_CLUSTER_CAP = 200_000


def _semdedup_empty() -> pa.Table:
    return pa.table({"vec_id": pa.array([], pa.int64()),
                     "cluster": pa.array([], pa.int64()),
                     "is_dup": pa.array([], pa.int64())})


def semdedup(emb_ds, cent_ds, *, k: int = SEMDEDUP_K,
             threshold: float = SEMDEDUP_THR,
             num_partitions=None):
    """Cluster-then-dedup over an embedding column: assign every vector
    to its max-cosine centroid (tie → smaller centroid id), then inside
    each cluster mark a vector as duplicate when an EARLIER vector
    (smaller vec_id) of the same cluster has cosine ≥ ``threshold``.
    Returns (vec_id, cluster, is_dup).

    Plan: centroids are a fixed-size pruned read, broadcast once
    (``ray.put``); assignment is one vectorized matmul per batch; the
    dedup is one exchange on the cluster id with a per-cluster
    triangular matmul in the partition — the SemDeDup shape, where K
    bounds cluster sizes and the exchange is the only shuffle.
    Cosines are rounded to 4 dp before compare/argmax on BOTH the
    engine and oracle sides (the ANN float-parity convention)."""
    import ray

    from .exchange import hash_aggregate

    # fixed-size centroid side: driver pull bounded at k rows
    parts = list(cent_ds.iter_batches(batch_size=max(k, 1),
                                      batch_format="pyarrow"))
    cent = pa.concat_tables(parts) if parts else pa.table(
        {"vec_id": pa.array([], pa.int64()),
         "embedding": pa.array([], pa.list_(pa.float32()))})
    cent = cent.filter(pa.compute.is_valid(cent["embedding"]))
    cids = np.asarray(cent["vec_id"].to_pylist(), dtype=np.int64)
    craw = np.array(cent["embedding"].to_pylist(), dtype=np.float64) \
        if len(cids) else np.zeros((0, 1))
    # exclude zero-norm centroids (cosine undefined; the oracle's
    # sum-of-squares predicate mirrors this)
    nz = np.linalg.norm(craw, axis=1) > 0 if len(cids) else \
        np.zeros(0, bool)
    cids, craw = cids[nz], craw[nz]
    order = np.argsort(cids, kind="stable")
    cids = cids[order]
    cmat = _normalize(craw[order]) if len(cids) else craw
    cent_ref = ray.put((cids, cmat))

    def assign(t: pa.Table) -> pa.Table:
        ids, mat = _mat_of(t)
        cds_, cm = ray.get(cent_ref) if isinstance(
            cent_ref, ray.ObjectRef) else cent_ref
        if len(ids) == 0 or len(cds_) == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             "embedding": pa.array(
                                 [], pa.list_(pa.float32()))})
        sims = np.round(mat @ cm.T, 4)
        best = np.argmax(sims, axis=1)     # first max ⇒ smallest cid
        keep = t.filter(pa.compute.is_valid(t["embedding"]))
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "cluster": pa.array(cds_[best], pa.int64()),
                         "embedding": keep["embedding"]})

    def finalize(t: pa.Table) -> pa.Table:
        if "cluster" not in t.column_names or t.num_rows == 0:
            return _semdedup_empty()
        ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
        cl = np.asarray(t["cluster"].to_pylist(), dtype=np.int64)
        mat = _normalize(np.array(t["embedding"].to_pylist(),
                                  dtype=np.float64))
        order = np.lexsort((ids, cl))
        ids, cl, mat = ids[order], cl[order], mat[order]
        dup = np.zeros(len(ids), bool)
        start = 0
        for end in np.append(np.nonzero(np.diff(cl))[0] + 1, len(cl)):
            m = int(end - start)
            if m > SEMDEDUP_CLUSTER_CAP:
                raise ValueError(
                    f"semdedup cluster of {m} rows exceeds cap "
                    f"{SEMDEDUP_CLUSTER_CAP}; increase k")
            if m > 1:
                sub = mat[start:end]
                s = np.round(sub @ sub.T, 4)
                hit = np.tril(s >= threshold, -1)
                dup[start:end] = hit.any(axis=1)
            start = int(end)
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "cluster": pa.array(cl, pa.int64()),
                         "is_dup": pa.array(dup.astype(np.int64),
                                            pa.int64())})

    assigned = emb_ds.map_batches(assign, batch_format="pyarrow")
    return hash_aggregate(assigned, ["cluster"], None, finalize,
                          num_partitions=num_partitions)
