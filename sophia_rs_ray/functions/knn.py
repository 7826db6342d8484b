"""Approximate/exact nearest-neighbor search over an embedding column.

Baseline: brute-force cosine top-k — numpy matmul per batch against a
broadcast query matrix (``ray.put`` once, read once per worker).  The
candidate-pruning scale paths (LSH buckets, the persisted IVF layout)
live in ``functions.ann``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa


def _matrix(col) -> np.ndarray:
    lst = col.to_pylist()
    return np.asarray(lst, dtype=np.float64)


def brute_force_topk(ds, query_vec: np.ndarray, k: int = 10,
                     exclude_id: Optional[int] = None,
                     id_col: str = "vec_id", emb_col: str = "embedding"):
    """Dataset of (vec_id, embedding) → top-k by cosine similarity.
    Per-batch vectorized scoring (numpy matmul) → global
    sort-desc + limit (the distributed top-k)."""
    import ray

    from .broadcast import worker_cached

    q = np.asarray(query_vec, np.float64)
    q = q / max(np.linalg.norm(q), 1e-30)
    q_ref = ray.put(q)

    def score(b: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        # null embeddings are skipped (oracle: WHERE embedding IS NOT
        # NULL) — one bad row must not kill a 100-TB job
        b = b.filter(_pc.is_valid(b[emb_col]))
        if b.num_rows == 0:
            return pa.table({id_col: pa.array([], b[id_col].type),
                             "sim": pa.array([], pa.float64())})
        qv = worker_cached(q_ref, np.asarray)
        m = _matrix(b[emb_col])
        norms = np.linalg.norm(m, axis=1)
        sims = (m @ qv) / np.maximum(norms, 1e-30)
        t = pa.table({id_col: b[id_col],
                      "sim": pa.array(np.round(sims, 4), pa.float64())})
        if exclude_id is not None:
            import pyarrow.compute as pc
            t = t.filter(pc.not_equal(t[id_col], pa.scalar(exclude_id)))
        return t

    scored = ds.map_batches(score, batch_format="pyarrow")
    return scored.sort([("sim"), (id_col)], descending=[True, False]).limit(k)
