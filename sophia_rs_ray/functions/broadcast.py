"""Small sides sent to the workers: one driver-side gate, one
per-worker cache.

:func:`gated_gather` decides whether a side is small enough to bring
to the driver (and ``ray.put`` once): it counts rows where the blocks
live and gathers only at or under the limit, so no input-sized table
reaches the driver unchecked.  :func:`worker_cached` turns the
broadcast ObjectRef into the object a task actually uses (an Arrow
key array, a polars frame, a compiled detector) once per worker
process instead of once per batch — the task-pool analogue of an
actor's ``__init__``.
"""

from __future__ import annotations

from typing import Callable, Optional

import pyarrow as pa

#: row limit of every broadcast gate: above it an operator runs its
#: distributed fallback on the same blocks (0 forces every fallback)
BROADCAST_ROWS = 2_000_000

#: entries kept per worker process; each pins its broadcast object in
#: the node's object store while cached
_CACHE_SIZE = 8
_CACHE: dict = {}


def gated_gather(src, limit: int,
                 count: Callable[[pa.Table], int] = len
                 ) -> Optional[pa.Table]:
    """``src`` (a Dataset, a Parquet source or a list of partition
    refs) as one driver table when ``count`` summed over its blocks is
    ≤ ``limit``, else None.  The blocks run once; a caller with a
    fallback passes a materialized Dataset or refs so the fallback
    reuses them."""
    from .exchange import _iter_block_refs, gather, map_partitions

    refs = list(_iter_block_refs(src))
    if sum(map_partitions(refs, count)) > limit:
        return None
    return gather(refs) if refs else pa.table({})


def worker_cached(ref, build: Callable, key: tuple = ()):
    """``build(ray.get(ref))``, built once per worker process for each
    (``ref``, ``key``); ``key`` tells apart builds of one ref that
    capture different arguments."""
    import ray

    k = (ref.binary(), key)
    hit = _CACHE.get(k)
    if hit is None:
        if len(_CACHE) >= _CACHE_SIZE:
            del _CACHE[next(iter(_CACHE))]  # oldest first
        hit = _CACHE[k] = build(ray.get(ref))
    return hit
