"""Graph materialization: sorted SPO/POS/OSP Parquet layouts + manifests.

The distributed mirror of sophia's ``FastGraph`` (reference
``inmem/src/graph.rs:164-169``: term index + three BTreeSets ``spo, pos,
osp``) and its 9-way pattern-lookup dispatch
(``inmem/src/graph.rs:207-299``): each BTree order becomes a
hash-partitioned, per-file *sorted* Parquet layout

    out_dir/{order}/shard=K/part-J.parquet     K = h(leading term) % n
    out_dir/{order}/shard=K/_manifest-J.json   J = salt (see below)

and a BTree range scan becomes partition pruning (pick the shard of the
bound leading term) + Parquet predicate pushdown on the sorted columns.

**Skew / salting (SURVEY §7.4).**  RDF predicates are few; the POS
layout's leading term is therefore massively skewed (``rdf:type`` alone
covers ~¼ of a typical web graph).  Skewed orders split each shard into
``salt`` sub-partitions by the hash of the SECOND term — same pruning
(a bound leading term still selects one shard directory), but hub keys
fan out over ``salt`` parallel writers instead of one straggler task.
Defaults: ``pos`` salt 8, ``spo``/``osp`` salt 1 (IRI subjects/objects
are high-cardinality).

**Lineage / checkpoint-resume (north rule).**  Every (shard, salt)
partition writes its manifest atomically AFTER its data file (an empty
partition writes a ``rows: 0`` manifest and no data file); a re-run
loads manifests, verifies data files exist, and recomputes only missing
partitions (tested by deleting one shard in tests/test_materialize.py).

**Exchange.**  The shared raw-task exchange of
``functions.exchange.scatter``: ``_split_block`` is its per-block split
(one object per (order, shard, salt) partition) and ``_write_partition``
the one write task per partition over that partition's merge-tree
pieces.  SURVEY §2 "custom operators" option (c), chosen on
measurement: Ray Data's sort-based ``groupby().map_groups`` exchange
costs O(blocks×partitions) tiny objects, serializes against the
upstream stage, and capped the 8→32-CPU speedup of the flagship at
~1.3-2×; the direct hash exchange needs no sort and scales with the
task pool.  The map side can run a per-block ``transform`` before it
hashes (the flagship passes its extract + combiner there, so a page
block becomes NT rows inside the same task that splits it).
Partitioning assumption, relied on for dedup and resume: a triple's
partition is a pure function of its content (``_hash_arr``, kept apart
from the exchange's ``_key_hash`` because shard routing is an on-disk
format) — no coordination, deterministic across runs.

**Scale notes.**  ``num_shards`` must grow with data (shard ≈ ≤1 GiB);
the salt bound is per-order and static.  The digest is a *commutative*
per-row hash sum — computed streaming in the writer, and two layouts of
the same graph compare equal shard-free (dataset digest = Σ partition
digests mod 2^64).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from typing import Callable, Dict, Optional, Sequence, Tuple

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.exchange import _remote, _undict, scatter

ORDERS: Dict[str, Tuple[str, str, str]] = {
    "spo": ("s", "p", "o"),
    "pos": ("p", "o", "s"),
    "osp": ("o", "s", "p"),
}

#: quad layouts (reference ``inmem/src/dataset.rs:215-222`` GSPO family):
#: graph-name-led orders so GRAPH-bound patterns prune to one shard
QUAD_ORDERS: Dict[str, Tuple[str, ...]] = {
    "gspo": ("g", "s", "p", "o"),
    "gpos": ("g", "p", "o", "s"),
    "gosp": ("g", "o", "s", "p"),
}


def _order_cols(order: str) -> Tuple[str, ...]:
    try:
        return ORDERS[order]
    except KeyError:
        return QUAD_ORDERS[order]

#: default sub-partition (salt) factor per order.  The salt key is the
#: hash of the two NON-leading terms, so ANY hub leading term (rdf:type
#: predicates in POS, schema:Person-style objects in OSP, celebrity
#: subjects in SPO) fans out over `salt` balanced writers while a bound
#: leading term still prunes to one shard directory (SURVEY §7.4).
#: POS gets the largest factor (predicates are the most skewed term).
DEFAULT_SALTS: Dict[str, int] = {"spo": 1, "pos": 4, "osp": 1,
                                 # graph names are few and hot: spread
                                 # each graph over salted sub-files
                                 "gspo": 4, "gpos": 4, "gosp": 4}

_MASK64 = (1 << 64) - 1
_FIB = 0x9E3779B97F4A7C15  # Fibonacci multiplier spreads crc32's 32 bits


def _hash_arr(arr):
    """Vectorized uint64 content hash of a string array/chunked array —
    polars' xxhash-family row hash (measured deterministic across
    processes for a fixed polars version, which is all shard routing
    and resume need).  Falls back to the original per-row crc32 loop
    when polars is unavailable; both paths are self-consistent (scalar
    `shard_of` routes through the same function)."""
    import numpy as np

    if isinstance(arr, pa.Array):
        arr = pa.chunked_array([arr])
    try:
        import polars as pl

        return pl.Series(pl.from_arrow(pc.cast(arr, pa.string()))) \
            .hash(seed=0).to_numpy().astype(np.uint64)
    except ImportError:
        crc = zlib.crc32
        return np.fromiter(
            (((crc(t.encode()) * _FIB) & _MASK64)
             for t in arr.to_pylist()),
            dtype=np.uint64, count=len(arr))


def shard_of(term_nt: str, num_shards: int) -> int:
    """Deterministic cross-process shard id of a canonical-NT term (the
    content-hash analogue of BasicTermIndex ids, SURVEY §1.5)."""
    h = int(_hash_arr(pa.array([term_nt], pa.string()))[0])
    return (h >> 40) % num_shards


def _row_digests(tbl: pa.Table, cols: Sequence[str]) -> int:
    """Commutative 64-bit content digest (lineage/equality checks, not
    crypto): sum over rows of hash(row)."""
    import numpy as np

    if tbl.num_rows == 0:
        return 0
    parts = [pc.cast(tbl[c], pa.string()) for c in cols]
    joined = parts[0] if len(parts) == 1 else \
        pc.binary_join_element_wise(*parts, pa.scalar("\x1f"))
    return int(np.sum(_hash_arr(joined), dtype=np.uint64) & np.uint64(_MASK64))


def load_manifest(out_dir: str, order: str) -> Dict[Tuple[int, int], dict]:
    """(shard, salt) → manifest row.  One ``_manifest-J.json`` per
    partition, written atomically AFTER the data file (no cross-writer
    appends — each partition's lineage is self-contained).  A crashed
    writer leaves either nothing or a data file without a manifest;
    both read as "not done".  A partition the exchange gave no rows
    has a ``rows: 0`` manifest and no data file, and reads as done."""
    base = os.path.join(out_dir, order)
    done: Dict[Tuple[int, int], dict] = {}
    if not os.path.isdir(base):
        return done
    for d in os.listdir(base):
        if not d.startswith("shard="):
            continue
        sd = os.path.join(base, d)
        for f in os.listdir(sd):
            if not (f.startswith("_manifest-") and f.endswith(".json")):
                continue
            salt = int(f[len("_manifest-"):-len(".json")])
            with open(os.path.join(sd, f)) as fh:
                row = json.load(fh)
            if row["rows"] == 0 or \
                    os.path.exists(os.path.join(sd, f"part-{salt}.parquet")):
                done[(row["shard"], row["salt"])] = row
    return done


# ---------------------------------------------------------------------------
# partition writer
# ---------------------------------------------------------------------------

def _write_one_partition(tbl: pa.Table, out_dir: str, order: str,
                         shard: int, salt: int, distinct: bool) -> dict:
    """Dedup/sort/write one (shard, salt) partition + manifest; all
    kernels are Arrow (group_by/take/sort_by/parquet)."""
    cols = _order_cols(order)
    t0 = time.perf_counter()
    keep = [c for c in ("g", "s", "p", "o") if c in cols]
    # defragment before sorting: exchanged partitions arrive as many
    # small concat chunks and sort_by's chunked take degrades badly
    tbl = tbl.select(keep).combine_chunks()
    tc = time.perf_counter()
    c0 = time.process_time()
    tbl = tbl.sort_by([(c, "ascending") for c in cols])
    cso = time.process_time() - c0
    tso = time.perf_counter()
    if distinct and tbl.num_rows > 1:
        # dedup rides the sort we already pay for: duplicates are
        # adjacent, so a vectorized neighbour compare replaces the
        # (memory-bandwidth-hungry) group_by hash table — measured
        # ~2× on the write kernel at full 32-way concurrency
        n = tbl.num_rows
        dup = None
        for c in keep:
            col = tbl[c].combine_chunks() if tbl[c].num_chunks != 1 \
                else tbl[c].chunk(0)
            a, b = col.slice(1, n - 1), col.slice(0, n - 1)
            eq = pc.fill_null(pc.equal(a, b), False)
            # null-safe: two nulls (default graph g) ARE equal
            eq = pc.or_(eq, pc.and_(pc.is_null(a), pc.is_null(b)))
            dup = eq if dup is None else pc.and_(dup, eq)
        mask = pa.concat_arrays(
            [pa.array([True]), pc.invert(dup)])
        tbl = tbl.filter(mask)
    ts = time.perf_counter()
    d = os.path.join(out_dir, order, f"shard={shard}")
    os.makedirs(d, exist_ok=True)
    if tbl.num_rows:  # an empty partition has no data file
        tmp = os.path.join(d, f"part-{salt}.parquet.tmp")
        pq.write_table(tbl, tmp)
        os.replace(tmp, os.path.join(d, f"part-{salt}.parquet"))
    tw = time.perf_counter()
    row = {
        "t_sort_ms": round(1000 * (ts - t0), 1),
        "t_combine_ms": round(1000 * (tc - t0), 1),
        "t_sortonly_ms": round(1000 * (tso - tc), 1),
        "t_sortcpu_ms": round(1000 * cso, 1),
        "t_write_ms": round(1000 * (tw - ts), 1),
        "order": order, "shard": shard, "salt": salt, "rows": tbl.num_rows,
        "min_key": tbl[cols[0]][0].as_py() if tbl.num_rows else None,
        "max_key": tbl[cols[0]][-1].as_py() if tbl.num_rows else None,
        "digest": _row_digests(tbl, keep),
        "wall_ms": round(1000 * (time.perf_counter() - t0), 1),
    }
    mtmp = os.path.join(d, f"_manifest-{salt}.json.tmp")
    with open(mtmp, "w") as f:
        f.write(json.dumps(row) + "\n")
    os.replace(mtmp, os.path.join(d, f"_manifest-{salt}.json"))
    return row


def _report(orders: Sequence[str], written: Dict[str, Dict[Tuple[int, int], int]],
            done: Dict[str, Dict[Tuple[int, int], dict]]) -> Dict[str, dict]:
    return {
        o: {"written": sorted(written[o]),
            "skipped": sorted(done[o]),
            "rows": sum(written[o].values()) + sum(r["rows"] for r in done[o].values())}
        for o in orders
    }


# ---------------------------------------------------------------------------
# raw-task hash exchange
# ---------------------------------------------------------------------------

def _partition_layout(orders: Sequence[str], num_shards: int,
                      salts: Dict[str, int]):
    """Flat partition index ↔ (order_idx, shard, salt)."""
    layout = []
    for oi, o in enumerate(orders):
        for shard in range(num_shards):
            for salt in range(salts.get(o, 1)):
                layout.append((oi, shard, salt))
    return layout


def _split_block(tbl: pa.Table, orders: Tuple[str, ...], num_shards: int,
                 salts: Dict[str, int], done_keys: frozenset,
                 transform: Optional[Callable[[pa.Table], pa.Table]] = None):
    """Map side: one input block → ``transform(block)`` (if given) →
    its term columns, dictionary ones decoded (``exchange._undict``) →
    one (possibly None) sub-table per partition not in ``done_keys``,
    in layout order, returned as separate objects so each write task
    fetches ONLY its partition.  One stable
    argsort + zero-copy slices per order — NOT a filter per partition
    (that is O(partitions × rows))."""
    import numpy as np

    if transform is not None:
        from ray.data.block import BlockAccessor

        tbl = transform(BlockAccessor.for_block(tbl).to_arrow())
    need = [c for c in ("g", "s", "p", "o")
            if any(c in _order_cols(o) for o in orders)]
    tbl = _undict(tbl.select(need))
    out = []
    for oi, order in enumerate(orders):
        cols = _order_cols(order)
        lead, rest = cols[0], cols[1:]
        n_salt = salts.get(order, 1)
        sh = ((_hash_arr(tbl[lead]) >> np.uint64(40))
              % np.uint64(num_shards)).astype(np.int64)
        if n_salt > 1:
            # salt on ALL remaining terms: splits any hub lead evenly
            joined = pc.binary_join_element_wise(
                *[pc.cast(tbl[c], pa.string()) for c in rest],
                pa.scalar("\x1f"))
            sa = ((_hash_arr(joined) >> np.uint64(24))
                  % np.uint64(n_salt)).astype(np.int64)
            part = sh * n_salt + sa
        else:
            part = sh
        order_idx = np.argsort(part, kind="stable")
        sorted_tbl = tbl.take(pa.array(order_idx))
        bounds = np.searchsorted(part[order_idx],
                                 np.arange(num_shards * n_salt + 1))
        for shard in range(num_shards):
            for salt in range(n_salt):
                j = shard * n_salt + salt
                if (oi, shard, salt) in done_keys:
                    continue
                lo, hi = int(bounds[j]), int(bounds[j + 1])
                out.append(sorted_tbl.slice(lo, hi - lo) if hi > lo
                           else None)
    return tuple(out)


def _write_partition(out_dir: str, order: str, shard: int, salt: int,
                     distinct: bool, *parts):
    """Reduce side of the exchange: one (shard, salt) partition's
    pieces → concat → :func:`_write_one_partition`."""
    t0 = time.perf_counter()
    parts = [p for p in parts if p is not None and p.num_rows]
    if parts:
        tbl = pa.concat_tables(parts, promote_options="default")
    else:
        # an empty partition still commits its (rows 0) manifest, so a
        # resume does not run the whole input exchange again for it
        tbl = pa.table({c: pa.array([], pa.large_string())
                        for c in _order_cols(order)})
    t1 = time.perf_counter()
    row = _write_one_partition(tbl, out_dir, order, shard, salt, distinct)
    row["t_concat_ms"] = round(1000 * (t1 - t0), 1)
    return row


def materialize_graph(nt_ds, out_dir: str, *,
                      orders: Sequence[str] = ("spo", "pos", "osp"),
                      num_shards: int = 16,
                      salts: Optional[Dict[str, int]] = None,
                      resume: bool = True,
                      distinct: bool = False,
                      fanin: int = 256,
                      transform: Optional[Callable[[pa.Table], pa.Table]]
                      = None) -> Dict[str, dict]:
    """(s, p, o) NT rows → the sorted shard layouts. Returns a report
    ``{order: {"written": [(shard, salt), …], "skipped": […], "rows": N}}``.

    ``distinct=True`` folds SetGraph dedup (``inmem/src/graph.rs:111-143``)
    into the partition writer: identical triples always hash to the same
    partition (the key is a pure content hash), so within-partition
    dedup IS global dedup.

    ``transform``, when given, maps each block of ``nt_ds`` to the
    (s, p, o[, g]) rows the exchange splits, inside the exchange's map
    task — so ``nt_ds`` may hold any rows ``transform`` understands
    (the flagship hands pages and ``pipelines.kg.extract_prededup_block``).
    It is the counterpart of ``functions.exchange.hash_aggregate``'s
    ``combine``: runs once per input block, must be picklable (a
    module-level function or a ``functools.partial`` of one), and on
    ``distinct=True`` may drop duplicates within its block since the
    writer's dedup stays the exact one."""
    import ray

    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    orders = list(orders)
    salts = dict(DEFAULT_SALTS if salts is None else salts)
    done = {o: (load_manifest(out_dir, o) if resume else {}) for o in orders}
    for o in orders:
        os.makedirs(os.path.join(out_dir, o), exist_ok=True)
    done_keys = frozenset((oi, shard, salt) for oi, o in enumerate(orders)
                          for (shard, salt) in done[o])
    todo = [key for key in _partition_layout(orders, num_shards, salts)
            if key not in done_keys]
    # nothing left to write: the input is never read
    pieces, _ = scatter(
        nt_ds, _split_block,
        (tuple(orders), num_shards, salts, done_keys, transform),
        len(todo), fanin=fanin) if todo else ([], 0)
    write = _remote(_write_partition)
    rows = ray.get([write.remote(out_dir, orders[oi], shard, salt,
                                 distinct, *refs)
                    for (oi, shard, salt), refs in zip(todo, pieces)])
    written: Dict[str, Dict[Tuple[int, int], int]] = {o: {} for o in orders}
    for (oi, shard, salt), row in zip(todo, rows):
        written[orders[oi]][(shard, salt)] = row["rows"]
    return _report(orders, written, done)


# ---------------------------------------------------------------------------
# pattern scan (the 9-way dispatch of FastGraph::triples_matching)
# ---------------------------------------------------------------------------

def _pick_order(s: Optional[str], p: Optional[str], o: Optional[str]) -> str:
    """Choose the layout whose prefix covers the bound positions —
    mirrors ``inmem/src/graph.rs:234-298``."""
    if s is not None:
        return "spo"
    if p is not None:
        return "pos"
    if o is not None:
        return "osp"
    return "spo"


def triples_matching(out_dir: str, *, s: Optional[str] = None,
                     p: Optional[str] = None, o: Optional[str] = None,
                     num_shards: int = 16):
    """Distributed pattern match over the materialized layouts.

    Bound leading term → read ONE shard directory (partition pruning;
    salted sub-files are all under it); remaining bound terms → Arrow
    dataset filter (row-group predicate pushdown on the sorted column).
    Returns a ray Dataset of (s, p, o).
    """
    import ray.data as rd

    order = _pick_order(s, p, o)
    lead_val = {"spo": s, "pos": p, "osp": o}[order]
    base = os.path.join(out_dir, order)
    if lead_val is not None:
        dirs = [os.path.join(base, f"shard={shard_of(lead_val, num_shards)}")]
    else:
        dirs = [os.path.join(base, d) for d in sorted(os.listdir(base))
                if d.startswith("shard=")]
    paths = []
    for pth in dirs:
        if os.path.isdir(pth):
            paths.extend(os.path.join(pth, f) for f in sorted(os.listdir(pth))
                         if f.startswith("part-") and f.endswith(".parquet"))
    if not paths:
        return rd.from_arrow(pa.table(
            {"s": pa.array([], pa.large_string()),
             "p": pa.array([], pa.large_string()),
             "o": pa.array([], pa.large_string())}))

    import pyarrow.dataset as pds
    expr = None
    for col, val in (("s", s), ("p", p), ("o", o)):
        if val is not None:
            e = pds.field(col) == val
            expr = e if expr is None else expr & e
    return rd.read_parquet(paths, columns=["s", "p", "o"], filter=expr)


def quads_matching(out_dir: str, *, s: Optional[str] = None,
                   p: Optional[str] = None, o: Optional[str] = None,
                   g: Optional[str] = None, num_shards: int = 16):
    """Distributed quad-pattern match over the GSPO-family layouts
    (``inmem/src/dataset.rs:215-222``): a bound graph name prunes to
    ONE shard directory of the graph-led order; remaining bound terms
    push down as Arrow dataset filters."""
    import ray.data as rd

    base_orders = [d for d in (os.listdir(out_dir)
                               if os.path.isdir(out_dir) else [])
                   if d in QUAD_ORDERS]
    if not base_orders:
        raise FileNotFoundError(f"no quad layouts under {out_dir}")
    # pick the layout whose prefix after g covers the bound positions
    order = "gspo"
    if s is None and p is not None and "gpos" in base_orders:
        order = "gpos"
    elif s is None and p is None and o is not None \
            and "gosp" in base_orders:
        order = "gosp"
    if order not in base_orders:
        order = base_orders[0]
    base = os.path.join(out_dir, order)
    if g is not None:
        dirs = [os.path.join(base, f"shard={shard_of(g, num_shards)}")]
    else:
        dirs = [os.path.join(base, d) for d in sorted(os.listdir(base))
                if d.startswith("shard=")]
    paths = []
    for pth in dirs:
        if os.path.isdir(pth):
            paths.extend(os.path.join(pth, f) for f in sorted(os.listdir(pth))
                         if f.startswith("part-") and f.endswith(".parquet"))
    if not paths:
        return rd.from_arrow(pa.table(
            {c: pa.array([], pa.large_string())
             for c in ("g", "s", "p", "o")}))
    import pyarrow.dataset as pds
    expr = None
    for col, val in (("g", g), ("s", s), ("p", p), ("o", o)):
        if val is not None:
            e = pds.field(col) == val
            expr = e if expr is None else expr & e
    return rd.read_parquet(paths, columns=["g", "s", "p", "o"],
                           filter=expr)


def dataset_digest(out_dir: str, order: str = "spo") -> int:
    """Order-insensitive digest of the materialized graph = sum of
    partition digests (isomorphism-style cheap equality between two
    layouts)."""
    return sum(r["digest"] for r in load_manifest(out_dir, order).values()) & _MASK64


class MaterializedGraph:
    """SPARQL-queryable handle over a ``materialize_graph`` directory —
    the distributed `FastGraph` used as a query backend
    (`sophia/examples/sparql.rs:13-52` loads into indexed storage; here
    the indexes are the sorted shard layouts and every constant-bound
    triple pattern prunes to one shard + pushed-down row-group filter).

    Duck-types the Dataset surface the SPARQL compiler touches:
    ``sparql.algebra._scan`` calls ``.scan(s=…, p=…, o=…)`` when
    present; everything else falls back to the full SPO scan.
    """

    def __init__(self, out_dir: str, num_shards: int = 16):
        self.out_dir = out_dir
        self.num_shards = num_shards

    def scan(self, s: Optional[str] = None, p: Optional[str] = None,
             o: Optional[str] = None):
        return triples_matching(self.out_dir, s=s, p=p, o=o,
                                num_shards=self.num_shards)

    def full(self):
        return self.scan()

    def map_batches(self, *args, **kwargs):
        return self.full().map_batches(*args, **kwargs)

    def schema(self):
        return self.full().schema()
