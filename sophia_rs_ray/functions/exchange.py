"""The raw-task exchange: one map side, many reduce sides.

Measured motivation (BASELINE.md, stages/materialize.py): Ray Data's
sort-based ``groupby().aggregate()`` exchange costs seconds of fixed
overhead per stage at bench scale (sort + O(blocks×partitions) tiny
objects) and serializes against upstream stages; the hash-shuffle
strategy is slower still for small partitions (actor pool spin-up).
SURVEY §2 "custom operators" option (c) replaces it with plain tasks.

:func:`scatter` is the one map side.  It streams the input's block
refs, runs a caller-supplied ``split`` task per block that returns one
object per partition, and folds each partition's pieces through a
bounded fan-in merge tree (:class:`_MergeTree` over
:func:`_merge_pieces`).  Each caller keeps only its split kernel and
launches its own reduce per partition:

    hash_aggregate_refs   _map_side    → _reduce_side (combine/finalize)
    exchange_join_refs    _map_side    → _join_reduce (per side)
    materialize_graph     _split_block → _write_partition (stages/)
    asof_join             _map_side    → _asof_reduce (functions/temporal)
    materialize_ivf       _split_ivf_impl → _write_ivf (functions/ann)

Every grouping is a :func:`hash_aggregate`: :func:`grouped` for
per-key aggregates and DISTINCT, :func:`per_group` for one ``fn`` call
per group, or a caller's own combine/finalize pair.

Every piece is a plain Arrow table.  A dictionary-encoded input column
(Parquet dictionary pages read back as an Arrow dictionary) is decoded
once, by :func:`_undict` in the split kernel its block enters
(``_map_side``, ``_split_block``), so the hash, the merge tree and the
reduces never see one.  Terms are interned where that pays: in the
written layouts' Parquet dictionary pages (SURVEY §1.5).  The shuffle's
cost is its object count, not its payload bytes (BASELINE.md, the 128-
vs 256-block probe).

:func:`parquet_blocks` is the one raw-task Parquet source: a file or a
directory read by plain tasks into block refs, split as Ray Data's
``read_parquet`` splits it, and streamed into :func:`scatter` (or
:func:`map_blocks`) as the reads are launched.  A plan on it starts no
Ray Data execution; one that returns a Dataset wraps its result refs
with ``ray.data.from_arrow_refs`` at the end.  Measured motivation (a
4-vCPU host, Ray ``num_cpus=2``): one ``read_parquet`` +
``map_batches`` execution of the 5,000-document bench table costs
105–135 ms of fixed planning and start-up; a raw read task of the same
file costs about 10 ms.

The aggregate shape, for example:

    block → combine(block)                (per-block partial aggregate)
          → hash-split by key (argsort)   (one object per partition)
    partition → concat → finalize(...)    (final aggregate per group)

Partitioning assumption (documented per SURVEY §2.custom-operators):
a row's partition is a pure function of its key columns' content
(:func:`_key_hash`) — deterministic across runs and processes, no
coordination.
Skewed keys are fine for algebraic aggregates because combine() has
already collapsed each block to ≤1 row per distinct key, so a hub key
contributes at most ``blocks`` rows to its partition.
"""

from __future__ import annotations

import collections
import os
import zlib
from typing import Callable, List, Optional, Sequence

import pyarrow as pa
import pyarrow.compute as pc

_MASK64 = (1 << 64) - 1
_FIB = 0x9E3779B97F4A7C15


def auto_partitions(ds, *, bytes_per_partition: int = 32 << 20,
                    lo: int = 2, hi: int = 1024,
                    default: int = 8) -> int:
    """Derive an exchange partition count from the upstream INPUT size
    (VERDICT r3 #5) instead of a hard-coded literal: one partition per
    ~32 MB of source bytes, clamped to [lo, hi].

    Lazy Datasets expose no block count before execution, so the
    estimate comes from ``input_files()`` on-disk sizes (a
    :class:`ParquetBlocks` source has them too) — conservative
    for aggregate exchanges because the per-block combiner shrinks
    partials well below input size.  Falls back to ``default`` when the
    input is not file-backed (from_arrow/from_items pipelines)."""
    total = 0
    try:
        for f in ds.input_files():
            if os.path.exists(f):
                total += os.path.getsize(f)
    except Exception:
        total = 0
    if total <= 0:
        return default
    est = -(-total // bytes_per_partition)  # ceil
    return int(max(lo, min(hi, est)))


def _key_hash(tbl: pa.Table, key_cols: Sequence[str]):
    """Vectorized content hash of the key columns → uint64 numpy array.

    Fast path: polars ``hash_rows(seed=0)`` (xxhash-family, measured
    deterministic across processes for a fixed polars version — fine
    for partitioning, which only needs run-internal determinism plus
    resume-safety on an unchanged environment).  Fallback: the original
    per-row crc32 loop."""
    import numpy as np

    sel = tbl.select(list(key_cols))
    try:
        import polars as pl

        df = pl.from_arrow(sel)
        return df.hash_rows(seed=0).to_numpy().astype(np.uint64)
    except Exception:
        crc = zlib.crc32
        acc = np.zeros(tbl.num_rows, dtype=np.uint64)
        for c in key_cols:
            col = [(crc(x.encode()) if isinstance(x, str)
                    else crc(str(x).encode()))
                   for x in tbl[c].to_pylist()]
            acc = (acc * np.uint64(31) +
                   np.asarray(col, dtype=np.uint64)) & np.uint64(_MASK64)
        return acc


def _split_by_key(tbl: pa.Table, key_cols: Sequence[str],
                  num_partitions: int):
    """One stable argsort + zero-copy slices (not a filter per
    partition, which is O(partitions × rows))."""
    import numpy as np

    n = tbl.num_rows
    if n == 0:
        # empty WITH schema — keeps every partition schema-carrying so
        # the reduce side never concats from nothing
        return tuple([tbl] * num_partitions)
    if not key_cols:
        acc = np.zeros(n, dtype=np.uint64)  # single implicit group
    else:
        acc = _key_hash(tbl, key_cols)
    part = (((acc * np.uint64(_FIB)) & np.uint64(_MASK64))
            >> np.uint64(40)) % np.uint64(num_partitions)
    part = part.astype(np.int64)
    order = np.argsort(part, kind="stable")
    sorted_tbl = tbl.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(num_partitions + 1))
    out = []
    for j in range(num_partitions):
        lo, hi = int(bounds[j]), int(bounds[j + 1])
        out.append(sorted_tbl.slice(lo, hi - lo))
    return tuple(out)


def _map_side(block, key_cols, num_partitions, combine):
    if block.num_rows == 0 and \
            not all(k in block.column_names for k in key_cols):
        # schema-less empty (e.g. an empty exchange-join partition that
        # map_batches passed through without calling the fn): it
        # contributes nothing and its schema is unusable — skip it
        return (None,) * max(num_partitions, 1)
    block = _undict(block)
    t = combine(block) if combine is not None else block
    return _split_by_key(t, key_cols, num_partitions)


def _undict(t: pa.Table) -> pa.Table:
    """Decode every dictionary-encoded column (a Parquet column written
    from an Arrow dictionary reads back as one) to its plain value type,
    string-likes widened to large_string.  The exchange's split kernels
    run it once per block as the block enters, so every piece, merge and
    reduce sees plain columns only."""
    if not any(pa.types.is_dictionary(f.type) for f in t.schema):
        return t
    cols = {}
    for name in t.column_names:
        col = t[name]
        if pa.types.is_dictionary(col.type):
            vt = col.type.value_type
            if pa.types.is_string(vt) or pa.types.is_large_string(vt):
                vt = pa.large_string()
            col = pc.cast(col, vt)
        cols[name] = col
    return pa.table(cols)


def _merge_pieces(*parts):
    """Fan-in node of the :func:`scatter` merge tree: concat ≤ fanin
    piece objects into one so reduce-task argument counts and the
    driver's live-ref set stay bounded at ``fanin`` per level,
    independent of input block count — at 100-TB scale (10⁵ blocks ×
    10³ partitions) a direct exchange would hand every reduce task 10⁵
    tiny object args.  NOTE: this node only concats — it never
    re-applies a split's per-block work (e.g. dedup's ``n_dups = 1``
    seed), which is not idempotent over its own output."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    nonempty = [p for p in parts if p.num_rows > 0]
    if not nonempty:
        # keep the narrowest empty schema (see _reduce_side rationale)
        return min(parts, key=lambda p: p.num_columns)
    return pa.concat_tables(nonempty, promote_options="default")


class _MergeTree:
    """Per-partition fan-in tree over piece ObjectRefs.

    ``levels[j][d]`` holds up-to-``fanin`` refs at depth ``d`` for
    partition ``j``; a full level collapses into one ``merge_fn`` call
    and its refs are dropped, so the driver's live-ref set is
    O(partitions · fanin · depth) and every downstream task's argument
    list is bounded at ``fanin · depth`` refs, independent of input
    block count.  Depth grows log_fanin(blocks) ≈ 2-3 even at 100 TB."""

    def __init__(self, num_partitions: int, fanin: int, merge_fn):
        self.fanin = fanin
        self.merge_fn = merge_fn
        self.levels: List[List[List]] = [[[]] for _ in range(num_partitions)]

    def push(self, j: int, ref, depth: int = 0) -> None:
        lv = self.levels[j]
        while len(lv) <= depth:
            lv.append([])
        lv[depth].append(ref)
        if len(lv[depth]) >= self.fanin:
            merged = self.merge_fn(*lv[depth])
            lv[depth] = []
            self.push(j, merged, depth + 1)

    def remaining(self, j: int) -> list:
        # deepest level first: it holds the oldest pieces, so the refs
        # come back in input order
        return [r for lv in reversed(self.levels[j]) for r in lv]


def _iter_block_refs(src):
    """Yield the input's block ObjectRefs: a list of refs as given, a
    :class:`ParquetBlocks` source's as its reads launch, a Dataset's
    as they materialize (streaming — the driver never pins the full
    block list; each ref is dropped once its split task holds it)."""
    if isinstance(src, (list, tuple, ParquetBlocks)):
        yield from src
        return
    for bundle in src.iter_internal_ref_bundles():
        yield from bundle.block_refs


def _first(t):
    return t[0]


_REMOTES: dict = {}


def _remote(fn):
    """The one ``ray.remote`` wrap of module-level ``fn`` per process.
    A fresh wrap is a new task type that Ray exports again on every
    call; callers look ``fn`` up at call time, so a patched kernel gets
    its own wrap."""
    r = _REMOTES.get(fn)
    if r is None:
        import ray

        r = _REMOTES[fn] = ray.remote(fn)
    return r


def _read_parquet(path: str, columns, filter, k: int):
    """A :class:`ParquetBlocks` read task: one file → ``k`` near-equal
    row slices (the table itself for ``k`` = 1).  Ray's Arrow
    serializer sends a slice's own rows only, so slicing costs no
    copy here and no extra bytes in the object store."""
    import pyarrow.parquet as pq

    t = pq.read_table(path, columns=columns, filters=filter)
    if k == 1:
        return t
    n = t.num_rows
    cuts = [i * n // k for i in range(k + 1)]
    return tuple(t.slice(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:]))


def _parquet_files(path: str) -> List[str]:
    """``path`` itself, or the files under the directory ``path`` in
    name order, skipping names that start with '.' or '_' (as Ray Data
    and Arrow datasets do)."""
    if not os.path.isdir(path):
        return [path]
    out = []
    for d, dirs, files in os.walk(path):
        dirs[:] = sorted(x for x in dirs if not x.startswith((".", "_")))
        out += [os.path.join(d, f) for f in sorted(files)
                if not f.startswith((".", "_"))]
    if not out:
        raise FileNotFoundError(f"no Parquet files under {path}")
    return out


class ParquetBlocks:
    """A Parquet file or directory as block refs read by raw tasks; see
    :func:`parquet_blocks`.  Iterating it launches the reads again, so
    two consumers of one source each read the files once."""

    def __init__(self, path: str, columns=None, filter=None):
        self.columns = None if columns is None else list(columns)
        self.filter = filter
        self.files = _parquet_files(path)
        self._split = None
        self._cpus = 1    # the cluster's, set with the splits

    def input_files(self) -> List[str]:
        return list(self.files)

    def schema(self) -> pa.Schema:
        import pyarrow.parquet as pq

        sch = pq.read_schema(self.files[0])
        if self.columns is None:
            return sch
        return pa.schema([sch.field(c) for c in self.columns])

    def splits(self) -> List[int]:
        """Blocks per file, sized as Ray Data's read of the same files:
        at least twice the cluster's CPUs in all (so every CPU works on
        the map side), up to ``read_op_min_num_blocks`` for tables
        larger than that many ``target_min_block_size`` blocks, and no
        block over ``target_max_block_size``.  The in-memory size is the
        uncompressed size of the read columns in the footers."""
        if self._split is None:
            import ray
            import pyarrow.parquet as pq
            from ray.data import DataContext

            ctx = DataContext.get_current()
            metas = [pq.ParquetFile(f).metadata for f in self.files]
            mem = sum(_uncompressed_bytes(m, self.columns) for m in metas)
            self._cpus = int(ray.cluster_resources().get("CPU", 1))
            par = max(min(ctx.read_op_min_num_blocks,
                          max(1, mem // ctx.target_min_block_size)),
                      2 * self._cpus)
            tmax = ctx.target_max_block_size
            per_file = max(1, round(mem / len(metas) / tmax)) if tmax else 1
            est = per_file * len(metas)
            if est < par:
                per_file *= -(-par // est)
            self._split = [max(1, min(per_file, m.num_rows)) for m in metas]
        return self._split

    def __iter__(self):
        import ray

        read = _remote(_read_parquet)
        splits = self.splits()
        running: collections.deque = collections.deque()
        for path, k in zip(self.files, splits):
            if len(running) >= 2 * self._cpus:   # two reads per CPU
                ray.wait([running.popleft()], fetch_local=False)
            task = read if k == 1 else read.options(num_returns=k)
            refs = task.remote(path, self.columns, self.filter, k)
            refs = [refs] if k == 1 else list(refs)
            running.append(refs[0])
            yield from refs


def _uncompressed_bytes(meta, columns) -> int:
    """Uncompressed bytes of ``columns`` (all when None) in a Parquet
    footer."""
    total = 0
    for i in range(meta.num_row_groups):
        rg = meta.row_group(i)
        if columns is None:
            total += rg.total_byte_size
            continue
        for j in range(rg.num_columns):
            c = rg.column(j)
            if c.path_in_schema.split(".")[0] in columns:
                total += c.total_uncompressed_size
    return total


def parquet_blocks(path: str, columns: Optional[Sequence[str]] = None,
                   filter=None) -> ParquetBlocks:
    """The one raw-task Parquet source: the file or directory ``path``
    (``columns`` projected, the pyarrow ``filter`` expression pushed
    down) as a stream of block refs, one read task per file returning
    its share of :meth:`ParquetBlocks.splits` as row slices.  Pass it
    where a Dataset would go — :func:`scatter` and every exchange built
    on it, :func:`map_blocks`, :func:`auto_partitions` (the same count
    as for the ``read_parquet`` Dataset of ``path``), ``gated_gather``
    — or wrap ``list(...)`` of it in ``ray.data.from_arrow_refs`` for a
    plan that goes on with Ray Data operations.  A file without rows is
    one typed 0-row block.  Reads launch as the consumer takes blocks,
    at most two per CPU in flight, so a large table streams through
    the object store instead of landing in it all at once."""
    return ParquetBlocks(path, columns, filter)


def scatter(src, split, args: tuple, num_partitions: int, *,
            fanin: int = 256):
    """The exchange map side: ``split(block, *args)`` once per input
    block → a tuple of ``num_partitions`` pieces (None or a table) →
    each partition's pieces folded through a :class:`_MergeTree` of
    :func:`_merge_pieces` nodes.  Returns ``(pieces, n_blocks)``:
    ``pieces[j]`` is the ≤ fanin·depth piece refs the caller hands its
    reduce task for partition ``j``.

    ``src`` is a Dataset or a :func:`parquet_blocks` source (blocks
    stream into their split tasks as they materialize, so the exchange
    overlaps the producing stage instead of waiting behind a
    ``to_arrow_refs()`` barrier) or a list of block refs.  ``split`` must be a module-level function — Ray
    rejects ``functools.partial`` as a remote function — and its extra
    arguments travel in ``args``.  Below ``fanin`` blocks the tree is a
    single level and the plan is the direct exchange, task for task."""
    task = _remote(split)
    if num_partitions > 1:
        task = task.options(num_returns=num_partitions)
    # num_returns=1 tasks return the 1-tuple itself; unwrap remotely
    unwrap = _remote(_first) if num_partitions == 1 else None
    merge = _remote(_merge_pieces)
    tree = _MergeTree(num_partitions, fanin,
                      lambda *refs: merge.remote(*refs))
    n_blocks = 0
    for block_ref in _iter_block_refs(src):
        n_blocks += 1
        refs = task.remote(block_ref, *args)
        if unwrap is not None:
            refs = [unwrap.remote(refs)]
        for j, r in enumerate(refs):
            tree.push(j, r)
    return [tree.remaining(j) for j in range(num_partitions)], n_blocks


def _empty_input(src, fetch: bool) -> Optional[pa.Table]:
    """A 0-row table of the input Dataset's or source's schema; None
    for a list of block refs or an unknown schema."""
    if isinstance(src, (list, tuple)):
        return None
    if isinstance(src, ParquetBlocks):
        return src.schema().empty_table()
    sch = src.schema(fetch_if_missing=fetch)
    return None if sch is None else pa.table(
        {n: pa.array([], t) for n, t in zip(sch.names, sch.types)})


def _reduce_side(finalize, fallback, *parts):
    parts = [p for p in parts if p is not None]
    if not parts:
        # every block was a schema-less empty (Ray passes 0-row blocks
        # through map_batches without calling the fn, so upstream
        # Extend-style stages never added their columns).  A combined
        # empty built driver-side from the input schema keeps the
        # output well-formed instead of failing the partition.
        if fallback is None:
            raise ValueError(
                "hash_aggregate: every input block was a schema-less "
                "empty and no fallback schema was derivable")
        return finalize(fallback) if finalize is not None else fallback
    # Ray can skip projections (select_columns) on zero-row blocks, so
    # empty parts may carry a stale wider schema; concat-promoting them
    # would resurrect phantom columns.  Rows define the schema: drop
    # empty parts when any non-empty part exists, else keep the
    # narrowest empty schema (the projected one).
    nonempty = [p for p in parts if p.num_rows > 0]
    if nonempty:
        t = pa.concat_tables(nonempty, promote_options="default")
    else:
        t = min(parts, key=lambda p: p.num_columns)
    return finalize(t) if finalize is not None else t


def hash_aggregate_refs(src, key_cols: Sequence[str],
                        combine: Optional[Callable[[pa.Table], pa.Table]],
                        finalize: Optional[Callable[[pa.Table], pa.Table]],
                        *, num_partitions: Optional[int] = None,
                        fanin: int = 256) -> list:
    """Exact per-key aggregation via the raw-task hash exchange over a
    Dataset, a :func:`parquet_blocks` source or a list of block
    ObjectRefs → one ObjectRef per hash partition (a ``pa.Table``
    each).  Chaining exchanges on these refs,
    or reading a bounded result with :func:`gather`, skips the fixed
    cost of a Ray Data execution per step.

    ``num_partitions=None`` (default) sizes the exchange from the
    input via :func:`auto_partitions` (its default for refs input).

    ``combine`` runs once per input block (partial aggregate — MUST
    keep the key columns); ``finalize`` runs once per hash partition
    over the concatenated partials (final aggregate).  Either may be
    None (identity).

    The map side is :func:`scatter` with ``fanin``, so the final reduce
    task's argument count and the driver's live-ref set are
    O(fanin · depth) per partition, independent of input block count.
    """
    import ray

    if num_partitions is None:
        num_partitions = auto_partitions(src)
    pieces, n_blocks = scatter(
        src, _map_side, (tuple(key_cols), num_partitions, combine),
        num_partitions, fanin=fanin)
    if not n_blocks:
        # zero-block input: derive the output schema from the fns on an
        # empty batch so downstream operators keep working
        t = _empty_input(src, True)
        t = pa.table({}) if t is None else t
        t = combine(t) if combine is not None else t
        t = finalize(t) if finalize is not None else t
        return [ray.put(t)]
    # all-empty-partition fallback: a driver-side combined empty (most
    # combine fns synthesize their output columns on a 0-row input)
    fallback = None
    try:
        fallback = combine(pa.table({})) if combine is not None else None
    except Exception:
        fallback = None
    if fallback is None:
        try:
            fallback = _empty_input(src, False)
            if fallback is not None and combine is not None:
                fallback = combine(fallback)
        except Exception:
            fallback = None
    reduce = _remote(_reduce_side)
    return [reduce.remote(finalize, fallback, *p) for p in pieces]


def hash_aggregate(ds, key_cols: Sequence[str],
                   combine: Optional[Callable[[pa.Table], pa.Table]],
                   finalize: Optional[Callable[[pa.Table], pa.Table]],
                   *, num_partitions: Optional[int] = None,
                   fanin: int = 256):
    """:func:`hash_aggregate_refs` as a Dataset of the finalize
    outputs."""
    import ray.data as rd

    return rd.from_arrow_refs(hash_aggregate_refs(
        ds, key_cols, combine, finalize, num_partitions=num_partitions,
        fanin=fanin))


def gather(refs) -> pa.Table:
    """Pull a bounded exchange result (partition refs) to the driver as
    one table — the one driver-side read of an exchange output; the
    caller owns the size bound."""
    import ray

    return _reduce_side(None, None, *ray.get(list(refs)))


def _apply(fn, t):
    return fn(t)


def map_blocks(src, fn) -> list:
    """``fn`` over each block of ``src`` (a source, a Dataset or block
    refs) where it lives, one raw task per block → the result refs: the
    map-only plan, and the way to derive one exchange's input from
    another's blocks."""
    task = _remote(_apply)
    return [task.remote(fn, r) for r in _iter_block_refs(src)]


def map_partitions(refs, fn) -> list:
    """:func:`map_blocks` with the (small) results on the driver, e.g.
    row counts for a broadcast gate."""
    import ray

    return ray.get(map_blocks(refs, fn))


def grouped(ds, keys: Sequence[str], aggs: Sequence = (), *,
            finalize: Optional[Callable[[pa.Table], pa.Table]] = None,
            num_partitions: Optional[int] = None):
    """Per-key aggregate via the hash exchange — the one replacement for
    Ray Data's sort-based ``groupby(keys).aggregate(...)``.  ``aggs``
    are pyarrow ``(col, fn)`` pairs whose ``fn`` also folds its own
    partials ("sum", "min", "max"); the output keeps the input names,
    keys + cols, mapped by ``finalize`` per partition when given.
    ``aggs=()`` is an exact DISTINCT on ``keys``.  NULL keys form one
    group, as SQL ``GROUP BY`` does.  An empty block that lost its
    aggregated columns (Ray passes 0-row blocks through ``map_batches``
    without calling the fn) adds nothing: it aggregates to its keys."""
    keys, aggs = list(keys), list(aggs)
    names = keys + [c for c, _ in aggs]

    def agg(t: pa.Table) -> pa.Table:
        if not t.num_rows and not set(names) <= set(t.column_names):
            return t.select(keys)
        return t.group_by(keys).aggregate(aggs).rename_columns(names)

    return hash_aggregate(ds, keys, agg, agg if finalize is None else
                          lambda t: finalize(agg(t)),
                          num_partitions=num_partitions)


def per_group(ds, keys: Sequence[str], fn: Callable[[pa.Table], pa.Table]):
    """``fn`` once per group of ``keys`` → the concatenated outputs —
    the one replacement for Ray Data's ``map_groups``.  The hash
    exchange brings a group's rows to one partition; its finalize lists
    each group's row numbers and hands ``fn`` those rows, so ``fn`` sees
    every row of a group exactly once.  NULL keys form one group.  A
    partition without rows emits its 0-row keys."""
    keys = list(keys)

    def walk(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t.select([k for k in keys if k in t.column_names])
        rows = t.append_column("_row", pa.array(range(t.num_rows),
                                                pa.int64()))
        rows = rows.group_by(keys, use_threads=False).aggregate(
            [("_row", "list")])["_row_list"]
        return pa.concat_tables([fn(t.take(r.values)) for r in rows],
                                promote_options="default")

    return hash_aggregate(ds, keys, None, walk)


def _typed_empty(src, fn) -> Optional[pa.Table]:
    """Typed 0-row table of one join side, built where the join is
    planned: its input schema (as :func:`_empty_input` gives it)
    through the side's per-block kernel; None when unknown."""
    try:
        t = _empty_input(src, False)
        return t if t is None or fn is None else fn(t)
    except Exception:
        return None


def _stand_in_side(empty, keys, other, other_keys) -> pa.Table:
    """The partition table of a join side without parts: every block
    of it was a schema-less empty (Ray passes 0-row blocks through
    map_batches without calling the fn, so ``_map_side`` drops them
    all).  It joins as the planner's typed ``empty``, or, when that is
    unknown or lacks the keys, as a key-only empty typed like the other
    side's keys."""
    if empty is not None and all(k in empty.column_names for k in keys):
        return empty
    return pa.table({
        k: pa.array([], other.schema.field(ok).type if other is not None
                    else pa.string())
        for k, ok in zip(keys, other_keys)})


def _join_reduce(join_type, on, right_on, l_suffix, r_suffix, empties,
                 n_left, *parts):
    left = [p for p in parts[:n_left] if p is not None]
    right = [p for p in parts[n_left:] if p is not None]
    lt = pa.concat_tables(left, promote_options="default") if left else None
    rt = pa.concat_tables(right, promote_options="default") if right else None
    if lt is None:
        lt = _stand_in_side(empties[0], on, rt, right_on)
    if rt is None:
        rt = _stand_in_side(empties[1], right_on, lt, on)
    return lt.join(rt, keys=list(on), right_keys=list(right_on),
                   join_type=join_type,
                   left_suffix=l_suffix, right_suffix=r_suffix,
                   use_threads=False)


def exchange_join_refs(left, right, join_type: str, num_partitions: int,
                       *, on, right_on=None, left_suffix=None,
                       right_suffix=None, combine=(None, None)) -> list:
    """Hash join via the raw-task exchange: both sides split per block
    by key hash (one object per partition), each partition joined
    locally with Arrow's Acero join kernel → one ObjectRef per
    partition.  Pure tasks — no actor pools to deadlock, no empty-block
    schema bug, measured faster than Ray's hash-shuffle join operator
    at bench scale (see BASELINE.md).

    ``left`` and ``right`` are Datasets, sources or block refs.
    ``combine`` holds each side's per-block kernel (None: the blocks as
    they are), run in its split task.  ``join_type``: Acero names —
    "inner", "left outer", "right outer", "full outer", "left semi",
    "left anti", …"""
    import ray

    on = list(on)
    right_on = list(right_on) if right_on else on
    l_fn, r_fn = combine
    l_cols, n_l = scatter(left, _map_side,
                          (tuple(on), num_partitions, l_fn), num_partitions)
    r_cols, n_r = scatter(right, _map_side,
                          (tuple(right_on), num_partitions, r_fn),
                          num_partitions)

    if not n_l or not n_r:
        # empty side (zero blocks): synthesize the join result locally.
        # The non-empty side's rows are its exchanged pieces — bounded
        # here because only degenerate (mostly test) inputs take this
        # path.
        def _whole(side, cols, n_blocks, fn):
            parts = [] if not n_blocks else \
                [p for p in ray.get([r for js in cols for r in js])
                 if p is not None]
            if not parts:
                sch = side.schema()
                t = pa.schema([(n, t) for n, t in
                               zip(sch.names, sch.types)]).empty_table()
                return t if fn is None else fn(t)
            return pa.concat_tables(parts, promote_options="default")

        return [ray.put(_whole(left, l_cols, n_l, l_fn).join(
            _whole(right, r_cols, n_r, r_fn), keys=on, right_keys=right_on,
            join_type=join_type, left_suffix=left_suffix,
            right_suffix=right_suffix, use_threads=False))]

    reduce = _remote(_join_reduce)
    empties = (_typed_empty(left, l_fn), _typed_empty(right, r_fn))
    return [reduce.remote(join_type, tuple(on), tuple(right_on),
                          left_suffix, right_suffix, empties,
                          len(l_cols[j]), *l_cols[j], *r_cols[j])
            for j in range(num_partitions)]


def exchange_join(left_ds, right_ds, join_type: str, num_partitions: int,
                  **kwargs):
    """:func:`exchange_join_refs` as a Dataset of the joined
    partitions."""
    import ray.data as rd

    return rd.from_arrow_refs(exchange_join_refs(
        left_ds, right_ds, join_type, num_partitions, **kwargs))
