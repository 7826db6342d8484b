"""Temporal operators over event-stream tables: sessionization, as-of
join, and rolling range-window aggregates.

These are the "custom operators Ray Data lacks" from the brief (as-of
join, range join, windowed aggregate), built as beyond-reference
training-data-pipeline components.  All three share one distributed
shape: a single raw-task hash exchange on the entity key
(`functions.exchange` — per-block split by key hash, per-partition
reduce), then *vectorized* numpy time logic inside each partition.
No driver materialization, no Ray sort-based groupby.

Partitioning assumption (documented per the brief): one entity's event
history fits in a worker's heap — the exchange shards by entity, so a
partition holds `n_entities / num_partitions` complete histories, never
the whole table.  A hub entity with a pathologically long history would
need the salt-and-merge pattern of `stages/materialize` (split the
entity's timeline into ranges, overlap by the window/tolerance, drop
duplicate boundary outputs).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _ts_us(col: pa.ChunkedArray) -> np.ndarray:
    """timestamp[*]/int column → int64 epoch microseconds."""
    t = col.type
    if pa.types.is_timestamp(t):
        col = pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())
    else:
        col = pc.cast(col, pa.int64())
    return col.to_numpy(zero_copy_only=False)


def _sorted_by_key_ts(t: pa.Table, key_col: str, ts_col: str,
                      extra: Sequence[str] = ()) -> pa.Table:
    keys = [(key_col, "ascending"), (ts_col, "ascending")]
    keys += [(c, "ascending") for c in extra]
    return t.sort_by(keys)


# ---------------------------------------------------------------------------
# sessionization
# ---------------------------------------------------------------------------

def session_labels(uid: np.ndarray, ts: np.ndarray,
                   gap_us: int) -> np.ndarray:
    """Per-entity 0-based session index for (uid, ts) sorted by
    (uid, ts): a new session starts at each entity change or whenever
    the gap to the previous event exceeds ``gap_us``.  Fully
    vectorized (diff + two cumulative scans)."""
    n = len(uid)
    if n == 0:
        return np.zeros(0, np.int64)
    new_user = np.ones(n, bool)
    new_user[1:] = uid[1:] != uid[:-1]
    new_sess = new_user.copy()
    new_sess[1:] |= (ts[1:] - ts[:-1]) > gap_us
    gsid = np.cumsum(new_sess)  # 1-based global session counter
    # forward-fill each entity's first global session id, subtract
    user_first = np.maximum.accumulate(np.where(new_user, gsid, 0))
    return (gsid - user_first).astype(np.int64)


def sessionize(ds, *, key_col: str = "user_id", ts_col: str = "ts",
               gap_us: int = 1_800_000_000, value_col: Optional[str] = None,
               num_partitions: int = 8):
    """Session-window aggregate: split each entity's event timeline at
    gaps > ``gap_us``, emit one row per session —
    ``(key, session, n_events, start_us, end_us[, sum_value])``.

    ``value_col`` (exact 2-decimal doubles) is summed in integer cents,
    so the distributed sum is bit-equal to the SQL DECIMAL sum.
    """
    from .exchange import hash_aggregate

    cols = [key_col, ts_col] + ([value_col] if value_col else [])

    def finalize(t: pa.Table) -> pa.Table:
        t = _sorted_by_key_ts(t.select(cols), key_col, ts_col)
        uid = t[key_col].to_numpy(zero_copy_only=False)
        ts = _ts_us(t[ts_col])
        sess = session_labels(uid, ts, gap_us)
        data = {key_col: t[key_col], "session": pa.array(sess),
                "ts_us": pa.array(ts),
                "one": pa.array(np.ones(len(t), np.int64))}
        aggs = [("one", "sum"), ("ts_us", "min"), ("ts_us", "max")]
        names = [key_col, "session", "n_events", "start_us", "end_us"]
        if value_col:
            x = np.nan_to_num(t[value_col].to_numpy(zero_copy_only=False))
            # null value = 0 contribution (coalesce in the oracle)
            cents = (np.sign(x) * np.floor(np.abs(x) * 100 + 0.5))
            data["cents"] = pa.array(cents.astype(np.int64))
            aggs.append(("cents", "sum"))
            names.append("cents_sum")
        out = pa.table(data).group_by([key_col, "session"]).aggregate(aggs)
        out = out.rename_columns(names)
        if value_col:
            sums = out["cents_sum"].to_numpy(zero_copy_only=False) / 100.0
            out = out.drop_columns(["cents_sum"]).append_column(
                "sum_value", pa.array(sums, pa.float64()))
        return out

    return hash_aggregate(ds.select_columns(cols), [key_col],
                          None, finalize, num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# as-of join
# ---------------------------------------------------------------------------

def _asof_indices(l_key: np.ndarray, l_ts: np.ndarray,
                  r_key: np.ndarray, r_ts: np.ndarray,
                  tolerance_us: Optional[int]) -> np.ndarray:
    """For each left row (sorted by (key, ts)) the index of the LAST
    right row (sorted by (key, ts)) with the same key and
    ``r_ts <= l_ts`` (and ``l_ts - r_ts <= tolerance``), or -1.
    Vectorized per key run: python loops only over distinct keys."""
    out = np.full(len(l_key), -1, np.int64)
    if len(l_key) == 0 or len(r_key) == 0:
        return out
    r_uniq, r_start = np.unique(r_key, return_index=True)
    r_end = np.append(r_start[1:], len(r_key))
    l_uniq, l_start = np.unique(l_key, return_index=True)
    l_end = np.append(l_start[1:], len(l_key))
    r_pos = {k: i for i, k in enumerate(r_uniq)}
    for i, k in enumerate(l_uniq):
        j = r_pos.get(k)
        if j is None:
            continue
        ls, le = l_start[i], l_end[i]
        rs, re = r_start[j], r_end[j]
        idx = np.searchsorted(r_ts[rs:re], l_ts[ls:le], side="right") - 1
        hit = idx >= 0
        if tolerance_us is not None:
            tv = np.where(hit, r_ts[rs:re][np.maximum(idx, 0)], 0)
            hit &= (l_ts[ls:le] - tv) <= tolerance_us
        out[ls:le] = np.where(hit, idx + rs, -1)
    return out


def _concat_parts(parts):
    """Concat exchange partition parts with the same empty/schema care
    as exchange._reduce_side (rows define the schema)."""
    parts = [p for p in parts if p is not None]
    if not parts:
        raise ValueError("asof_join: every block was a schema-less empty")
    nonempty = [p for p in parts if p.num_rows > 0]
    if nonempty:
        return pa.concat_tables(nonempty, promote_options="default")
    return min(parts, key=lambda p: p.num_columns)


def _asof_reduce(key_col, l_ts_col, r_ts_col, r_cols, suffix,
                 tolerance_us, n_left, *parts):
    lt = _concat_parts(parts[:n_left])
    rt = _concat_parts(parts[n_left:])
    lt = _sorted_by_key_ts(lt, key_col, l_ts_col)
    rt = _sorted_by_key_ts(rt, key_col, r_ts_col)
    if rt.num_rows == 0 or lt.num_rows == 0:
        # no candidates (or no probes) in this partition: left rows
        # with all-null matched columns, types from the right schema
        out = lt
        for c in r_cols:
            name = c + suffix if c in lt.column_names else c
            out = out.append_column(
                name, pa.nulls(lt.num_rows, rt.schema.field(c).type))
        return out
    idx = _asof_indices(
        lt[key_col].to_numpy(zero_copy_only=False), _ts_us(lt[l_ts_col]),
        rt[key_col].to_numpy(zero_copy_only=False), _ts_us(rt[r_ts_col]),
        tolerance_us)
    valid = pa.array(idx >= 0)
    take = pa.array(np.maximum(idx, 0), pa.int64())
    out = lt
    for c in r_cols:
        name = c + suffix if c in lt.column_names else c
        col = rt[c].combine_chunks().take(take)
        col = pc.if_else(valid, col, pa.scalar(None, col.type))
        out = out.append_column(name, col)
    return out


def asof_join(left_ds, right_ds, *, on: str, ts: str,
              right_ts: Optional[str] = None,
              right_cols: Optional[List[str]] = None,
              suffix: str = "_r", tolerance_us: Optional[int] = None,
              num_partitions: int = 8):
    """Distributed as-of join (backward): each left row picks the most
    recent right row of the same ``on`` key with right ts <= left ts
    (optionally within ``tolerance_us``).  Both sides flow through ONE
    hash exchange on the key; each partition does a sorted numpy merge
    — the composition Ray Data lacks natively (brief: "as-of join …
    implement as an actor/task stage and document the partitioning
    assumption").

    Ties on right (key, ts) resolve to the LAST row in (key, ts,
    input-order) — pre-deduplicate the right side for full
    determinism across repartitions.
    """
    import ray
    import ray.data as rd

    from .exchange import _map_side, scatter

    right_ts = right_ts or ts
    l_parts, n_l = scatter(left_ds, _map_side,
                           ((on,), num_partitions, None), num_partitions)
    if not n_l:
        return left_ds  # empty: nothing to join
    r_parts, n_r = scatter(right_ds, _map_side,
                           ((on,), num_partitions, None), num_partitions)
    r_schema = right_ds.schema()
    r_cols = right_cols or [c for c in r_schema.names if c != on]
    if not n_r:
        # no right side: all-null matched columns with the right types
        tmap = dict(zip(r_schema.names, r_schema.types))
        l_names = set(left_ds.schema().names)

        def nulls(b: pa.Table) -> pa.Table:
            for c in r_cols:
                name = c + suffix if c in l_names else c
                b = b.append_column(
                    name, pa.nulls(b.num_rows, tmap[c]))
            return b
        return left_ds.map_batches(nulls, batch_format="pyarrow")

    reduce = ray.remote(_asof_reduce)
    out = [reduce.remote(on, ts, right_ts, tuple(r_cols), suffix,
                         tolerance_us, len(lp), *lp, *rp)
           for lp, rp in zip(l_parts, r_parts)]
    return rd.from_arrow_refs(out)


# ---------------------------------------------------------------------------
# rolling range-window aggregate
# ---------------------------------------------------------------------------

def rolling_window(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                   window_us: int = 3_600_000_000,
                   value_col: Optional[str] = None,
                   keep_cols: Sequence[str] = (),
                   num_partitions: int = 8):
    """Per-entity rolling aggregate over the trailing time window
    (SQL ``RANGE BETWEEN <window> PRECEDING AND CURRENT ROW``): for
    every event, the count (and cent-exact sum of ``value_col``) of the
    same entity's events with ``ts in (t - window, …, t]``, peers at
    equal ts included — prefix sums + two searchsorted per entity run,
    no per-row python."""
    from .exchange import hash_aggregate

    cols = list(dict.fromkeys(
        [key_col, ts_col] + ([value_col] if value_col else [])
        + list(keep_cols)))

    def finalize(t: pa.Table) -> pa.Table:
        t = _sorted_by_key_ts(t.select(cols), key_col, ts_col)
        uid = t[key_col].to_numpy(zero_copy_only=False)
        ts = _ts_us(t[ts_col])
        n = len(t)
        nw = np.zeros(n, np.int64)
        if value_col:
            x = np.nan_to_num(t[value_col].to_numpy(zero_copy_only=False))
            # null value = 0 contribution (coalesce in the oracle)
            cents = (np.sign(x) * np.floor(np.abs(x) * 100 + 0.5)) \
                .astype(np.int64)
            sw = np.zeros(n, np.int64)
        uniq, start = np.unique(uid, return_index=True)
        end = np.append(start[1:], n)
        for s, e in zip(start, end):
            seg = ts[s:e]
            lo = np.searchsorted(seg, seg - window_us, side="left")
            hi = np.searchsorted(seg, seg, side="right")
            nw[s:e] = hi - lo
            if value_col:
                pseg = np.cumsum(np.concatenate([[0], cents[s:e]]))
                sw[s:e] = pseg[hi] - pseg[lo]
        out = t.append_column("ts_us", pa.array(ts)) \
               .append_column("n_w", pa.array(nw))
        if value_col:
            out = out.append_column(
                "sum_w", pa.array(sw / 100.0, pa.float64()))
        return out.drop_columns([ts_col] +
                                ([value_col] if value_col else []))

    return hash_aggregate(ds.select_columns(cols), [key_col],
                          None, finalize, num_partitions=num_partitions)
