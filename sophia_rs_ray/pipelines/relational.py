"""SPARQL-operator demos over the driver's relational tables.

Each function here is the Ray-Data-first realization of one operator
family from SURVEY.md §2.5-2.7 (the reference's SPARQL executor,
``sparql/src/exec.rs``), expressed over the TPC-H-ish tables so the
DuckDB oracle can check it exactly:

- hash join / left join / anti join / semi join  (exec.rs:484-551,754-790,
  expression.rs:60 EXISTS)
- grouped aggregates with partial pre-aggregation  (exec.rs:943-1006)
- ORDER BY + LIMIT top-k  (exec.rs:826-941)
- GROUP_CONCAT  (aggregate_iter.rs:111-117)
- transitive closure (property path ``+``, exec.rs:274-482) through the
  one closure primitive, ``functions/components.transitive_closure``

Scale notes are inline: small sides broadcast via ``ray.put``; both-large
joins use hash-partitioned ``Dataset.join``; every aggregate pre-combines
inside ``map_batches`` before the shuffle.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.broadcast import worker_cached
from ..functions.exchange import grouped, hash_aggregate, per_group
from ..util import round_away
from ..util import safe_join


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _cents(col, scale: float = 1e2):
    """Exact integer representation of a decimal-valued double column
    (round half away from zero).  The driver's money/measure columns
    are exact 2-decimal values stored as doubles, so summing these
    integers IS the SQL DECIMAL sum — order-independent and therefore
    bit-deterministic across any distribution of partial aggregates.
    (r1 quantized both sides with floor(x*s+0.5); that biased negative
    values toward +inf and weakened the oracle — the oracles now use
    true DECIMAL casts and these integers reproduce them exactly.)"""
    import numpy as np

    x = np.nan_to_num(col.to_numpy(zero_copy_only=False))
    # nulls contribute 0 (mirrored by coalesce(value, 0) in the
    # oracles) — without the mask, nan.astype(int64) is INT64_MIN
    return (np.sign(x) * np.floor(np.abs(x) * scale + 0.5)).astype("int64")


def _int_round2(s4):
    """Integer half-away-from-zero rounding of a scale-4 sum to scale-2
    cents (matches DuckDB's round(DECIMAL, 2)); stays exact where a
    float division could land on the wrong side of a .xx5 boundary."""
    import numpy as np

    s4 = np.asarray(s4, dtype="int64")
    return np.sign(s4) * ((np.abs(s4) + 50) // 100)


# ---------------------------------------------------------------------------
# aggregates (partial pre-aggregation before the shuffle)
# ---------------------------------------------------------------------------

def tpch_q1(sf_dir: str):
    """Q1-style grouped aggregate. Pattern: per-batch pyarrow hash-groupby
    partials (combiner) → exchange group-sum over partials → finalize.
    The wide shuffle moves ≤ (groups × blocks) rows instead of all rows."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount"])

    def partial(b: pa.Table) -> pa.Table:
        # exact DECIMAL semantics in integers: cents for the scale-2
        # columns, and disc_price as the exact integer product
        # cents(price) × (100 − cents(discount)) at scale 4 — no float
        # multiplication anywhere, so the sum equals DuckDB's
        # DECIMAL(18,2) × DECIMAL arithmetic bit-for-bit
        p_cents = _cents(b["l_extendedprice"])
        d_cents = _cents(b["l_discount"])
        t = pa.table({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "q_qty": pa.array(_cents(b["l_quantity"]), pa.int64()),
            "q_price": pa.array(p_cents, pa.int64()),
            "q_disc_price": pa.array(p_cents * (100 - d_cents), pa.int64()),
            "q_disc": pa.array(d_cents, pa.int64()),
            "one": pa.array([1] * len(b), pa.int64()),
        })
        return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("q_qty", "sum"), ("q_price", "sum"),
             ("q_disc_price", "sum"), ("q_disc", "sum"), ("one", "sum")])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    agg = grouped(partials, ["l_returnflag", "l_linestatus"],
                  [(c, "sum") for c in ("q_qty_sum", "q_price_sum",
                                        "q_disc_price_sum", "q_disc_sum",
                                        "one_sum")])

    def finalize(b: pa.Table) -> pa.Table:
        n = b["one_sum"].to_numpy(zero_copy_only=False).astype("float64")
        qq = b["q_qty_sum"].to_numpy(zero_copy_only=False)
        qd = b["q_disc_sum"].to_numpy(zero_copy_only=False)
        return pa.table({
            "l_returnflag": b["l_returnflag"],
            "l_linestatus": b["l_linestatus"],
            "sum_qty": pa.array(qq / 1e2),
            "sum_base_price": pa.array(
                b["q_price_sum"].to_numpy(zero_copy_only=False) / 1e2),
            "sum_disc_price": pa.array(
                _int_round2(
                    b["q_disc_price_sum"].to_numpy(zero_copy_only=False))
                / 1e2),
            "avg_qty": pa.array(round_away(qq / 1e2 / n, 4)),
            "avg_disc": pa.array(round_away(qd / 1e2 / n, 4)),
            "count_order": b["one_sum"],
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# Oracle at TRUE SQL DECIMAL semantics (the driver's money columns are
# exact 2-decimal values): no quantization mirroring — the Ray side's
# integer arithmetic must reproduce real DECIMAL sums (r1 ADVICE).
TPCH_Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(l_quantity AS DECIMAL(18,2))) AS DOUBLE) AS sum_qty,
       CAST(sum(CAST(l_extendedprice AS DECIMAL(18,2))) AS DOUBLE)
           AS sum_base_price,
       CAST(round(sum(CAST(l_extendedprice AS DECIMAL(18,2))
                      * (1 - CAST(l_discount AS DECIMAL(18,2)))), 2)
            AS DOUBLE) AS sum_disc_price,
       round(CAST(sum(CAST(l_quantity AS DECIMAL(18,2))) AS DOUBLE)
             / count(*), 4) AS avg_qty,
       round(CAST(sum(CAST(l_discount AS DECIMAL(18,2))) AS DOUBLE)
             / count(*), 4) AS avg_disc,
       count(*) AS count_order
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def events_hourly(sf_dir: str):
    """Tumbling-window aggregate over the events stream table
    (SURVEY §2.11: window = groupby on a derived time bucket)."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        hour = pc.divide(pc.cast(b["ts"], pa.int64()),
                         pa.scalar(3_600_000_000))
        # the value column is exact 2-decimal: cents sums ARE the SQL
        # DECIMAL sums, order-independent across partials
        b = pa.table({"event_type": b["event_type"], "hour": hour,
                      "q": pa.array(_cents(b["value"]), pa.int64()),
                      "one": pa.array([1] * len(b), pa.int64())})
        return b.group_by(["event_type", "hour"]).aggregate(
            [("q", "sum"), ("one", "sum")])

    agg = grouped(ds.map_batches(partial, batch_format="pyarrow"),
                  ["event_type", "hour"],
                  [("q_sum", "sum"), ("one_sum", "sum")])

    def finalize(b: pa.Table) -> pa.Table:
        avg = round_away(
            b["q_sum"].to_numpy(zero_copy_only=False) / 1e2
            / b["one_sum"].to_numpy(zero_copy_only=False).astype("float64"),
            4)
        return pa.table({"event_type": b["event_type"], "hour": b["hour"],
                         "n": b["one_sum"], "avg_value": pa.array(avg)})

    return agg.map_batches(finalize, batch_format="pyarrow")


EVENTS_HOURLY_SQL = """
SELECT event_type, epoch_us(ts) // 3600000000 AS hour,
       count(*) AS n,
       round(CAST(sum(CAST(coalesce("value", 0) AS DECIMAL(18,2)))
                  AS DOUBLE) / count(*), 4) AS avg_value
FROM events GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------

def customers_per_region(sf_dir: str):
    """Join with two broadcast dimension tables (nation, region): the
    small side is `ray.put` once and looked up per batch — no shuffle
    (SURVEY §2.5 'small patterns → broadcast join')."""
    import ray

    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    n2r = dict(zip(nation["n_nationkey"], nation["n_regionkey"]))
    r2name = dict(zip(region["r_regionkey"], region["r_name"]))
    # broadcast as parallel Arrow arrays: the per-batch lookup is then
    # vectorized index_in/take (missing key → null, like dict.get)
    lut = {k: r2name[v] for k, v in n2r.items()}
    lookup_ref = ray.put((pa.array(list(lut.keys()), pa.int64()),
                          pa.array(list(lut.values()))))

    ds = _read(sf_dir, "customer", ["c_nationkey"])

    def partial(b: pa.Table) -> pa.Table:
        keys_arr, names_arr = worker_cached(lookup_ref, tuple)
        idx = pc.index_in(pc.cast(b["c_nationkey"], pa.int64()),
                          value_set=keys_arr)
        t = pa.table({"r_name": pc.take(names_arr, idx),
                      "one": pa.array([1] * len(b), pa.int64())})
        return t.group_by("r_name").aggregate([("one", "sum")])

    def _gsum(t: pa.Table) -> pa.Table:
        return t.group_by(["r_name"]).aggregate(
            [("one_sum", "sum")]).rename_columns(["r_name", "one_sum"])

    def _final(t: pa.Table) -> pa.Table:
        return _gsum(t).rename_columns(["r_name", "n_customers"])

    return hash_aggregate(ds.map_batches(partial, batch_format="pyarrow"),
                          ["r_name"], _gsum, _final)


CUSTOMERS_PER_REGION_SQL = """
SELECT r_name, count(*) AS n_customers
FROM customer JOIN nation ON c_nationkey = n_nationkey
              JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


def orders_per_segment(sf_dir: str):
    """Left-outer join (SPARQL OPTIONAL): per-customer order counts
    (0 when absent) aggregated per market segment. Both sides large →
    hash-partitioned Dataset.join."""

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey"])

    per_cust = hash_aggregate(
        orders,
        ["o_custkey"],
        lambda b: b.group_by("o_custkey").aggregate([([], "count_all")])
        .rename_columns(["o_custkey", "cnt"]),
        lambda t: t.group_by("o_custkey").aggregate([("cnt", "sum")])
        .rename_columns(["o_custkey", "cnt"]))
    joined = safe_join(cust, per_cust, "left_outer", 8,
                       on=("c_custkey",), right_on=("o_custkey",))

    def partial(b: pa.Table) -> pa.Table:
        cnt = pc.fill_null(b["cnt"], 0)
        t = pa.table({"c_mktsegment": b["c_mktsegment"], "cnt": cnt,
                      "one": pa.array([1] * len(b), pa.int64())})
        return t.group_by("c_mktsegment").aggregate(
            [("cnt", "sum"), ("one", "sum")])

    def _gsum(t: pa.Table) -> pa.Table:
        return t.group_by(["c_mktsegment"]).aggregate(
            [("cnt_sum", "sum"), ("one_sum", "sum")]) \
            .rename_columns(["c_mktsegment", "cnt_sum", "one_sum"])

    def _final(t: pa.Table) -> pa.Table:
        return _gsum(t).rename_columns(
            ["c_mktsegment", "n_orders", "n_customers"])

    return hash_aggregate(joined.map_batches(partial,
                                             batch_format="pyarrow"),
                          ["c_mktsegment"], _gsum, _final)


ORDERS_PER_SEGMENT_SQL = """
SELECT c_mktsegment, count(*) AS n_customers,
       CAST(sum(cnt) AS BIGINT) AS n_orders
FROM (SELECT c_custkey, c_mktsegment,
             coalesce((SELECT count(*) FROM orders o
                       WHERE o.o_custkey = c.c_custkey), 0) AS cnt
      FROM customer c)
GROUP BY c_mktsegment
"""


def _distinct_keys(ds, col: str, num_partitions: int = 16):
    """Distinct values of one column via the hash exchange (per-block
    combiner first — no full-row shuffle)."""

    def dedup(t: pa.Table) -> pa.Table:
        return pa.table({col: pc.unique(t[col])})

    return hash_aggregate(ds, [col], dedup, dedup,
                          num_partitions=num_partitions)


def _semi_anti_counted(left, build, key_left: str, key_right: str,
                       anti: bool, group_fn):
    """Semi/anti join + grouped count with an explicit scale gate: at
    or under ``BROADCAST_ROWS`` build rows the build key column is
    gathered once and broadcast via ``ray.put`` (no shuffle;
    ``group_fn`` filters with :func:`_key_filter`); above it, a
    distributed ``left_semi``/``left_anti`` join."""
    import ray

    from ..functions.broadcast import BROADCAST_ROWS, gated_gather

    build = build.materialize()
    keys = gated_gather(build, BROADCAST_ROWS)
    if keys is None:
        marker = _distinct_keys(build, key_right)
        how = "left_anti" if anti else "left_semi"
        filtered = safe_join(left, marker, how, 16,
                             on=(key_left,), right_on=(key_right,))
        return group_fn(filtered, None)
    col = keys[key_right] if keys.num_rows else pa.array([], pa.int64())
    return group_fn(left, ray.put(col))


def _key_filter(b: pa.Table, col: str, keys_ref, anti: bool) -> pa.Table:
    """Rows of ``b`` whose ``col`` is (semi) or is not (anti) in the
    broadcast key column — SQL ``=``: a NULL key matches nothing."""
    hit = pc.is_in(b[col], value_set=worker_cached(keys_ref, pc.unique),
                   skip_nulls=True)
    return b.filter(pc.invert(hit) if anti else hit)


def customers_without_orders(sf_dir: str):
    """Anti join (SPARQL MINUS, exec.rs:754-790): customers with no
    *large* (totalprice > 450000) order, counted per nation.  Gated:
    broadcast key-set filter while the build side is small, distributed
    left_anti join above ``BROADCAST_ROWS``."""
    import ray

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    big = orders.map_batches(
        lambda b: pa.table({"o_custkey": b.filter(
            pc.greater(b["o_totalprice"], pa.scalar(450000.0)))["o_custkey"]}),
        batch_format="pyarrow")

    nation = _read(sf_dir, "nation").to_pandas()
    n2name_ref = ray.put(dict(zip(nation["n_nationkey"], nation["n_name"])))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def group_fn(left, keys_ref):
        def partial(b: pa.Table) -> pa.Table:
            lut = worker_cached(n2name_ref, dict)
            if keys_ref is not None:
                b = _key_filter(b, "c_custkey", keys_ref, True)
            names = [lut.get(k) for k in b["c_nationkey"].to_pylist()]
            t = pa.table({"n_name": names,
                          "one": pa.array([1] * len(b), pa.int64())})
            return t.group_by("n_name").aggregate([("one", "sum")])

        def _gsum(t: pa.Table) -> pa.Table:
            return t.group_by(["n_name"]).aggregate(
                [("one_sum", "sum")]).rename_columns(["n_name", "one_sum"])

        def _final(t: pa.Table) -> pa.Table:
            return _gsum(t).rename_columns(["n_name", "n"])

        return hash_aggregate(
            left.map_batches(partial, batch_format="pyarrow"),
            ["n_name"], _gsum, _final)

    return _semi_anti_counted(cust, big, "c_custkey", "o_custkey",
                              True, group_fn)


CUSTOMERS_WITHOUT_ORDERS_SQL = """
SELECT n_name, count(*) AS n
FROM customer c JOIN nation ON c_nationkey = n_nationkey
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 450000)
GROUP BY n_name
"""


def large_parts_in_lineitem(sf_dir: str):
    """Semi join (SPARQL EXISTS): parts with size > 40 that appear in
    lineitem, counted per brand.  Gated like customers_without_orders:
    broadcast distinct-key filter below the limit, distributed
    left_semi join above it."""
    li = _read(sf_dir, "lineitem", ["l_partkey"])
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
    part = part.map_batches(
        lambda b: b.filter(pc.greater(b["p_size"], pa.scalar(40))),
        batch_format="pyarrow")

    def group_fn(left, keys_ref):
        def partial(b: pa.Table) -> pa.Table:
            if keys_ref is not None:
                b = _key_filter(b, "p_partkey", keys_ref, False)
            t = pa.table({"p_brand": b["p_brand"],
                          "one": pa.array([1] * len(b), pa.int64())})
            return t.group_by("p_brand").aggregate([("one", "sum")])

        def _gsum(t: pa.Table) -> pa.Table:
            return t.group_by(["p_brand"]).aggregate(
                [("one_sum", "sum")]).rename_columns(["p_brand",
                                                      "one_sum"])

        def _final(t: pa.Table) -> pa.Table:
            return _gsum(t).rename_columns(["p_brand", "n"])

        return hash_aggregate(
            left.map_batches(partial, batch_format="pyarrow"),
            ["p_brand"], _gsum, _final)

    return _semi_anti_counted(part, li, "p_partkey", "l_partkey",
                              False, group_fn)


LARGE_PARTS_SQL = """
SELECT p_brand, count(*) AS n
FROM part p
WHERE p_size > 40
  AND EXISTS (SELECT 1 FROM lineitem l WHERE l.l_partkey = p.p_partkey)
GROUP BY p_brand
"""


# ---------------------------------------------------------------------------
# sort / top-k
# ---------------------------------------------------------------------------

def top_orders_by_revenue(sf_dir: str, k: int = 10):
    """ORDER BY + LIMIT top-k (exec.rs:826-941): grouped revenue via
    the raw-task hash exchange → per-block local top-k → tiny sort."""
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"])

    from ..util import topk

    def combine(b: pa.Table) -> pa.Table:
        # exact integer revenue at scale 4: cents(price) × (100 −
        # cents(discount)) — true DECIMAL semantics, order-independent
        rev = _cents(b["l_extendedprice"]) * (100 - _cents(b["l_discount"]))
        t = pa.table({"l_orderkey": b["l_orderkey"],
                      "rev": pa.array(rev, pa.int64())})
        return (t.group_by("l_orderkey").aggregate([("rev", "sum")])
                .rename_columns(["l_orderkey", "rev"]))

    def finalize(t: pa.Table) -> pa.Table:
        g = (t.group_by("l_orderkey").aggregate([("rev", "sum")])
             .rename_columns(["l_orderkey", "revenue"]))
        i = g.column_names.index("revenue")
        g = g.set_column(i, "revenue", pa.array(
            _int_round2(g["revenue"].to_numpy(zero_copy_only=False)) / 1e2))
        return g

    agg = hash_aggregate(li, ["l_orderkey"], combine, finalize)
    return topk(agg, ["revenue", "l_orderkey"], k,
                descending=[True, False])


TOP_ORDERS_SQL = """
SELECT l_orderkey,
       CAST(round(sum(CAST(l_extendedprice AS DECIMAL(18,2))
                      * (1 - CAST(l_discount AS DECIMAL(18,2)))), 2)
            AS DOUBLE) AS revenue
FROM lineitem GROUP BY l_orderkey
ORDER BY revenue DESC, l_orderkey LIMIT 10
"""


# ---------------------------------------------------------------------------
# GROUP_CONCAT
# ---------------------------------------------------------------------------

def nations_per_region_concat(sf_dir: str):
    """GROUP_CONCAT(sep=',') with deterministic (sorted) member order
    (aggregate_iter.rs:111-117) via ``exchange.per_group``."""
    nation = _read(sf_dir, "nation", ["n_name", "n_regionkey"])
    import ray
    region = _read(sf_dir, "region").to_pandas()
    r_ref = ray.put(dict(zip(region["r_regionkey"], region["r_name"])))

    def add_rname(b: pa.Table) -> pa.Table:
        lut = worker_cached(r_ref, dict)
        names = [lut.get(k) for k in b["n_regionkey"].to_pylist()]
        return b.append_column("r_name", pa.array(names, pa.string()))

    def concat(g: pa.Table) -> pa.Table:
        names = sorted(g["n_name"].to_pylist())
        return pa.table({"r_name": g["r_name"].slice(0, 1),
                         "nations": pa.array([",".join(names)],
                                             pa.string())})

    return per_group(nation.map_batches(add_rname, batch_format="pyarrow"),
                     ["r_name"], concat)


NATIONS_CONCAT_SQL = """
SELECT r_name, string_agg(n_name, ',' ORDER BY n_name) AS nations
FROM nation JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


# ---------------------------------------------------------------------------
# transitive closure over the one closure primitive
# (functions/components.transitive_closure)
# ---------------------------------------------------------------------------

def customer_ancestors(sf_dir: str):
    """Transitive closure of the deterministic hierarchy
    ``parent(k) = k // 10`` over customer keys: the ``(k, k // 10)``
    edges of keys ≥ 10 through ``components.transitive_closure`` (SURVEY
    §2.5 property path ``+``), read back as int64 (node, ancestor)."""
    import ray.data as rd

    from ..functions.components import transitive_closure

    def edges(b: pa.Table) -> pa.Table:
        k = b["c_custkey"].filter(pc.greater_equal(b["c_custkey"], 10))
        return pa.table({"s": pc.cast(k, pa.string()),
                         "o": pc.cast(pc.divide(k, 10), pa.string())})

    cust = _read(sf_dir, "customer", ["c_custkey"])
    e = cust.map_batches(edges, batch_format="pyarrow").materialize()
    if e.count() == 0:
        # keep the (node, ancestor) schema on the empty result — Ray
        # drops the schema of zero-block datasets
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "ancestor": pa.array([], pa.int64())}))
    return transitive_closure(e).map_batches(
        lambda b: pa.table({"node": pc.cast(b["s"], pa.int64()),
                            "ancestor": pc.cast(b["o"], pa.int64())}),
        batch_format="pyarrow")


CUSTOMER_ANCESTORS_SQL = """
WITH RECURSIVE anc(node, ancestor) AS (
  SELECT c_custkey, c_custkey // 10 FROM customer WHERE c_custkey >= 10
  UNION
  SELECT a.node, a.ancestor // 10 FROM anc a WHERE a.ancestor >= 10
)
SELECT node, ancestor FROM anc
"""


# ---------------------------------------------------------------------------
# temporal operators over the events stream (functions/temporal.py):
# session windows, as-of join, rolling range windows
# ---------------------------------------------------------------------------

def user_sessions(sf_dir: str):
    """Session-window aggregate: per-user event timelines split at
    >30-min gaps (ONE hash exchange on user_id + vectorized numpy gap
    scan per partition — functions/temporal.sessionize)."""
    from ..functions.temporal import sessionize

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    return sessionize(ds, key_col="user_id", ts_col="ts",
                      gap_us=1_800_000_000, value_col="value")


USER_SESSIONS_SQL = """
WITH o AS (
  SELECT user_id, ts, value,
         CASE WHEN lag(ts) OVER w IS NULL
              OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
         THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), s AS (
  SELECT *, sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                             ROWS UNBOUNDED PRECEDING) - 1 AS session
  FROM o)
SELECT user_id, CAST(session AS BIGINT) AS session, count(*) AS n_events,
       min(epoch_us(ts)) AS start_us, max(epoch_us(ts)) AS end_us,
       CAST(sum(CAST(coalesce(value, 0) AS DECIMAL(18,2))) AS DOUBLE)
           AS sum_value
FROM s GROUP BY 1, 2
"""


def clicks_asof_view(sf_dir: str):
    """As-of join: every click event matched to the user's most recent
    prior-or-simultaneous view event.  Right side pre-deduplicated to
    max event_id per (user, ts) for tie determinism; both sides flow
    through one hash exchange on user_id, each partition does a sorted
    searchsorted merge (functions/temporal.asof_join)."""
    from ..functions.temporal import asof_join

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts",
                                  "event_type"])

    def _typed(name):
        def f(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b["event_type"], name)) \
                    .drop_columns(["event_type"])
        return f

    clicks = ds.map_batches(_typed("click"), batch_format="pyarrow")
    views = ds.map_batches(_typed("view"), batch_format="pyarrow")

    def dmax(t: pa.Table) -> pa.Table:
        out = t.group_by(["user_id", "ts"]).aggregate([("event_id", "max")])
        return out.rename_columns(["user_id", "ts", "event_id"])

    views = hash_aggregate(views, ["user_id"], dmax, dmax)
    joined = asof_join(clicks, views, on="user_id", ts="ts",
                       right_cols=["event_id", "ts"], suffix="_view")

    def fin(b: pa.Table) -> pa.Table:
        # unmatched → -1 (not null): keeps int64 dtype through pandas
        # on both sides of the oracle compare
        return pa.table({
            "event_id": b["event_id"],
            "user_id": b["user_id"],
            "ts_us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")),
                             pa.int64()),
            "view_id": pc.coalesce(b["event_id_view"],
                                   pa.scalar(-1, pa.int64())),
            "view_ts_us": pc.coalesce(
                pc.cast(pc.cast(b["ts_view"], pa.timestamp("us")),
                        pa.int64()),
                pa.scalar(-1, pa.int64())),
        })

    return joined.map_batches(fin, batch_format="pyarrow")


CLICKS_ASOF_VIEW_SQL = """
WITH v AS (SELECT user_id, ts, max(event_id) AS view_id
           FROM events WHERE event_type = 'view' GROUP BY 1, 2),
     c AS (SELECT * FROM events WHERE event_type = 'click')
SELECT c.event_id, c.user_id, epoch_us(c.ts) AS ts_us,
       coalesce(v.view_id, -1) AS view_id,
       coalesce(epoch_us(v.ts), -1) AS view_ts_us
FROM c ASOF LEFT JOIN v ON c.user_id = v.user_id AND c.ts >= v.ts
"""


def events_rolling_1h(sf_dir: str):
    """Rolling range-window aggregate: per event, the count and
    cent-exact value sum of the same user's events in the trailing
    hour (RANGE … PRECEDING AND CURRENT ROW semantics, peers at equal
    ts included) — prefix sums + searchsorted per user run
    (functions/temporal.rolling_window)."""
    from ..functions.temporal import rolling_window

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return rolling_window(ds, key_col="user_id", ts_col="ts",
                          window_us=3_600_000_000, value_col="value",
                          keep_cols=["event_id"])


EVENTS_ROLLING_1H_SQL = """
SELECT user_id, event_id, epoch_us(ts) AS ts_us,
       count(*) OVER w AS n_w,
       CAST(sum(CAST(coalesce(value, 0) AS DECIMAL(18,2))) OVER w
            AS DOUBLE) AS sum_w
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
"""


def events_props_k(sf_dir: str):
    """Semi-structured extraction + grouped aggregate: parse the JSON
    ``props`` column, pull ``$.k``, and aggregate per event_type.
    The extraction is a VECTORIZED ``pc.extract_regex`` fast path for
    flat ``{"k": int}`` objects; rows it misses fall back to
    ``json.loads`` per row (none in the synthetic data, but the
    fallback keeps the op honest on arbitrary JSON). Counting and
    summing pre-combine per batch before one small hash exchange."""
    import json

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(b: pa.Table) -> pa.Table:
        props = pc.cast(b["props"], pa.string())
        m = pc.extract_regex(props, r'"k"\s*:\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        if k.null_count > 0:
            # fallback: genuine JSON parse for rows the regex missed
            vals = k.to_pylist()
            raw = props.to_pylist()
            for i, (v, r) in enumerate(zip(vals, raw)):
                if v is None and r is not None:
                    try:
                        got = json.loads(r).get("k")
                        vals[i] = int(got) if got is not None else None
                    except (ValueError, TypeError):
                        vals[i] = None
            k = pa.array(vals, pa.int64())
        t = pa.table({"event_type": pc.cast(b["event_type"], pa.string()),
                      "k": k,
                      "one": pa.array([1] * b.num_rows, pa.int64())})
        return t.group_by(["event_type"]).aggregate(
            [("one", "sum"), ("k", "sum")]).rename_columns(
            ["event_type", "n", "sum_k"])

    def final(t: pa.Table) -> pa.Table:
        return t.group_by(["event_type"]).aggregate(
            [("n", "sum"), ("sum_k", "sum")]).rename_columns(
            ["event_type", "n", "sum_k"])

    return hash_aggregate(ds, ["event_type"], partial, final)


EVENTS_PROPS_K_SQL = """
SELECT event_type, count(*) AS n,
       cast(sum(cast(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
           AS sum_k
FROM events GROUP BY event_type
"""


def price_median_by_flag(sf_dir: str):
    """Distributed EXACT discrete median (quantile_disc 0.5 =
    sorted[(n-1)//2]) of l_extendedprice per l_returnflag, via
    value-count aggregation: a per-batch (flag, price)→count combiner
    collapses the billion-row table to its distinct-value histogram in
    ONE hash exchange, then the kth element falls out of a cumulative
    scan over each flag's sorted histogram. Scales while distinct
    values per group ≪ rows (money columns: bounded domain); no
    full-column sort, no driver row materialization — only the
    histogram (|distinct| rows) leaves the exchange."""

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "l_returnflag": pc.cast(b["l_returnflag"], pa.string()),
            "price": pc.cast(b["l_extendedprice"], pa.float64()),
            "one": pa.array([1] * b.num_rows, pa.int64())})
        return t.group_by(["l_returnflag", "price"]).aggregate(
            [("one", "sum")]).rename_columns(
            ["l_returnflag", "price", "cnt"])

    def final(t: pa.Table) -> pa.Table:
        t = t.group_by(["l_returnflag", "price"]).aggregate(
            [("cnt", "sum")]).rename_columns(
            ["l_returnflag", "price", "cnt"])
        # per-flag kth selection over the value histogram (the exchange
        # partitions by flag, so each flag's histogram is complete here)
        import numpy as np

        flags = t["l_returnflag"].to_numpy(zero_copy_only=False)
        out_f, out_m = [], []
        for f in np.unique(flags):
            sub = t.filter(pc.equal(t["l_returnflag"], pa.scalar(str(f))))
            order = pc.sort_indices(sub["price"])
            prices = sub["price"].take(order).to_numpy(zero_copy_only=False)
            cnts = sub["cnt"].take(order).to_numpy(zero_copy_only=False)
            cum = np.cumsum(cnts)
            kth = (int(cum[-1]) - 1) // 2  # quantile_disc 0.5
            out_f.append(str(f))
            out_m.append(float(prices[int(np.searchsorted(cum, kth + 1))]))
        return pa.table({"l_returnflag": pa.array(out_f, pa.string()),
                         "median_price": pa.array(out_m, pa.float64())})

    return hash_aggregate(ds, ["l_returnflag"], partial, final)


PRICE_MEDIAN_SQL = """
SELECT l_returnflag,
       cast(quantile_disc(l_extendedprice, 0.5) AS DOUBLE) AS median_price
FROM lineitem GROUP BY l_returnflag
"""
