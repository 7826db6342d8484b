"""The small-side gate and the per-worker cache
(``functions/broadcast.py``): every gated operator's distributed
fallback returns exactly its broadcast plan's rows, and the broadcast
semi/anti joins treat NULL keys as SQL does."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _rows(ds):
    return sorted(tuple(sorted(r.items())) for r in ds.take_all())


def _decontaminate(sf_dir, tmp_path):
    from sophia_rs_ray.pipelines.queries import _decontaminate

    return _rows(_decontaminate(sf_dir))


def _lm_score(sf_dir, tmp_path):
    from sophia_rs_ray.pipelines.queries import _lm_score
    from test_lm_chunk import CORPUS, _write_docs

    return _rows(_lm_score(_write_docs(tmp_path, CORPUS)))


def _dsir_weights(sf_dir, tmp_path):
    from sophia_rs_ray.pipelines.queries import _dsir_weights
    from test_lm_chunk import CORPUS, DSIR_LANGS, _write_docs_langs

    return _rows(_dsir_weights(
        _write_docs_langs(tmp_path, CORPUS, DSIR_LANGS)))


def _canonicalize_exact(sf_dir, tmp_path):
    """Merged entities appear as subject AND object, so the rewrite of
    both positions is compared."""
    from sophia_rs_ray.stages.entity_dedup import canonicalize_entities
    from test_entity_dedup import ENT, _nt

    out, mapping = canonicalize_entities(_nt(None), subject_prefix=ENT,
                                         method="exact")
    if not isinstance(mapping, dict):  # the join-rewrite path's Dataset
        mapping = {r["old"]: r["canon"] for r in mapping.take_all()}
    assert mapping
    return _rows(out) + sorted(mapping.items())


def _customers_without_orders(sf_dir, tmp_path):
    from sophia_rs_ray.pipelines.relational import customers_without_orders

    return _rows(customers_without_orders(sf_dir))


def _large_parts_in_lineitem(sf_dir, tmp_path):
    from sophia_rs_ray.pipelines.relational import large_parts_in_lineitem

    return _rows(large_parts_in_lineitem(sf_dir))


GATED = [_decontaminate, _lm_score, _dsir_weights, _canonicalize_exact,
         _customers_without_orders, _large_parts_in_lineitem]


@pytest.mark.parametrize("op", GATED, ids=lambda f: f.__name__.lstrip("_"))
def test_fallback_equals_broadcast(op, sf_dir, tmp_path, monkeypatch,
                                   ray_session):
    """``BROADCAST_ROWS = 0`` forces every gated operator onto its
    distributed fallback; the rows must not change."""
    from sophia_rs_ray.functions import broadcast

    broadcast_rows = op(sf_dir, tmp_path)
    monkeypatch.setattr(broadcast, "BROADCAST_ROWS", 0)
    assert op(sf_dir, tmp_path) == broadcast_rows
    assert broadcast_rows


def test_gated_gather_and_worker_cached(ray_session):
    import ray

    from sophia_rs_ray.functions.broadcast import gated_gather, worker_cached

    refs = [ray.put(pa.table({"k": [1, 2]})), ray.put(pa.table({"k": [3]}))]
    assert gated_gather(refs, 3)["k"].to_pylist() == [1, 2, 3]
    assert gated_gather(refs, 2) is None
    assert gated_gather(refs, 0, count=lambda t: 0).num_rows == 3

    builds = []

    def build(t, tag="a"):
        builds.append(tag)
        return t.num_rows

    assert worker_cached(refs[0], build) == 2
    assert worker_cached(refs[0], build) == 2
    assert worker_cached(refs[0], lambda t: build(t, "b"), key=("b",)) == 2
    assert builds == ["a", "b"]


def _null_key_tables(tmp_path):
    tables = {
        "nation": {"n_nationkey": pa.array([0, 1], pa.int32()),
                   "n_name": ["N0", "N1"]},
        "customer": {"c_custkey": pa.array([1, 2, 3, None, 5], pa.int64()),
                     "c_nationkey": pa.array([0, 1, 0, 1, 0], pa.int32())},
        # NULL keys on the build side, one of them a large order
        "orders": {"o_custkey": pa.array([1, None, 3, None], pa.int64()),
                   "o_totalprice": [500000.0, 500000.0, 100.0, 600000.0]},
        "part": {"p_partkey": pa.array([1, 2, None, 4], pa.int64()),
                 "p_brand": ["X", "Y", "X", "Y"],
                 "p_size": pa.array([50, 50, 50, 50], pa.int32())},
        "lineitem": {"l_partkey": pa.array([1, None, 4, 4], pa.int64())},
    }
    for name, cols in tables.items():
        pq.write_table(pa.table(cols), str(tmp_path / f"{name}.parquet"))
    return str(tmp_path), list(tables)


@pytest.mark.parametrize("name", ["customers_without_orders",
                                  "large_parts_in_lineitem"])
def test_semi_anti_null_keys(name, tmp_path, monkeypatch, ray_session):
    """A NULL key matches nothing (SQL ``=``): NOT EXISTS keeps a NULL
    probe key, EXISTS drops it — on the broadcast plan, on the exchange
    fallback and in DuckDB alike."""
    import duckdb

    from sophia_rs_ray.functions import broadcast
    from sophia_rs_ray.pipelines import relational as R

    sf, names = _null_key_tables(tmp_path)
    fn = getattr(R, name)
    sql = {"customers_without_orders": R.CUSTOMERS_WITHOUT_ORDERS_SQL,
           "large_parts_in_lineitem": R.LARGE_PARTS_SQL}[name]
    con = duckdb.connect()
    for t in names:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    cols = [d[0] for d in con.execute(sql).description]
    want = sorted(tuple(sorted(zip(cols, r)))
                  for r in con.execute(sql).fetchall())

    got = _rows(fn(sf))
    monkeypatch.setattr(broadcast, "BROADCAST_ROWS", 0)
    assert got == want == _rows(fn(sf))
