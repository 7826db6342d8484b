"""ANN / embedding near-dup tests: IVF recall vs brute force, pair
symmetry, bucket determinism."""

import numpy as np
import pyarrow as pa
import pytest

from sophia_rs_ray.functions.ann import (
    bucket_of, cosine_near_dup, ivf_topk, projection_centroids,
)
from sophia_rs_ray.functions.knn import brute_force_topk


@pytest.fixture(scope="module")
def emb_ds(ray_session, sf_dir):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"])


def test_ivf_recall_vs_brute_force(emb_ds):
    rows = emb_ds.take_all()
    q = next(r["embedding"] for r in rows if r["vec_id"] == 0)
    exact = {r["vec_id"]
             for r in brute_force_topk(emb_ds, q, k=10, exclude_id=0).take_all()}
    approx = {r["vec_id"]
              for r in ivf_topk(emb_ds, q, k=10, n_buckets=16, n_probe=8,
                                exclude_id=0).take_all()}
    assert len(approx) == 10
    # probing half the buckets should recover most of the true top-10
    assert len(exact & approx) >= 6


def test_ivf_full_probe_equals_exact(emb_ds):
    rows = emb_ds.take_all()
    q = next(r["embedding"] for r in rows if r["vec_id"] == 0)
    exact = [r["vec_id"]
             for r in brute_force_topk(emb_ds, q, k=5, exclude_id=0).take_all()]
    full = [r["vec_id"]
            for r in ivf_topk(emb_ds, q, k=5, n_buckets=8, n_probe=8,
                              exclude_id=0).take_all()]
    assert full == exact


def test_bucket_assignment_deterministic():
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((50, 64))
    c1 = projection_centroids(64, 16)
    c2 = projection_centroids(64, 16)
    assert np.array_equal(c1, c2)
    assert np.array_equal(bucket_of(vecs, c1), bucket_of(vecs, c2))


def test_cosine_near_dup_pairs(emb_ds):
    pairs = cosine_near_dup(emb_ds, threshold=0.35).take_all()
    assert len(pairs) > 0
    for r in pairs:
        assert r["id_a"] < r["id_b"]
        assert r["sim"] >= 0.35
    # no duplicate unordered pairs
    keys = [(r["id_a"], r["id_b"]) for r in pairs]
    assert len(keys) == len(set(keys))


def test_cosine_tiles_match_duckdb_exact(emb_ds, sf_dir):
    # distributed tile pairs == exact SQL all-pairs
    import duckdb

    got = sorted((r["id_a"], r["id_b"]) for r in
                 cosine_near_dup(emb_ds, threshold=0.4).take_all())
    want = duckdb.sql(f"""
        SELECT CAST(a.vec_id AS BIGINT), CAST(b.vec_id AS BIGINT)
        FROM read_parquet('{sf_dir}/embeddings.parquet') a
        JOIN read_parquet('{sf_dir}/embeddings.parquet') b
          ON CAST(a.vec_id AS BIGINT) < CAST(b.vec_id AS BIGINT)
        WHERE list_cosine_similarity(a.embedding::DOUBLE[],
                                     b.embedding::DOUBLE[]) >= 0.4
    """).fetchall()
    assert got == sorted(want)


def test_cosine_lsh_recall(emb_ds):
    from sophia_rs_ray.functions.ann import cosine_near_dup_lsh

    exact = {(r["id_a"], r["id_b"])
             for r in cosine_near_dup(emb_ds, threshold=0.4).take_all()}
    lsh = {(r["id_a"], r["id_b"])
           for r in cosine_near_dup_lsh(emb_ds, threshold=0.4).take_all()}
    # no false positives (exact verification) and high recall
    assert lsh <= exact
    assert len(lsh) >= 0.9 * len(exact)


def test_ivf_single_bucket_layout(emb_ds, tmp_path):
    """n_buckets=1 is a one-partition exchange: every vector lands in
    bucket 0, and the indexed top-k equals brute force."""
    from sophia_rs_ray.functions.ann import ivf_topk_indexed, materialize_ivf

    out = str(tmp_path / "ivf1")
    man = materialize_ivf(emb_ds, out, n_buckets=1)
    assert man["buckets"] == {"0": emb_ds.count()}
    rows = emb_ds.take_all()
    q = next(r["embedding"] for r in rows if r["vec_id"] == 0)
    exact = [r["vec_id"]
             for r in brute_force_topk(emb_ds, q, k=5, exclude_id=0).take_all()]
    got = [r["vec_id"] for r in
           ivf_topk_indexed(out, q, k=5, n_probe=1, exclude_id=0).take_all()]
    assert got == exact


def test_ivf_empty_first_block(ray_session, tmp_path):
    """The writer, not a driver-side probe, reports the embedding width:
    an empty first block is skipped, and an all-empty input still
    raises."""
    import ray.data as rd

    from sophia_rs_ray.functions.ann import materialize_ivf

    sch = pa.schema([("vec_id", pa.int64()),
                     ("embedding", pa.list_(pa.float32()))])
    empty = sch.empty_table()
    rows = pa.table({"vec_id": [1, 2, 3],
                     "embedding": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                   [0.0, 0.0, 1.0]]}, schema=sch)
    man = materialize_ivf(rd.from_arrow([empty, rows]),
                          str(tmp_path / "ivf"), n_buckets=4)
    assert man["dim"] == 3
    assert sum(man["buckets"].values()) == 3
    with pytest.raises(ValueError, match="empty embedding dataset"):
        materialize_ivf(rd.from_arrow([empty, empty]),
                        str(tmp_path / "none"), n_buckets=4)


def test_ivf_persisted_layout_pruned_read(emb_ds, tmp_path):
    import os

    from sophia_rs_ray.functions.ann import (ivf_probe_files,
                                             ivf_topk_indexed,
                                             materialize_ivf)

    out = str(tmp_path / "ivf")
    man = materialize_ivf(emb_ds, out, n_buckets=16)
    assert sum(man["buckets"].values()) == emb_ds.count()
    rows = emb_ds.take_all()
    q = next(r["embedding"] for r in rows if r["vec_id"] == 0)
    files = ivf_probe_files(out, q, n_probe=4)
    # the probed read touches at most n_probe of the 16 bucket files
    all_files = [f for f in os.listdir(out) if f.endswith(".parquet")]
    assert 1 <= len(files) <= 4 < len(all_files)
    probed_bytes = sum(os.path.getsize(f) for f in files)
    total_bytes = sum(os.path.getsize(os.path.join(out, f))
                      for f in all_files)
    assert probed_bytes < 0.6 * total_bytes
    # resume: second call reuses the manifest (no rewrite)
    mtimes = {f: os.path.getmtime(os.path.join(out, f)) for f in all_files}
    man2 = materialize_ivf(emb_ds, out, n_buckets=16)
    assert man2 == man
    assert all(os.path.getmtime(os.path.join(out, f)) == m
               for f, m in mtimes.items())
    # results match the scan-based variant at the same probe setting
    a = [r["vec_id"] for r in
         ivf_topk_indexed(out, q, k=10, n_probe=8, exclude_id=0).take_all()]
    b = [r["vec_id"] for r in
         ivf_topk(emb_ds, q, k=10, n_buckets=16, n_probe=8,
                  exclude_id=0).take_all()]
    assert a == b


def test_knn_self_join_lsh_recall(emb_ds):
    """The LSH self-join (the >gate plan) recovers most exact top-k
    edges — the pinned plan-equivalence bound for the size gate."""
    from sophia_rs_ray.functions.ann import knn_self_join, knn_self_join_lsh

    exact = {(r["id"], r["neighbor_id"])
             for r in knn_self_join(emb_ds, k=3, batch_size=128).take_all()}
    approx = {(r["id"], r["neighbor_id"])
              for r in knn_self_join_lsh(emb_ds, k=3).take_all()}
    assert exact, "exact plan returned no edges"
    assert len(exact & approx) >= 0.8 * len(exact)


def test_exact_sim_gate_routes_to_lsh(sf_dir, monkeypatch, ray_session):
    """Above EXACT_SIM_LIMIT the registry entries route to the
    LSH plans (never O(N²) by default); below it they stay exact."""
    from sophia_rs_ray.functions.ann import cosine_near_dup
    from sophia_rs_ray.pipelines.queries import (_embedding_near_dup,
                                                 _knn_self_join)

    from sophia_rs_ray.functions import ann

    monkeypatch.setattr(ann, "EXACT_SIM_LIMIT", 1)
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    exact_pairs = {(r["id_a"], r["id_b"])
                   for r in cosine_near_dup(ds, threshold=0.4).take_all()}
    gated_pairs = {(r["id_a"], r["id_b"])
                   for r in _embedding_near_dup(sf_dir).take_all()}
    # LSH verification is exact → no false positives, recall ≥ 0.9
    assert gated_pairs <= exact_pairs
    assert len(gated_pairs) >= 0.9 * len(exact_pairs)
    gated_knn = _knn_self_join(sf_dir).take_all()
    assert gated_knn  # the LSH self-join plan ran and produced edges
    assert all(r["id"] != r["neighbor_id"] for r in gated_knn)

    monkeypatch.setattr(ann, "EXACT_SIM_LIMIT", 10_000_000)
    ungated = {(r["id_a"], r["id_b"])
               for r in _embedding_near_dup(sf_dir).take_all()}
    assert ungated == exact_pairs
