"""HyperLogLog + Count-Min sketch gates: accuracy vs exact,
overestimate law, and partitioning-invariance (the mergeable-sketch
property the 100-TB design rests on)."""

import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _write_docs(tmp_path, texts, name="documents.parquet"):
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "source": pa.array(["t"] * len(texts), pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / name))
    return str(tmp_path)


def _corpus(n_docs, vocab, seed):
    rng = random.Random(seed)
    return [" ".join(f"w{rng.randint(0, vocab - 1)}"
                     for _ in range(rng.randint(5, 60)))
            for _ in range(n_docs)]


def test_hll_estimate_tracks_exact(ray_session, tmp_path):
    """±5% on a few-thousand-distinct corpus (HLL p=12 theoretical
    standard error is 1.6%; 5% is >3σ)."""
    from sophia_rs_ray.functions.text import tokens_of
    from sophia_rs_ray.pipelines.queries import _vocab_hll

    texts = _corpus(400, 5000, seed=1)
    exact = len({t for x in texts for t in tokens_of(x)})
    sf = _write_docs(tmp_path, texts)
    row = _vocab_hll(sf).to_pylist()[0]
    assert row["m"] == 4096
    assert abs(row["est_distinct"] - exact) / exact < 0.05
    assert 0 < row["nonzero_buckets"] <= 4096


def test_hll_partitioning_invariant(ray_session):
    """The merged sketch — and therefore the estimate — is identical
    for ANY split of the corpus into batches: per-bucket MAX is
    associative/commutative and the harmonic sum is exact float64."""
    from sophia_rs_ray.functions.sketches import (hll_estimate,
                                                  hll_partial_batch)

    texts = _corpus(300, 3000, seed=2)

    def merged_est(chunks):
        best = {}
        for chunk in chunks:
            t = pa.table({
                "doc_id": pa.array(range(len(chunk)), pa.int64()),
                "text": pa.array(chunk, pa.string())})
            p = hll_partial_batch(t)
            for b, r in zip(p["bucket"].to_pylist(),
                            p["maxrank"].to_pylist()):
                best[b] = max(best.get(b, 0), r)
        return hll_estimate(np.array(list(best), np.int64),
                            np.array(list(best.values()), np.int64))

    one = merged_est([texts])
    many = merged_est([texts[i:i + 7] for i in range(0, len(texts), 7)])
    shuffled = list(texts)
    random.Random(3).shuffle(shuffled)
    other = merged_est([shuffled[i::5] for i in range(5)])
    assert one == many == other


def test_cms_overestimate_law(ray_session, tmp_path):
    """CMS never underestimates: c_cms >= c_exact for every reported
    token, and the exact top-k candidates match a brute count."""
    from collections import Counter

    from sophia_rs_ray.functions.sketches import CMS_TOP_K
    from sophia_rs_ray.functions.text import tokens_of
    from sophia_rs_ray.pipelines.queries import _heavy_hitters

    texts = _corpus(300, 200, seed=4)          # heavy collisions at w=1024
    sf = _write_docs(tmp_path, texts)
    rows = _heavy_hitters(sf).to_pylist()
    assert len(rows) == CMS_TOP_K
    cnt = Counter(t for x in texts for t in tokens_of(x))
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:CMS_TOP_K]
    assert [(r["tok"], r["c_exact"]) for r in rows] == want
    for r in rows:
        assert r["c_cms"] >= r["c_exact"], r


def test_cms_lookup_matches_reference(ray_session):
    """cms_cells over token_freq_batch's exact counts + cms_lookup
    reproduce a brute per-cell reference (hashlib) for every token,
    including unseen tokens → 0 or collision floor; the cells of a
    token split are the per-cell sums of its parts' cells."""
    import hashlib
    from collections import Counter

    from sophia_rs_ray.functions.sketches import (CMS_D, CMS_W,
                                                  cms_cells,
                                                  cms_lookup)
    from sophia_rs_ray.functions.text import token_freq_batch, tokens_of

    def as_dict(p):
        return {(r, c): v for r, c, v in zip(p["row"].to_pylist(),
                                             p["cell"].to_pylist(),
                                             p["c"].to_pylist())}

    texts = _corpus(50, 80, seed=5)
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    counts = token_freq_batch(t)
    cells = as_dict(cms_cells(counts))
    cnt = Counter(tok for x in texts for tok in tokens_of(x))
    ref_cells: dict = {}
    for tok, c in cnt.items():
        for row in range(CMS_D):
            h = int(hashlib.md5(f"{row}:{tok}".encode())
                    .hexdigest()[:8], 16)
            key = (row, h % CMS_W)
            ref_cells[key] = ref_cells.get(key, 0) + c
    assert cells == ref_cells
    for tok, c in list(cnt.items())[:50]:
        est = cms_lookup(cells, tok)
        assert est >= c
    assert cms_lookup(cells, "never-seen-token-xyzzy") >= 0
    # mergeable: disjoint token parts sum per cell to the whole
    merged: dict = {}
    for part in (counts.slice(0, 7), counts.slice(7)):
        for k, v in as_dict(cms_cells(part)).items():
            merged[k] = merged.get(k, 0) + v
    assert merged == ref_cells
    assert cms_cells(counts.slice(0, 0)).num_rows == 0


def test_sketches_empty_corpus_matches_oracle(ray_session, tmp_path):
    """All-empty corpus: HLL estimates 0 distinct (linear counting with
    every bucket zero) and CMS reports no heavy hitters — Ray and the
    DuckDB oracle agree including the sum()-over-nothing NULL trap."""
    import duckdb

    from sophia_rs_ray.pipelines.queries import registry

    sf = _write_docs(tmp_path, ["", "", "   "])
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    reg = registry()
    for name in ("vocab_hll", "heavy_hitters_cms"):
        fn, sql = reg[name]
        r = fn(sf)
        mine = (r.to_pandas() if hasattr(r, "to_pandas") else r)
        want = con.execute(sql).df()
        mine = mine[sorted(mine.columns)]
        want = want[sorted(want.columns)]
        assert len(mine) == len(want), name
        assert mine.astype(str).values.tolist() == \
            want.astype(str).values.tolist(), name
