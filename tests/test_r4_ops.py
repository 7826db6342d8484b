"""Round-4 operators: benchmark decontamination and sequence packing.

The DuckDB oracle equivalence itself rides the generic gate in
tests/test_queries_oracle.py (both entries are SQL-backed registry
rows) and the broadcast/fallback plan equivalence rides
tests/test_broadcast.py; this file pins the threshold-straddling
properties the generic gate cannot see.
"""

import pyarrow as pa
import pytest


def test_decontaminate_threshold_straddled(sf_dir, ray_session):
    """Contamination counts must be non-trivial at the test tier:
    some docs contaminated AND some clean — otherwise the oracle could
    not catch a broken join — and every non-benchmark doc appears."""
    from sophia_rs_ray.pipelines.queries import (
        DECONTAM_BENCH_MAX_ID, _decontaminate)
    import ray.data as rd

    counts = {r["doc_id"]: r["n_contaminated"]
              for r in _decontaminate(sf_dir).take_all()}
    assert all(d >= DECONTAM_BENCH_MAX_ID for d in counts)
    n_docs = rd.read_parquet(f"{sf_dir}/documents.parquet").count()
    assert len(counts) == n_docs - DECONTAM_BENCH_MAX_ID
    assert any(v > 0 for v in counts.values())
    assert any(v == 0 for v in counts.values())


def test_pack_sequences_invariants(sf_dir, ray_session):
    """Packing must straddle bin boundaries at the test tier (seq_id
    not all zero) and obey the concat-and-chunk law: within a source,
    seq_id is non-decreasing in doc_id and equals the exclusive
    running-sum // budget."""
    from sophia_rs_ray.pipelines.queries import (
        SEQ_PACK_BUDGET, _pack_sequences)

    rows = sorted(((r["source"], r["doc_id"], r["n_tokens"], r["seq_id"])
                   for r in _pack_sequences(sf_dir).take_all()))
    assert rows and max(r[3] for r in rows) >= 1
    cum = {}
    for source, _doc, n_tok, seq in rows:
        start = cum.get(source, 0)
        assert seq == start // SEQ_PACK_BUDGET
        cum[source] = start + n_tok


def test_semdedup_straddles_and_clusters(sf_dir, ray_session):
    """SemDeDup output must be non-trivial at the test tier: every
    non-null vector appears exactly once, more than one cluster is
    used, and both dup and non-dup rows exist (a threshold the corpus
    never crosses could not catch a broken verify stage)."""
    import ray.data as rd

    from sophia_rs_ray.pipelines.queries import _semdedup_docs

    rows = {r["vec_id"]: (r["cluster"], r["is_dup"])
            for r in _semdedup_docs(sf_dir).take_all()}
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    n_valid = emb.filter(lambda r: r["embedding"] is not None).count()
    assert len(rows) == n_valid
    assert len({c for c, _ in rows.values()}) > 1
    dups = [d for _, d in rows.values()]
    assert 0 in dups and 1 in dups


def test_source_mixture_hits_target_proportions(sf_dir, ray_session):
    """The mixture must keep the bottleneck source in full and land
    every other source within sampling noise of its target weight
    ratio (the exact keep set is pinned by the DuckDB oracle; this
    asserts the SEMANTICS — proportions — hold)."""
    import hashlib

    import ray.data as rd

    from sophia_rs_ray.pipelines.queries import _source_mixture

    kept: dict = {}
    for r in _source_mixture(sf_dir).take_all():
        kept[r["source"]] = kept.get(r["source"], 0) + 1
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source"]).take_all()
    total: dict = {}
    for r in docs:
        total[r["source"]] = total.get(r["source"], 0) + 1

    def w_of(s):
        return int(hashlib.md5(s.encode()).hexdigest()[:8], 16) % 5 + 1

    star = min(total, key=lambda s: (total[s] * (60 // w_of(s)), s))
    assert kept[star] == total[star]          # bottleneck fully kept
    assert any(kept.get(s, 0) < total[s] for s in total if s != star) \
        or len(total) == 1                    # someone is down-sampled
    base = kept[star] / w_of(star)
    for s in total:
        # md5 keep decisions are Bernoulli: allow generous noise at
        # the small test tier, but the RATIO must track the weights
        expect = base * w_of(s)
        assert abs(kept.get(s, 0) - expect) <= max(10, 0.25 * expect), \
            (s, kept.get(s, 0), expect)


def test_shingle_kernel_matches_python_reference():
    from sophia_rs_ray.functions.text import (
        SHINGLE_K, ngram_batch, tokens_of)

    texts = ["a b c d e f g h i j", None, "", "one two", "x " * 40,
             "t u v w x y z a b c",      # NBSP is NOT RE2 \s
             " lead \t tab\nnl " + "w " * 9]
    b = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    sh = ngram_batch(b, SHINGLE_K, "sh", distinct=True)
    got = sorted(zip(*(sh[c].to_pylist()
                       for c in ("doc_id", "sh"))))
    want = sorted(
        (i, " ".join(tk[j:j + SHINGLE_K]))
        for i, t in enumerate(texts)
        for tk in [tokens_of(t or "")]
        for j in range(len(tk) - SHINGLE_K + 1))
    want = sorted(set(want))
    assert got == want
