"""Curation operators over a documents table split into several
Parquet files, so every exchange merges partials from several blocks:
each result must equal its DuckDB oracle — NULL, '', whitespace-only
and vertical-tab / NBSP texts included, and NULL languages for DSIR.
Plus the dedup kernel's NULL-vs-'' grouping, which the Gopher filter
keeps out of the end-to-end results."""

import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

WORDS = ("the of and to in is that it for on with as at by data model "
         "graph node edge query text token corpus filter crawl page "
         "triple store index shard merge").split()

OPS = ("clean_corpus", "quality_filter", "heavy_hitters_cms",
       "vocab_top_terms", "tfidf_top_terms", "token_counts",
       "novel_bigrams", "decontaminate_docs", "segment_dedup",
       "dup_span_docs", "lm_score", "dsir_weights", "vocab_hll",
       "ngram_jaccard", "dedup_exact_docs")

#: ``lang`` cycles through these (DSIR's target is "en"; NULL included)
LANGS = ("en", "de", None, "en", "fr")

N_FILES = 3


def _texts(seed: int):
    """Good documents, exact duplicates, documents equal only after PII
    redaction, and the shapes the Gopher filter drops (NULL, '',
    whitespace, too short, repetitive, mostly digits) — shuffled, so
    every kind spreads over the files."""
    rng = random.Random(seed)
    base = [" ".join(rng.choice(WORDS) for _ in range(rng.randint(40, 90)))
            for _ in range(60)]
    texts = list(base) + base[:15]
    for b in base[15:25]:
        texts += [b + " mail alice@example.com today",
                  b + " mail bob@example.org today"]
    for b in base[25:30]:
        texts += [b + " call 5551234567", b + " call 5559876543"]
    texts += [None, None, "", "", "   ", "too short", "spam " * 60,
              " ".join(str(i) for i in range(80))]
    # \v and NBSP are token characters under RE2's \s, not breaks
    texts += [base[0].replace(" ", "\v", 3),
              base[1].replace(" ", "\u00a0", 3)]
    rng.shuffle(texts)
    return texts


@pytest.fixture(scope="module")
def split_docs(tmp_path_factory, ray_session):
    import duckdb
    import ray.data as rd

    texts = _texts(seed=11)
    root = tmp_path_factory.mktemp("curation")
    path = root / "documents.parquet"          # a directory of files
    path.mkdir()
    step = -(-len(texts) // N_FILES)
    for f in range(N_FILES):
        lo = f * step
        part = texts[lo:lo + step]
        pq.write_table(pa.table({
            "doc_id": pa.array(range(lo, lo + len(part)), pa.int64()),
            "text": pa.array(part, pa.string()),
            "source": pa.array(["t"] * len(part), pa.string()),
            "lang": pa.array([LANGS[i % len(LANGS)]
                              for i in range(lo, lo + len(part))],
                             pa.string()),
        }), str(path / f"part-{f}.parquet"))
    assert rd.read_parquet(str(path)).materialize().num_blocks() >= N_FILES
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{path}/*.parquet')")
    return str(root), con


def _rows(t: pa.Table):
    names = sorted(t.column_names)
    return names, sorted(repr(r) for r in zip(
        *[t[c].to_pylist() for c in names]))


@pytest.mark.parametrize("op", OPS)
def test_curation_op_matches_oracle_over_files(op, split_docs):
    from sophia_rs_ray.pipelines.queries import registry

    sf, con = split_docs
    fn, sql = registry()[op]
    res = fn(sf)
    got = res if isinstance(res, pa.Table) else \
        pa.Table.from_pylist(res.take_all())
    want = con.execute(sql).arrow()
    assert got.num_rows > 0
    assert _rows(got) == _rows(want)


def test_clean_corpus_merges_across_files(split_docs):
    """The corpus really has cross-block duplicates for the exchange to
    merge: some surviving texts are counted more than once."""
    from sophia_rs_ray.pipelines.queries import registry

    sf, _ = split_docs
    rows = registry()["clean_corpus"][0](sf).take_all()
    assert max(r["n_dups"] for r in rows) >= 2
    assert any("[EMAIL]" in r["text_clean"] for r in rows)


def test_text_groups_keeps_null_apart_from_empty(ray_session):
    """NULL and '' are different groups in clean_corpus's dedup kernel,
    alone and through the content-keyed exchange (as SQL GROUP BY)."""
    import duckdb
    import ray.data as rd

    from sophia_rs_ray.functions.exchange import hash_aggregate
    from sophia_rs_ray.pipelines.queries import _text_groups

    t = pa.table({"doc_id": pa.array([4, 1, 3, 2, 5], pa.int64()),
                  "text_clean": pa.array([None, "", None, "", "x"],
                                         pa.string()),
                  "n_dups": pa.array([1] * 5, pa.int64())})
    g = _text_groups(t)
    got = sorted(zip(g["text_clean"].to_pylist(), g["doc_id"].to_pylist(),
                     g["n_dups"].to_pylist()), key=repr)
    assert got == sorted([(None, 3, 2), ("", 1, 2), ("x", 5, 1)], key=repr)

    ds = rd.from_arrow([t.slice(0, 2), t.slice(2)])
    ex = hash_aggregate(ds, ["text_clean"], _text_groups, _text_groups)
    ex_rows = sorted(((r["text_clean"], r["doc_id"], r["n_dups"])
                      for r in ex.take_all()), key=repr)
    want = duckdb.sql(
        "SELECT text_clean, min(doc_id), count(*) FROM t "
        "GROUP BY text_clean").fetchall()
    assert ex_rows == got == sorted(want, key=repr)


@pytest.mark.parametrize("sep", ["\v", "\u00a0"], ids=["vt", "nbsp"])
def test_ngram_jaccard_token_chars_match_oracle(sep, tmp_path, ray_session):
    """A vertical tab or NBSP joins two words into one token, in the
    kernel as in the oracle (RE2's \\s excludes both): the two texts
    share no 3-gram, so their Jaccard is 0.0, not 1.0."""
    import duckdb

    from sophia_rs_ray.pipelines.queries import registry

    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": [f"one two three{sep}four five", "one two three four five"],
    }), str(tmp_path / "documents.parquet"))
    fn, sql = registry()["ngram_jaccard"]
    got = pa.Table.from_pylist(fn(str(tmp_path)).take_all())
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    assert _rows(got) == _rows(con.execute(sql).arrow())
    assert got["jac"].to_pylist() == [0.0]
