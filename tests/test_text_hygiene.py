"""Unit tests for the text-hygiene kernels: normalization, PII
redaction, bigram-rarity map side.  The testdata corpus contains no
PII, so the redaction behavior is exercised here on synthetic strings
(the registry oracle still proves Ray/DuckDB RE2 parity end-to-end)."""

import pyarrow as pa

from sophia_rs_ray.functions.text import (ngram_batch,
                                          normalize_batch,
                                          pii_redact_batch)


def _docs(texts):
    return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts, pa.string())})


def test_normalize_nfc_lower_collapse_trim():
    # e + combining acute (NFD) must fold to the precomposed NFC char
    out = normalize_batch(_docs(["  He\u0301llo \t\n WORLD  ", ""]))
    assert out["norm_text"].to_pylist() == ["h\u00e9llo world", ""]
    assert out["n_chars_norm"].to_pylist() == [11, 0]


def test_pii_redact_all_categories():
    out = pii_redact_batch(_docs([
        "mail bob.smith+x@example.co.uk or admin@ex.org today",
        "host 192.168.001.042 port",
        "card 4111111111111111 and code 1234567",
        "clean text, short num 123456 kept, ip-ish 1.2.3 kept",
    ]))
    red = out["redacted"].to_pylist()
    assert red[0] == "mail [EMAIL] or [EMAIL] today"
    assert red[1] == "host [IP] port"
    assert red[2] == "card [NUM] and code [NUM]"
    assert red[3] == "clean text, short num 123456 kept, ip-ish 1.2.3 kept"
    assert out["n_email"].to_pylist() == [2, 0, 0, 0]
    assert out["n_ip"].to_pylist() == [0, 1, 0, 0]
    assert out["n_num"].to_pylist() == [0, 0, 2, 0]


def test_pii_counts_on_original_text():
    # the email swallows its own digit run; the count is still taken
    # on the ORIGINAL text (order-independent counts, sequential scrub)
    out = pii_redact_batch(_docs(["user12345678@ex.com"]))
    assert out["redacted"].to_pylist() == ["[EMAIL]"]
    assert out["n_email"].to_pylist() == [1]
    assert out["n_num"].to_pylist() == [1]


def test_bigram_pairs_distinct_per_doc():
    out = ngram_batch(_docs(["a b a b c", "x", ""]), 2, "bigram",
                      distinct=True)
    got = sorted(zip(out["doc_id"].to_pylist(),
                     out["bigram"].to_pylist()))
    assert got == [(0, "a b"), (0, "b a"), (0, "b c")]


def test_segments_batch_windows_and_totals():
    import pyarrow as pa

    from sophia_rs_ray.functions.text import (doc_segment_totals_batch,
                                              segments_batch)

    b = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(
                      ["w0 w1 w2 w3 w4 w5 w6 w7 w8 w9 tail one",
                       "short doc", ""], pa.large_string())})
    segs = segments_batch(b)
    got = list(zip(segs["doc_id"].to_pylist(), segs["seg_idx"].to_pylist(),
                   segs["seg"].to_pylist()))
    assert got == [(0, 0, "w0 w1 w2 w3 w4 w5 w6 w7 w8 w9"),
                   (0, 1, "tail one"), (1, 0, "short doc")]
    tot = doc_segment_totals_batch(b)
    assert tot["n_segments"].to_pylist() == [2, 1, 0]


def test_segment_dedup_hub_cap_equivalence(ray_session, tmp_path):
    """A segment duplicated 1000× within one block must behave exactly
    like one duplicated twice: every copy dropped, and the map-side cap
    keeps the exchange payload at ≤2 rows per block for the hub."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sophia_rs_ray.pipelines.queries import (_segment_dedup,
                                                 SEGMENT_DEDUP_SQL)

    hub = " ".join(f"h{i}" for i in range(10))
    uniq = [" ".join(f"u{d}w{i}" for i in range(10)) for d in range(4)]
    texts = [f"{hub} {uniq[d]}" for d in range(4)]
    # 1000 hub-only docs: every segment corpus-duplicated
    texts += [hub] * 1000
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.large_string()),
                  "lang": pa.array(["en"] * len(texts)),
                  "source": pa.array(["s"] * len(texts)),
                  "n_chars": pa.array([len(x) for x in texts], pa.int64())})
    pq.write_table(t, tmp_path / "documents.parquet")

    out = _segment_dedup(str(tmp_path))
    got = sorted((r["doc_id"], r["clean_text"], r["n_segments"],
                  r["n_dup_segments"]) for r in out.take_all())

    con = duckdb.connect()
    con.register("documents", t)
    want = sorted(map(tuple, con.execute(SEGMENT_DEDUP_SQL).fetchall()))
    assert got == want
    # spot semantics: hub segment gone everywhere, unique tails kept
    assert got[0] == (0, uniq[0], 2, 1)
    assert got[5] == (5, "", 1, 1)
