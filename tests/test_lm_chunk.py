"""Round-5 operators: bigram-LM scoring + document chunking.

Brute-force references over adversarial corpora (empty/1-token docs,
hub tokens, within-doc repeats) — shapes the sf0.01 oracle corpus never
exercises.  tests/test_broadcast.py runs the broadcast↔exchange plan
equivalence over the same corpora."""

import math

import pyarrow as pa
import pyarrow.parquet as pq


def _write_docs(tmp_path, texts):
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "source": pa.array(["t"] * len(texts), pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    return str(tmp_path)


def _brute_lm(texts):
    """Python reference: add-one-smoothed bigram LM trained on the
    corpus, mean log2 prob per doc (None when a doc has no bigrams)."""
    from collections import Counter

    from sophia_rs_ray.functions.text import tokens_of

    bgc, w1c, vocab = Counter(), Counter(), set()
    per_doc = []
    for t in texts:
        tk = tokens_of(t or "")
        vocab.update(tk)
        bgs = [(tk[i], tk[i + 1]) for i in range(len(tk) - 1)]
        per_doc.append(bgs)
        bgc.update(bgs)
        w1c.update(w1 for w1, _ in bgs)
    v = len(vocab)
    out = []
    for doc_id, bgs in enumerate(per_doc):
        if not bgs:
            out.append((doc_id, None, 0))
            continue
        lps = [math.log2((bgc[bg] + 1.0) / (w1c[bg[0]] + v))
               for bg in bgs]
        out.append((doc_id, round(sum(lps) / len(lps), 4), len(bgs)))
    return out


CORPUS = [
    "the cat sat on the mat",
    "the cat sat",              # shared prefix bigrams (hub 'the'/'cat')
    "the the the the",          # within-doc bigram repeats, hub w1
    "solo",                     # 1 token → no bigrams
    "",                         # empty → no bigrams
    "zebra quark zebra quark zebra",   # rare tokens, repeats
    "on the mat the cat",       # same bigrams, different doc order
]


def test_lm_score_matches_brute_force(ray_session, tmp_path):
    from sophia_rs_ray.pipelines.queries import _lm_score

    sf = _write_docs(tmp_path, CORPUS)
    got = sorted(
        (r["doc_id"],
         None if r["lm_logprob"] is None else round(r["lm_logprob"], 4),
         r["n_bigrams"])
        for r in _lm_score(sf).take_all())
    assert got == _brute_lm(CORPUS)
    # corpus must exercise both no-bigram shapes and a repeated bigram
    assert got[3][1] is None and got[4][1] is None
    assert got[2][2] == 3


def _brute_chunks(texts, w, s):
    out = []
    for doc_id, t in enumerate(texts):
        t = t or ""
        n = len(t)
        nc = (max(n - w, 0) + s - 1) // s + 1
        for i in range(nc):
            out.append((doc_id, i, t[i * s:i * s + w]))
    return sorted(out)


def test_chunk_docs_matches_brute_force(ray_session, tmp_path):
    from sophia_rs_ray.functions.text import CHUNK_S, CHUNK_W
    from sophia_rs_ray.pipelines.queries import _chunk_docs

    w, s = CHUNK_W, CHUNK_S
    # lengths straddling every boundary: 0, 1, W-1, W, W+1, W+S,
    # W+S+1, 3W (multi-chunk), plus a non-ASCII char-vs-byte probe
    texts = ["x" * n for n in (0, 1, w - 1, w, w + 1, w + s,
                               w + s + 1, 3 * w)]
    texts.append("é" * (w + 7))
    sf = _write_docs(tmp_path, texts)
    got = sorted((r["doc_id"], r["chunk_id"], r["chunk"])
                 for r in _chunk_docs(sf).take_all())
    assert got == _brute_chunks(texts, w, s)


def test_chunk_docs_covers_every_char(ray_session, tmp_path):
    """Reassembly invariant: chunk i's first CHUNK_S chars concatenated
    with the final chunk reconstructs the document exactly — no char is
    lost at any boundary."""
    from sophia_rs_ray.functions.text import CHUNK_S
    from sophia_rs_ray.pipelines.queries import _chunk_docs

    texts = ["".join(chr(97 + (i % 26)) for i in range(n))
             for n in (0, 17, 199, 200, 201, 350, 351, 1000)]
    sf = _write_docs(tmp_path, texts)
    per_doc = {}
    for r in _chunk_docs(sf).take_all():
        per_doc.setdefault(r["doc_id"], {})[r["chunk_id"]] = r["chunk"]
    for doc_id, chunks in per_doc.items():
        ids = sorted(chunks)
        assert ids == list(range(len(ids)))
        rebuilt = "".join(chunks[i][:CHUNK_S] for i in ids[:-1])
        rebuilt += chunks[ids[-1]]
        assert rebuilt == texts[doc_id]


def _brute_dsir(texts, langs):
    """Python reference: add-one-smoothed target-vs-general unigram
    log2 likelihood ratio, per-occurrence mean per doc."""
    from collections import Counter

    from sophia_rs_ray.functions.text import DSIR_TARGET_LANG, tokens_of

    c_all, c_tgt = Counter(), Counter()
    per_doc = []
    for t, lg in zip(texts, langs):
        tk = tokens_of(t or "")
        per_doc.append(tk)
        c_all.update(tk)
        if lg == DSIR_TARGET_LANG:
            c_tgt.update(tk)
    v = len(c_all)
    at = sum(c_all.values())
    tt = sum(c_tgt.values())
    out = []
    for doc_id, tk in enumerate(per_doc):
        if not tk:
            out.append((doc_id, None, 0))
            continue
        lrs = [math.log2((c_tgt[t] + 1.0) / (tt + v))
               - math.log2((c_all[t] + 1.0) / (at + v)) for t in tk]
        out.append((doc_id, round(sum(lrs) / len(lrs), 4), len(tk)))
    return out


DSIR_LANGS = ["en", "fr", "en", "de", "en", "fr", "en"]


def _write_docs_langs(tmp_path, texts, langs):
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array(["t"] * len(texts), pa.string()),
    })
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    return str(tmp_path)


def test_dsir_weights_matches_brute_force(ray_session, tmp_path):
    from sophia_rs_ray.pipelines.queries import _dsir_weights

    sf = _write_docs_langs(tmp_path, CORPUS, DSIR_LANGS)
    got = sorted(
        (r["doc_id"],
         None if r["dsir_weight"] is None else round(r["dsir_weight"], 4),
         r["n_tokens"])
        for r in _dsir_weights(sf).take_all())
    want = _brute_dsir(CORPUS, DSIR_LANGS)
    assert got == want
    # target-slice docs must score higher on average than the rest
    # (the selection property DSIR exists for)
    tgt = [w for (d, w, n), lg in zip(got, DSIR_LANGS)
           if w is not None and lg == "en"]
    oth = [w for (d, w, n), lg in zip(got, DSIR_LANGS)
           if w is not None and lg != "en"]
    assert sum(tgt) / len(tgt) > sum(oth) / len(oth)


def test_clean_corpus_composition(ray_session, tmp_path):
    """Crafted corpus: the composed pipeline must (a) drop the
    low-quality docs the Gopher filter drops, (b) redact PII in the
    survivors, (c) collapse exact post-redaction duplicates to the
    min doc_id with multiplicity — including docs that become equal
    ONLY AFTER redaction."""
    from sophia_rs_ray.pipelines.queries import _clean_corpus

    good = ("the quick brown fox jumps over the lazy dog and then "
            "runs far away to the green hills beyond the river where "
            "many other animals live happily together under warm sun "
            "light every single afternoon without any worry at all")
    texts = [
        good,                                      # 0 survives
        good,                                      # 1 exact dup of 0
        good.replace("fox", "cat"),                # 2 distinct survivor
        "spam " * 60,                              # 3 repetition-killed
        "x",                                       # 4 too short
        good + " contact me at alice@example.com today please",   # 5
        good + " contact me at bob@example.org today please",     # 6
    ]
    sf = _write_docs(tmp_path, texts)
    rows = {r["doc_id"]: r for r in _clean_corpus(sf).take_all()}
    # 0/1 collapse to 0; 3 (repetition) and 4 (length) are filtered;
    # 5/6 differ ONLY by email address so they become byte-identical
    # after redaction and collapse to min doc_id 5 — the
    # post-redaction-duplicate case the composition order exists for
    assert set(rows) == {0, 2, 5}
    assert rows[0]["n_dups"] == 2
    assert rows[2]["n_dups"] == 1
    assert rows[5]["n_dups"] == 2
    assert "[EMAIL]" in rows[5]["text_clean"]
    assert "alice" not in rows[5]["text_clean"]
