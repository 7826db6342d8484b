"""Differential gates: the vectorized text kernels (pyarrow RE2 /
polars list kernels) must agree ROW-FOR-ROW with the original per-row
Python forms they replaced (VERDICT r03 item 6), and the one token
path (tokenizer, n-gram builder, token count, and the kernels built on
them) with ``tokens_of``.

The reference implementations here are the pre-vectorization bodies,
kept verbatim (Counter / tokens_of loops).  Corpora include the traps
from earlier rounds: exotic whitespace (RE2's \\s is exactly
[ \\t\\n\\f\\r] — \\v and U+00A0 are TOKEN chars), nulls, empties,
unicode, and hot-repetition docs.
"""
import hashlib
from collections import Counter

import pyarrow as pa
import pytest

from sophia_rs_ray.functions.sketches import HLL_RANK_BITS, hll_partial_batch
from sophia_rs_ray.functions.text import (SEGMENT_TOKENS, SHINGLE_K,
                                          _LANG_PROFILES, _WORD,
                                          doc_segment_totals_batch,
                                          lang_id_batch, lm_train_batch,
                                          n_tokens, ngram_batch,
                                          quality_batch, repetition_batch,
                                          segments_batch, token_count_batch,
                                          token_freq_batch, token_lists,
                                          tokens_of)

CORPUS = [
    "the cat sat on the mat",
    "",
    None,
    "   ",
    "a\tb\nc\fd\re",                        # all 5 RE2 whitespace chars
    "x\vy",                                  # \v is NOT RE2 \s: one token
    "café café naïve",        # unicode letters
    "a b",                              # NBSP is NOT RE2 \s: one token
    "spam spam spam spam spam",              # hot token
    "ab ab ab ab cd cd",                     # hot bigram
    "le la les de des du et un une est",     # french stopwords
    "der die das und ist von zu mit",        # german stopwords
    "one two three four five six seven eight nine ten eleven twelve",
    "t1 t2 t3 t4 t5 t6 t7 t8 t9 t10 t11 t12 t13 t14 t15 t16 t17 t18 t19",
    "don't isn't o'clock",                   # apostrophe words
    "The OF And TO a IN",                    # case for lang-id
    "😀 😀 emoji 😀 tokens",
    "x" * 3000 + " tail",                    # >2000-char lang-id slice
    # SHINGLE_K-wide windows across \v / NBSP (token chars, not breaks)
    "one two three\vfour five six seven eight nine ten",
    "one two three\u00a0four five six seven eight nine ten",
    "\t one two three four five six seven eight nine ten \n",
]


def _docs(texts):
    return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts, pa.large_string())})


B = _docs(CORPUS)


# --- reference (pre-vectorization) bodies, verbatim ---------------------

def _ref_token_count(b):
    texts = b["text"].to_pylist()
    return [len(tokens_of(t or "")) for t in texts]


def _ref_quality(b):
    texts = [t or "" for t in b["text"].to_pylist()]
    rows = []
    for t in texts:
        ts = tokens_of(t)
        rows.append((len(t), len(ts), sum(len(w) for w in ts),
                     sum(("a" <= c <= "z") or ("A" <= c <= "Z")
                         for c in t)))
    return rows


def _ref_repetition(b):
    rows = []
    for t in [t or "" for t in b["text"].to_pylist()]:
        ts = tokens_of(t)
        c1 = Counter(ts)
        c2 = Counter(f"{a} {bb}" for a, bb in zip(ts, ts[1:]))
        rows.append((len(ts), len(c1),
                     max(c1.values()) if c1 else 0,
                     max(c2.values()) if c2 else 0))
    return rows


def _ref_lang_id(b):
    rows = []
    for t in [t or "" for t in b["text"].to_pylist()]:
        words = set(w.lower() for w in _WORD.findall(t[:2000]))
        best_lang, best = "und", 0.0
        for lang in sorted(_LANG_PROFILES):
            prof = _LANG_PROFILES[lang]
            hit = len(words & prof) / len(prof)
            if hit > best:
                best_lang, best = lang, hit
        rows.append((best_lang, round(best, 4)))
    return rows


def _ref_bigram_pairs(b):
    pairs = set()
    for doc_id, text in zip(b["doc_id"].to_pylist(),
                            b["text"].to_pylist()):
        toks = tokens_of(text or "")
        for i in range(len(toks) - 1):
            pairs.add((doc_id, toks[i] + " " + toks[i + 1]))
    return pairs


def _ref_ngrams(b, n):
    """(doc_id, pos, n-gram) per occurrence, in document order."""
    rows = []
    for doc_id, text in zip(b["doc_id"].to_pylist(),
                            b["text"].to_pylist()):
        ts = tokens_of(text or "")
        rows += [(doc_id, i, " ".join(ts[i:i + n]))
                 for i in range(len(ts) - n + 1)]
    return rows


def _ref_hll_partial(b):
    """bucket → max rank over the batch's distinct tokens (hashlib)."""
    best = {}
    for tok in {t for x in b["text"].to_pylist() for t in tokens_of(x or "")}:
        h = int(hashlib.md5(tok.encode()).hexdigest()[:8], 16)
        w = h & ((1 << HLL_RANK_BITS) - 1)
        bucket = h >> HLL_RANK_BITS
        best[bucket] = max(best.get(bucket, 0),
                           HLL_RANK_BITS - w.bit_length() + 1)
    return best


def _cols(t, *names):
    return list(zip(*(t[c].to_pylist() for c in names)))


def _check_token_path(b):
    """Tokenizer, n-gram builder (n ∈ {1, 2, SHINGLE_K}; per
    occurrence, per-document distinct, with positions), token count
    and the token kernels built on them, against ``tokens_of``."""
    texts = b["text"].to_pylist()
    toks = [tokens_of(t or "") for t in texts]
    lists = token_lists(b)
    assert lists["tok"].to_list() == toks
    assert lists["doc_id"].to_list() == b["doc_id"].to_pylist()
    assert n_tokens(b).to_pylist() == [len(ts) for ts in toks]
    for n in (1, 2, SHINGLE_K):
        ref = _ref_ngrams(b, n)
        occ = ngram_batch(b, n, "g")
        assert sorted(_cols(occ, "doc_id", "g")) == \
            sorted((d, g) for d, _, g in ref)
        dist = ngram_batch(b, n, "g", distinct=True)
        assert sorted(_cols(dist, "doc_id", "g")) == \
            sorted({(d, g) for d, _, g in ref})
        pos = ngram_batch(b, n, "g", positions=True)
        assert _cols(pos, "doc_id", "pos", "g") == ref
        assert pos.schema.names == ["doc_id", "pos", "g"]
        assert pos.schema.types == [b["doc_id"].type, pa.int64(),
                                    pa.string()]
    every = Counter(t for ts in toks for t in ts)
    freq = token_freq_batch(b)
    assert dict(_cols(freq, "tok", "c")) == dict(every)
    assert freq.schema.types == [pa.string(), pa.int64()]
    lm = lm_train_batch(b)
    bigrams = Counter(g for _, _, g in _ref_ngrams(b, 2))
    assert sorted(_cols(lm, "key", "c", "is_tok")) == sorted(
        [(g, c, False) for g, c in bigrams.items()]
        + [(t, 1, True) for t in every])
    assert lm.schema.types == [pa.string(), pa.int64(), pa.bool_()]
    hll = hll_partial_batch(b)
    assert dict(_cols(hll, "bucket", "maxrank")) == _ref_hll_partial(b)


def _ref_segments(b):
    rows = []
    for doc_id, text in zip(b["doc_id"].to_pylist(),
                            b["text"].to_pylist()):
        toks = tokens_of(text or "")
        n = (len(toks) + SEGMENT_TOKENS - 1) // SEGMENT_TOKENS
        for i in range(n):
            rows.append((doc_id, i, " ".join(
                toks[i * SEGMENT_TOKENS:(i + 1) * SEGMENT_TOKENS])))
    return rows


# --- gates ---------------------------------------------------------------

def test_token_count_matches_python():
    out = token_count_batch(B)
    assert out["n_tokens"].to_pylist() == _ref_token_count(B)
    assert out["n_tokens"].type == pa.int64()


def test_quality_matches_python():
    out = quality_batch(B)
    got = list(zip(out["n_chars"].to_pylist(),
                   out["n_tokens"].to_pylist(),
                   out["token_chars"].to_pylist(),
                   out["alpha_chars"].to_pylist()))
    assert got == _ref_quality(B)
    for c in ("n_chars", "n_tokens", "token_chars", "alpha_chars"):
        assert out[c].type == pa.int64()


def test_repetition_matches_python():
    out = repetition_batch(B)
    got = list(zip(out["n_tokens"].to_pylist(),
                   out["n_distinct"].to_pylist(),
                   out["top_token_count"].to_pylist(),
                   out["top_bigram_count"].to_pylist()))
    assert got == _ref_repetition(B)
    assert out["doc_id"].type == B["doc_id"].type


def test_lang_id_matches_python():
    out = lang_id_batch(B)
    got = list(zip(out["pred_lang"].to_pylist(),
                   out["score"].to_pylist()))
    assert got == _ref_lang_id(B)


def test_token_path_matches_tokens_of():
    _check_token_path(B)


def test_bigram_pairs_match_python():
    out = ngram_batch(B, 2, "bigram", distinct=True)
    got = set(zip(out["doc_id"].to_pylist(), out["bigram"].to_pylist()))
    assert got == _ref_bigram_pairs(B)
    assert out.num_rows == len(got)          # per-doc DISTINCT
    assert out["bigram"].type == pa.string()


def test_segments_match_python():
    out = segments_batch(B)
    got = list(zip(out["doc_id"].to_pylist(),
                   out["seg_idx"].to_pylist(),
                   out["seg"].to_pylist()))
    # original emitted docs in row order; polars group_by(maintain_order)
    # preserves the same (doc, seg_idx) order
    assert got == _ref_segments(B)
    assert out["seg"].type == pa.large_string()


def test_doc_segment_totals_match_python():
    out = doc_segment_totals_batch(B)
    exp = [(len(tokens_of(t or "")) + SEGMENT_TOKENS - 1)
           // SEGMENT_TOKENS for t in CORPUS]
    assert out["n_segments"].to_pylist() == exp
    assert out["seg_idx"].to_pylist() == [-1] * len(CORPUS)


@pytest.mark.parametrize("seed", range(6))
def test_randomized_differential(seed):
    """Random corpora incl. whitespace-class edge chars and hot keys."""
    import random

    rng = random.Random(seed)
    alphabet = ["the", "of", "und", "le", "café", "x", "don't",
                "a b", "😀", "spam", "t" * 50]
    seps = [" ", "\t", "\n", "\f", "\r", "  ", "\v", " "]
    texts = []
    for _ in range(40):
        n = rng.randrange(0, 60)
        toks = [rng.choice(alphabet) for _ in range(n)]
        if rng.random() < 0.3 and toks:          # hot-token doc
            toks = [toks[0]] * len(toks)
        s = ""
        for t in toks:
            s += t + rng.choice(seps)
        texts.append(rng.choice([None, "", s]) if not toks else s)
    b = _docs(texts)

    assert token_count_batch(b)["n_tokens"].to_pylist() \
        == _ref_token_count(b)
    out = repetition_batch(b)
    assert list(zip(out["n_tokens"].to_pylist(),
                    out["n_distinct"].to_pylist(),
                    out["top_token_count"].to_pylist(),
                    out["top_bigram_count"].to_pylist())) \
        == _ref_repetition(b)
    got = set(_cols(ngram_batch(b, 2, "bigram", distinct=True),
                    "doc_id", "bigram"))
    assert got == _ref_bigram_pairs(b)
    _check_token_path(b)
    segs = segments_batch(b)
    assert list(zip(segs["doc_id"].to_pylist(),
                    segs["seg_idx"].to_pylist(),
                    segs["seg"].to_pylist())) == _ref_segments(b)
    li = lang_id_batch(b)
    assert list(zip(li["pred_lang"].to_pylist(),
                    li["score"].to_pylist())) == _ref_lang_id(b)


def test_fingerprint_matches_scalar_fnv():
    from sophia_rs_ray.functions.text import (fingerprint64,
                                              fingerprint_batch)

    out = fingerprint_batch(B)
    exp = [fingerprint64(t or "") - (1 << 63) for t in CORPUS]
    assert out["fingerprint"].to_pylist() == exp
    assert out["fingerprint"].type == pa.int64()
