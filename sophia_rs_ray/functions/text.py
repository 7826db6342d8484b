"""Text-analysis kernels for the documents table (training-data ops).

All are vectorized/batched ``map_batches`` bodies; the regexes and
profiles are module-level constants (compiled once per worker import) —
stateless tasks, no actor needed.
"""

from __future__ import annotations

import re
from typing import Dict, List

import numpy as np
import pyarrow as pa

# RE2 parity (memory: the tokenizer trap): DuckDB's string_split_regex
# '\s+' is RE2, whose \s is exactly [\t\n\f\r ] — NOT Python's
# unicode-aware \s (U+00A0, \v, …).  The engine tokenizer uses the
# explicit 5-char class so Python re, pyarrow/RE2 kernels, and polars'
# Rust regex all agree byte-for-byte with the SQL oracle.
_RE2_WS = " \t\n\f\r"
_TOKEN_SPLIT = re.compile(f"[{_RE2_WS}]+")
#: RE2-\S+ as an explicit class — safe in pyarrow (RE2), polars (Rust
#: regex) and Python re alike
TOKEN_RE2 = f"[^{_RE2_WS}]+"
_WORD = re.compile(r"[a-zA-Z']+")

#: tiny per-language stopword profiles for the n-gram/stopword heuristic
_LANG_PROFILES: Dict[str, frozenset] = {
    "en": frozenset("the of and to a in is that it for on with as at by".split()),
    "fr": frozenset("le la les de des du et un une est pour dans que au avec".split()),
    "de": frozenset("der die das und ist von zu mit den im für auf ein eine".split()),
    "es": frozenset("el la los las de y un una es en que para con por del".split()),
}


def tokens_of(text: str) -> List[str]:
    return [t for t in _TOKEN_SPLIT.split(text) if t]


def _coalesced_text(b: pa.Table):
    import pyarrow.compute as pc

    return pc.coalesce(b["text"], pa.scalar("", type=b["text"].type))


def _pl_docs(b: pa.Table):
    """(doc_id, text) Arrow batch → polars frame with nulls coalesced
    to '' — the shared front end of the polars-vectorized kernels."""
    import polars as pl

    df = pl.from_arrow(b.select(["doc_id", "text"]))
    return df.with_columns(pl.col("text").fill_null(""))


def token_count_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, n_tokens). Whitespace tokenization,
    empty tokens dropped — mirrored exactly by the DuckDB oracle
    (``string_split_regex`` + filter).  Vectorized: one RE2 kernel
    counting \\S+ runs (≡ len(tokens_of(t)), differential-pinned in
    tests/test_text_vectorized.py)."""
    import pyarrow.compute as pc

    t = _coalesced_text(b)
    counts = pc.count_substring_regex(t, pattern=TOKEN_RE2)
    return pa.table({"doc_id": b["doc_id"],
                     "n_tokens": pc.cast(counts, pa.int64())})


def quality_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → quality features. All INTEGER-valued on purpose:
    ratios (mean token length, alpha ratio) are left to the consumer so
    the oracle comparison is hash-exact (no float rounding-mode traps).
    alpha counts [A-Za-z] only (ASCII), mirroring the SQL regexp.

    Vectorized as RUN-based polars str kernels.  Measured on the sf0.1
    corpus (tests/test_text_vectorized.py pins equality): per-char
    regex counts (``[^ws]`` one match per char) were SLOWER than the
    original Python loop (0.27 s vs 0.16 s / 5k docs) because regex
    pays per MATCH — counting runs and diffing lengths is 0.06 s.
    token_chars = chars left after deleting whitespace runs ≡ Σ token
    lengths; alpha = n_chars - chars left after deleting [A-Za-z]+."""
    import polars as pl

    df = _pl_docs(b)
    n_chars = pl.col("text").str.len_chars().cast(pl.Int64)
    out = df.select(
        "doc_id",
        n_chars.alias("n_chars"),
        pl.col("text").str.count_matches(TOKEN_RE2).cast(pl.Int64)
          .alias("n_tokens"),
        pl.col("text").str.replace_all(f"[{_RE2_WS}]+", "")
          .str.len_chars().cast(pl.Int64).alias("token_chars"),
        (n_chars - pl.col("text").str.replace_all("[A-Za-z]+", "")
         .str.len_chars().cast(pl.Int64)).alias("alpha_chars"),
    ).to_arrow()
    return out.set_column(0, "doc_id", out["doc_id"].cast(
        b["doc_id"].type))


def lang_id_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, pred_lang, score). Stopword-profile
    heuristic; deterministic tie-break by language code (first max in
    sorted lang order; 'und' when no profile hits at all).

    Deliberately the per-row set-intersection loop: a polars
    ``list.eval(is_in)`` rewrite was tried and measured 3× SLOWER on
    the sf0.1 corpus (0.37 s vs 0.12 s / 5k docs — per-list expression
    dispatch dominates when the profiles are this small); equality of
    the two forms is pinned in tests/test_text_vectorized.py."""
    texts = [t or "" for t in b["text"].to_pylist()]
    preds, scores = [], []
    for t in texts:
        words = set(w.lower() for w in _WORD.findall(t[:2000]))
        best_lang, best = "und", 0.0
        for lang in sorted(_LANG_PROFILES):
            prof = _LANG_PROFILES[lang]
            hit = len(words & prof) / len(prof)
            if hit > best:
                best_lang, best = lang, hit
        preds.append(best_lang)
        scores.append(round(best, 4))
    return pa.table({"doc_id": b["doc_id"],
                     "pred_lang": pa.array(preds, pa.string()),
                     "score": pa.array(scores, pa.float64())})


def repetition_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → Gopher-style repetition quality signals
    (Rae et al. 2021 §A1.1: filter docs dominated by repeated lines /
    n-grams). INTEGER-valued counts on purpose (hash-exact oracle):
    consumers derive the fractions dup = 1 - n_distinct/n_tokens and
    top_{1,2}gram_count/n_tokens themselves.

    Deliberately the per-doc Counter loop: two polars rewrites were
    tried and both measured SLOWER on the sf0.1 corpus (list.eval
    unique_counts 0.40 s, explode + double group_by 0.26 s, Counter
    0.15–0.18 s / 5k docs — per-doc histograms are too small for
    columnar group-by overhead to amortize); equality is pinned in
    tests/test_text_vectorized.py."""
    from collections import Counter

    texts = [t or "" for t in b["text"].to_pylist()]
    n_tok, n_dist, top1, top2 = [], [], [], []
    for t in texts:
        ts = tokens_of(t)
        c1 = Counter(ts)
        c2 = Counter(f"{a} {bb}" for a, bb in zip(ts, ts[1:]))
        n_tok.append(len(ts))
        n_dist.append(len(c1))
        top1.append(max(c1.values()) if c1 else 0)
        top2.append(max(c2.values()) if c2 else 0)
    return pa.table({
        "doc_id": b["doc_id"],
        "n_tokens": pa.array(n_tok, pa.int64()),
        "n_distinct": pa.array(n_dist, pa.int64()),
        "top_token_count": pa.array(top1, pa.int64()),
        "top_bigram_count": pa.array(top2, pa.int64()),
    })


_FP_BASE = np.uint64(1099511628211)
_FP_OFF = np.uint64(14695981039346656037)


def fingerprint64(text: str) -> int:
    """FNV-1a 64-bit document fingerprint (rolling content hash)."""
    h = _FP_OFF
    for byt in text.encode("utf-8"):
        h = np.uint64((int(h) ^ byt) * int(_FP_BASE) & 0xFFFFFFFFFFFFFFFF)
    return int(h)


def fingerprint_batch(b: pa.Table) -> pa.Table:
    """FNV-1a is sequential per byte, so it can't vectorize along the
    string — but it CAN vectorize across documents: pad the utf-8
    bytes into a (docs × maxlen) matrix and run the recurrence
    column-wise (maxlen numpy steps over all docs at once, wrapping
    uint64 arithmetic).  Differential-pinned to ``fingerprint64`` in
    tests/test_text_vectorized.py."""
    texts = [(t or "").encode("utf-8") for t in b["text"].to_pylist()]
    n = len(texts)
    lens = np.fromiter((len(t) for t in texts), np.int64, n)
    maxlen = int(lens.max()) if n else 0
    h = np.full(n, _FP_OFF, np.uint64)
    if maxlen:
        mat = np.zeros((n, maxlen), np.uint8)
        for i, t in enumerate(texts):
            mat[i, :len(t)] = np.frombuffer(t, np.uint8)
        with np.errstate(over="ignore"):
            for j in range(maxlen):
                active = lens > j
                h[active] = (h[active] ^ mat[active, j]) * _FP_BASE
    # uint64 → signed shift (f - 2^63): xor the sign bit, reinterpret
    fps = (h ^ np.uint64(1 << 63)).view(np.int64)
    return pa.table({"doc_id": b["doc_id"],
                     "fingerprint": pa.array(fps, pa.int64())})


def winnow_fingerprints_batch(b: pa.Table, *, k: int = 16,
                              w: int = 8) -> pa.Table:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken,
    SIGMOD'03 — public algorithm): character k-gram hashes, then for
    every window of ``w`` consecutive grams keep the RIGHTMOST minimum;
    the distinct selected (position, hash) pairs are the fingerprint
    set, guaranteeing any match of length ≥ k+w-1 shares a fingerprint.

    Gram hash = first 60 bits of md5(k-gram) so the DuckDB oracle
    reproduces it exactly (``CAST('0x'||substr(md5(x),1,15) AS
    BIGINT)``); window selection is vectorized numpy
    (sliding_window_view + reversed argmin = rightmost min)."""
    import hashlib

    ids: List = []
    poss: List[int] = []
    fps: List[int] = []
    for doc_id, text in zip(b["doc_id"].to_pylist(),
                            b["text"].to_pylist()):
        t = text or ""
        n = len(t) - k + 1
        if n < w:
            continue  # too short for one full window (spec guarantee)
        hs = np.fromiter(
            (int(hashlib.md5(t[i:i + k].encode()).hexdigest()[:15], 16)
             for i in range(n)), np.int64, n)
        win = np.lib.stride_tricks.sliding_window_view(hs, w)
        right_min = (w - 1) - np.argmin(win[:, ::-1], axis=1)
        sel = np.unique(np.arange(n - w + 1) + right_min)
        ids.extend([doc_id] * len(sel))
        poss.extend((sel + 1).tolist())     # 1-indexed like SQL substr
        fps.extend(hs[sel].tolist())
    return pa.table({
        "doc_id": pa.array(ids, b["doc_id"].type),
        "pos": pa.array(poss, pa.int64()),
        "fp": pa.array(fps, pa.int64()),
    })


# ---------------------------------------------------------------------------
# normalization / PII / bigram rarity (training-data hygiene ops)
# ---------------------------------------------------------------------------

#: RE2-compatible patterns (no lookaround) so DuckDB's regexp_* (also
#: RE2) reproduces the exact same matches in the oracle SQL.
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4 = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PII_NUM = r"\d{7,}"


def normalize_batch(b: pa.Table) -> pa.Table:
    """Unicode NFC + lowercase + whitespace-collapse + trim — the
    standard text-normalization pass before dedup/fingerprinting.

    lower/collapse/trim are Arrow kernels; NFC goes through CPython's
    C-level ``unicodedata`` because pyarrow's ``utf8_normalize`` does
    NOT compose combining sequences (verified on 16.1: e+U+0301 stays
    two codepoints, while DuckDB's ``nfc_normalize`` composes).  The
    ``is_normalized`` fast path skips the copy for the (typical)
    already-NFC row."""
    import unicodedata

    import pyarrow.compute as pc

    s = pa.array([
        v if v is None or unicodedata.is_normalized("NFC", v)
        else unicodedata.normalize("NFC", v)
        for v in b["text"].to_pylist()], b["text"].type
        if not isinstance(b["text"], pa.ChunkedArray)
        else b["text"].type)
    s = pc.utf8_lower(s)
    s = pc.replace_substring_regex(s, pattern=r"\s+", replacement=" ")
    s = pc.utf8_trim(s, characters=" ")
    return pa.table({"doc_id": b["doc_id"], "norm_text": s,
                     "n_chars_norm": pc.utf8_length(s)})


def pii_redact_batch(b: pa.Table) -> pa.Table:
    """Regex PII scrub: emails → [EMAIL], IPv4 → [IP], long digit runs
    → [NUM].  Counts are taken on the ORIGINAL text per pattern (so
    they are order-independent); replacements apply sequentially.
    Vectorized RE2 kernels only."""
    import pyarrow.compute as pc

    t = b["text"]
    n_email = pc.count_substring_regex(t, pattern=PII_EMAIL)
    n_ip = pc.count_substring_regex(t, pattern=PII_IPV4)
    n_num = pc.count_substring_regex(t, pattern=PII_NUM)
    s = pc.replace_substring_regex(t, pattern=PII_EMAIL,
                                   replacement="[EMAIL]")
    s = pc.replace_substring_regex(s, pattern=PII_IPV4, replacement="[IP]")
    s = pc.replace_substring_regex(s, pattern=PII_NUM, replacement="[NUM]")
    return pa.table({
        "doc_id": b["doc_id"], "redacted": s,
        "n_email": pc.cast(n_email, pa.int64()),
        "n_ip": pc.cast(n_ip, pa.int64()),
        "n_num": pc.cast(n_num, pa.int64()),
    })


def bigram_pairs_batch(b: pa.Table) -> pa.Table:
    """Per-document DISTINCT token bigrams as (doc_id, bigram) pairs —
    the map side of corpus-level bigram-rarity aggregation.  Pairs are
    globally distinct because a doc lives in exactly one batch.
    Vectorized polars (tokenize → adjacent-shift concat → list.unique
    → explode), differential-pinned in tests/test_text_vectorized.py."""
    import polars as pl

    bigram = (pl.element() + " " + pl.element().shift(-1)).drop_nulls()
    out = (_pl_docs(b)
           .select(pl.col("doc_id"),
                   pl.col("text").str.extract_all(TOKEN_RE2)
                   .list.eval(bigram).list.unique().alias("bigram"))
           .explode("bigram", empty_as_null=False)
           .drop_nulls("bigram")
           .to_arrow())
    return pa.table({"doc_id": out["doc_id"].cast(b["doc_id"].type),
                     "bigram": out["bigram"].cast(pa.string())})


#: shingle width for benchmark decontamination — 8 consecutive tokens,
#: the usual "13-gram-ish" contamination test scaled to the short bench
#: docs; mirrored by the DuckDB oracle's list-comprehension slice
SHINGLE_K = 8


def shingle_pairs_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → per-document DISTINCT ``SHINGLE_K``-token
    shingles as (doc_id, sh) pairs — the map side of benchmark
    decontamination.  Pairs are globally distinct because a doc lives
    in exactly one batch.  Vectorized polars: tokenize → k adjacent
    shifts concatenated inside ``list.eval`` → list.unique → explode
    (the SHINGLE_K-wide generalization of ``bigram_pairs_batch``)."""
    import polars as pl

    sh = pl.element()
    for j in range(1, SHINGLE_K):
        sh = sh + " " + pl.element().shift(-j)
    out = (_pl_docs(b)
           .select(pl.col("doc_id"),
                   pl.col("text").str.extract_all(TOKEN_RE2)
                   .list.eval(sh.drop_nulls()).list.unique().alias("sh"))
           .explode("sh", empty_as_null=False)
           .drop_nulls("sh")
           .to_arrow())
    return pa.table({"doc_id": out["doc_id"].cast(b["doc_id"].type),
                     "sh": out["sh"].cast(pa.string())})


def shingle_pos_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → EVERY ``SHINGLE_K``-token shingle occurrence as
    (doc_id, pos, sh) rows, pos = 0-based token index of the shingle's
    first token — the map side of exact-substring duplicate-span
    detection (keeps multiplicity AND position, unlike
    ``shingle_pairs_batch``'s per-doc distinct set).  Vectorized
    polars: tokenize → k adjacent shifts inside ``list.eval`` →
    parallel 0..n-1 position lists → aligned two-column explode."""
    import polars as pl

    sh = pl.element()
    for j in range(1, SHINGLE_K):
        sh = sh + " " + pl.element().shift(-j)
    out = (_pl_docs(b)
           .select(pl.col("doc_id"),
                   pl.col("text").str.extract_all(TOKEN_RE2)
                   .list.eval(sh.drop_nulls()).alias("sh"))
           .with_columns(pl.int_ranges(pl.col("sh").list.len())
                         .alias("pos"))
           .explode(["sh", "pos"])
           .drop_nulls("sh")
           .to_arrow())
    return pa.table({"doc_id": out["doc_id"].cast(b["doc_id"].type),
                     "pos": out["pos"].cast(pa.int64()),
                     "sh": out["sh"].cast(pa.string())})


def token_tf_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → per-document term frequencies as
    (doc_id, tok, tf) rows — the map side of tf-idf term ranking.
    Counts are per-doc EXACT because a doc lives in exactly one batch.
    Vectorized polars: tokenize → explode → group count."""
    import polars as pl

    out = (_pl_docs(b)
           .select(pl.col("doc_id"),
                   pl.col("text").str.extract_all(TOKEN_RE2).alias("tok"))
           .explode("tok")
           .drop_nulls("tok")
           .group_by(["doc_id", "tok"])
           .len(name="tf")
           .to_arrow())
    return pa.table({"doc_id": out["doc_id"].cast(b["doc_id"].type),
                     "tok": out["tok"].cast(pa.string()),
                     "tf": out["tf"].cast(pa.int64())})


def token_freq_batch(b: pa.Table) -> pa.Table:
    """(text) → corpus token occurrence counts of the batch as (tok, c)
    rows — the per-block partial of every exact vocabulary count;
    partials merge by SUM.  Vectorized polars: tokenize → explode →
    group count."""
    import polars as pl

    out = (pl.from_arrow(b.select(["text"]))
           .select(pl.col("text").fill_null("")
                   .str.extract_all(TOKEN_RE2).alias("tok"))
           .explode("tok", empty_as_null=True)
           .drop_nulls("tok")
           .group_by("tok")
           .len(name="c")
           .to_arrow())
    return pa.table({"tok": out["tok"].cast(pa.string()),
                     "c": out["c"].cast(pa.int64())})


#: fixed token-window size standing in for paragraph boundaries — the
#: bench corpus has no newlines, so segmentation is deterministic token
#: windows; swap the splitter for '\n\n' chunks on real crawl text.
SEGMENT_TOKENS = 10


def segments_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → exploded (doc_id, seg_idx, seg): CCNet-style
    paragraph segmentation as fixed ``SEGMENT_TOKENS``-token windows.
    Mirrored exactly by the DuckDB oracle's list-comprehension slice
    (``ts[i*10+1:i*10+10]``, 1-based inclusive).

    Vectorized polars: explode tokens, window index = position //
    SEGMENT_TOKENS, group-join with order preserved (polars agg lists
    keep row order within each group); differential-pinned in
    tests/test_text_vectorized.py."""
    import polars as pl

    ex = (_pl_docs(b)
          .select(pl.col("doc_id"),
                  pl.col("text").str.extract_all(TOKEN_RE2).alias("tok"))
          .with_row_index("rid")
          .explode("tok", empty_as_null=False)
          .drop_nulls("tok"))
    out = (ex.with_columns(
               seg_idx=(pl.int_range(pl.len()).over("rid")
                        // SEGMENT_TOKENS))
           .group_by(["rid", "doc_id", "seg_idx"], maintain_order=True)
           .agg(pl.col("tok").str.join(" ").alias("seg"))
           .to_arrow())
    return pa.table({"doc_id": out["doc_id"].cast(b["doc_id"].type),
                     "seg_idx": out["seg_idx"].cast(pa.int64()),
                     "seg": out["seg"].cast(pa.large_string())})


def doc_segment_totals_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → one sentinel row per document carrying the
    total segment count (seg_idx = -1, seg = '').  Unioned with the
    kept-segment stream so every doc_id survives reassembly even when
    all of its segments were corpus-duplicated (or the text is empty).
    Vectorized: one RE2 token-count kernel + integer ceil-div."""
    import pyarrow.compute as pc

    n_tok = pc.cast(pc.count_substring_regex(
        _coalesced_text(b), pattern=TOKEN_RE2), pa.int64())
    totals = pc.divide(pc.add(n_tok, pa.scalar(SEGMENT_TOKENS - 1)),
                       pa.scalar(SEGMENT_TOKENS))
    n = len(b)
    return pa.table({"doc_id": b["doc_id"],
                     "seg_idx": pa.array([-1] * n, pa.int64()),
                     "seg": pa.array([""] * n, pa.large_string()),
                     "n_segments": totals})


#: document chunking window/stride (characters) — RAG-style overlapping
#: windows; chunk i covers [i*CHUNK_S, i*CHUNK_S + CHUNK_W).  Mirrored
#: by the DuckDB oracle's generate_series + substr.
CHUNK_W = 200
CHUNK_S = 150


def chunk_docs_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → overlapping character chunks as
    (doc_id, chunk_id, chunk) rows.  Every document yields at least one
    chunk (empty text → one '' chunk), so the operator is
    count-predictable for downstream packing.  Vectorized polars:
    per-row chunk count via integer ceil-div → ``int_ranges`` →
    explode → ``str.slice``.  n_chunks = ceil(max(len-W, 0)/S) + 1."""
    import polars as pl

    out = (_pl_docs(b)
           .with_columns(_n=pl.col("text").str.len_chars()
                         .cast(pl.Int64))
           .with_columns(_nc=((pl.col("_n") - CHUNK_W).clip(0)
                              + CHUNK_S - 1) // CHUNK_S + 1)
           .with_columns(chunk_id=pl.int_ranges(0, pl.col("_nc")))
           .explode("chunk_id")
           .with_columns(chunk=pl.col("text").str.slice(
               pl.col("chunk_id") * CHUNK_S, CHUNK_W))
           .to_arrow())
    return pa.table({"doc_id": out["doc_id"].cast(b["doc_id"].type),
                     "chunk_id": out["chunk_id"].cast(pa.int64()),
                     "chunk": out["chunk"].cast(pa.string())})


def doc_bigram_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, bigram) per OCCURRENCE (duplicates
    kept) — the scoring side of the bigram LM's distributed-join plan."""
    import polars as pl

    bigram = (pl.element() + " " + pl.element().shift(-1)).drop_nulls()
    out = (_pl_docs(b)
           .select(pl.col("doc_id"),
                   pl.col("text").str.extract_all(TOKEN_RE2)
                   .list.eval(bigram).alias("bigram"))
           .explode("bigram", empty_as_null=True)
           .drop_nulls("bigram")
           .to_arrow())
    return pa.table({"doc_id": out["doc_id"].cast(b["doc_id"].type),
                     "bigram": out["bigram"].cast(pa.string())})


#: DSIR importance-weight target slice: the "high-quality target
#: distribution" stands in as the English subset of the corpus —
#: deterministic, present in every fuzz corpus, mirrored by the oracle.
DSIR_TARGET_LANG = "en"


def token_lang_tf_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text, lang) → per-batch PARTIAL unigram counts
    (tok, c_all, c_tgt): every token occurrence counted once in
    ``c_all`` and, when the document's lang equals
    ``DSIR_TARGET_LANG``, once in ``c_tgt`` — the single-pass map side
    of DSIR importance-weight training (both distributions in one
    exchange).  Vectorized polars."""
    import polars as pl
    import pyarrow.compute as pc

    df = (pl.from_arrow(b.select(["text", "lang"]))
          .with_columns(pl.col("text").fill_null(""),
                        tgt=(pl.col("lang") == DSIR_TARGET_LANG)
                        .fill_null(False)))
    out = (df.select(pl.col("tgt"),
                     pl.col("text").str.extract_all(TOKEN_RE2)
                     .alias("tok"))
           .explode("tok", empty_as_null=True)
           .drop_nulls("tok")
           .group_by(["tok"])
           .agg(c_all=pl.len().cast(pl.Int64),
                c_tgt=pl.col("tgt").sum().cast(pl.Int64))
           .to_arrow())
    return pa.table({"tok": out["tok"].cast(pa.string()),
                     "c_all": out["c_all"].cast(pa.int64()),
                     "c_tgt": out["c_tgt"].cast(pa.int64())})


def doc_token_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, tok) per OCCURRENCE — the scoring side
    of DSIR's distributed-join plan."""
    import polars as pl

    out = (_pl_docs(b)
           .select(pl.col("doc_id"),
                   pl.col("text").str.extract_all(TOKEN_RE2)
                   .alias("tok"))
           .explode("tok", empty_as_null=True)
           .drop_nulls("tok")
           .to_arrow())
    return pa.table({"doc_id": out["doc_id"].cast(b["doc_id"].type),
                     "tok": out["tok"].cast(pa.string())})


def lm_train_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → fused per-batch LM-training partials
    (key, c, is_tok): bigram occurrence counts (is_tok = false) and
    batch-distinct tokens (is_tok = true, c = 1) in ONE docs pass —
    one exchange trains both the bigram table and |V|.  Keys cannot
    collide across kinds: bigrams contain the ' ' joiner, tokens are
    whitespace-free by construction."""
    import polars as pl

    bigram = (pl.element() + " " + pl.element().shift(-1)).drop_nulls()
    df = _pl_docs(b).select(
        pl.col("text").str.extract_all(TOKEN_RE2).alias("tok"))
    bg = (df.select(pl.col("tok").list.eval(bigram).alias("key"))
          .explode("key", empty_as_null=True)
          .drop_nulls("key")
          .group_by("key").len(name="c")
          .with_columns(c=pl.col("c").cast(pl.Int64),
                        is_tok=pl.lit(False)))
    tk = (df.explode("tok", empty_as_null=True)
          .drop_nulls("tok")
          .unique()
          .select(key=pl.col("tok"),
                  c=pl.lit(1, dtype=pl.Int64),
                  is_tok=pl.lit(True)))
    out = pl.concat([bg, tk]).to_arrow()
    return pa.table({"key": out["key"].cast(pa.string()),
                     "c": out["c"].cast(pa.int64()),
                     "is_tok": out["is_tok"].cast(pa.bool_())})
