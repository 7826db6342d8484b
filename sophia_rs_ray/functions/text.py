"""Text-analysis kernels for the documents table (training-data ops).

All are vectorized/batched ``map_batches`` bodies; the regexes and
profiles are module-level constants (compiled once per worker import) —
stateless tasks, no actor needed.

Every token statistic goes through one path, so the engine and the
DuckDB oracles agree on what a token is:

- :func:`token_frame` is the one tokenizer: one flat frame per block,
  each token a row with its document's row index ``rid`` (NULL text →
  no rows);
- :func:`ngram_rows` is the one n-gram builder over that frame, per
  occurrence, per distinct n-gram of a document, or with positions;
  :func:`ngram_batch` is its Arrow form;
- :func:`_doc_token_stats` reads the per-document Gopher signals
  (token count and characters, distinct tokens, top token and bigram
  multiplicities) off the same tokens with sorted integer keys;
  :func:`quality_batch`, :func:`repetition_batch` and the Gopher
  filter project from it;
- :func:`token_count` is the one token count (no tokens built),
  :func:`n_tokens` its Arrow form;
- :func:`arrow_out` turns a polars result back into Arrow with the
  input's ``doc_id`` type and the declared output types.

``tokens_of`` is the per-string reference the differential tests
(tests/test_text_vectorized.py) pin all of them to.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# RE2 parity (memory: the tokenizer trap): DuckDB's string_split_regex
# '\s+' is RE2, whose \s is exactly [\t\n\f\r ] — NOT Python's
# unicode-aware \s (U+00A0, \v, …).  The engine tokenizer splits on
# exactly these 5 chars so Python re, pyarrow/RE2 kernels, and polars'
# Rust regex all agree byte-for-byte with the SQL oracle.
_RE2_WS = " \t\n\f\r"
_TOKEN_SPLIT = re.compile(f"[{_RE2_WS}]+")
#: RE2-\S+ as an explicit class — safe in pyarrow (RE2), polars (Rust
#: regex) and Python re alike
TOKEN_RE2 = f"[^{_RE2_WS}]+"
_WORD = re.compile(r"[a-zA-Z']+")
#: the largest composite sort key of :func:`_doc_token_stats`; a bigram
#: key that could exceed it goes through the pair dictionary instead
_KEY_LIMIT = int(np.iinfo(np.int64).max)

#: tiny per-language stopword profiles for the n-gram/stopword heuristic
_LANG_PROFILES: Dict[str, frozenset] = {
    "en": frozenset("the of and to a in is that it for on with as at by".split()),
    "fr": frozenset("le la les de des du et un une est pour dans que au avec".split()),
    "de": frozenset("der die das und ist von zu mit den im für auf ein eine".split()),
    "es": frozenset("el la los las de y un una es en que para con por del".split()),
}


def tokens_of(text: str) -> List[str]:
    return [t for t in _TOKEN_SPLIT.split(text) if t]


def _pl_docs(b: pa.Table):
    """(doc_id, text) Arrow batch → polars frame with nulls coalesced
    to '' — the shared front end of the polars-vectorized kernels."""
    import polars as pl

    df = pl.from_arrow(b.select(["doc_id", "text"]))
    return df.with_columns(pl.col("text").fill_null(""))


def arrow_out(df, b: pa.Table, **types) -> pa.Table:
    """A polars result → Arrow: each column cast to ``types[name]``, or
    back to ``b``'s type when ``b`` has the column (polars widens
    strings, and ``doc_id`` keeps the input's type)."""
    out = df.to_arrow()
    types = {**dict(zip(b.schema.names, b.schema.types)), **types}
    return pa.table({c: out[c].cast(types.get(c, out[c].type))
                     for c in out.column_names})


def _tokens(b: pa.Table):
    """``b``'s RE2 \\S+ tokens in document order as (rid, tok): an int64
    numpy array of each token's row index in ``b`` and an Arrow string
    array.  The other four RE2 whitespace chars become ' ' by literal
    replaces, one split on ' ' follows, and the empty strings between
    adjacent separators are dropped — the same tokens as
    ``[^ \\t\\n\\f\\r]+`` without a regex."""
    t = pc.fill_null(b["text"].combine_chunks(), "")
    for ws in _RE2_WS[1:]:
        t = pc.replace_substring(t, ws, " ")
    lists = pc.split_pattern(t, " ")
    tok = pc.list_flatten(lists)
    keep = pc.not_equal(tok, "")
    return (pc.list_parent_indices(lists).filter(keep).to_numpy(),
            tok.filter(keep))


def token_frame(b: pa.Table, cols: Sequence[str] = ("doc_id",)):
    """The one tokenizer: a flat polars frame (``rid``, ``cols``,
    ``tok``) with one row per RE2 \\S+ token of ``b``'s texts, in
    document order; ``rid`` is the token's document's row index in
    ``b`` and ``cols`` are that document's values (NULL text → no
    rows)."""
    import polars as pl

    rid, tok = _tokens(b)
    return pl.from_arrow(pa.table({"rid": rid, **{c: b[c].take(rid)
                                                  for c in cols},
                                   "tok": tok}))


def ngram_rows(toks, n: int, name: str, cols: Sequence[str] = ("doc_id",),
               *, distinct: bool = False, positions: bool = False):
    """The one n-gram builder: a token frame (:func:`token_frame`) →
    one row per n-gram occurrence as (cols, name), or per distinct
    n-gram of a document (``distinct``), or with its first token's
    0-based index as (cols, pos, name) (``positions``).  An n-gram is a
    token and its ``n - 1`` successors joined by ' ', kept where the
    last successor is in the same document (a document with fewer than
    ``n`` tokens has none)."""
    import polars as pl

    df = toks
    if positions:
        df = df.with_columns(pos=pl.int_range(pl.len())
                             - pl.col("rid").search_sorted(pl.col("rid")))
    if n > 1:
        df = df.with_columns(pl.concat_str(
            [pl.col("tok").shift(-j) for j in range(n)], separator=" ")
            .alias(name)).filter(pl.col("rid").shift(1 - n) == pl.col("rid"))
    else:
        df = df.rename({"tok": name})
    if distinct:
        # per-document first occurrences: measured at a third of the
        # peak memory of a two-column ``unique`` on a 5,000-doc block
        df = df.filter(pl.col(name).is_first_distinct().over("rid"))
    return df.select(*cols, *(["pos"] if positions else []), name)


def ngram_batch(b: pa.Table, n: int, name: str, *, distinct: bool = False,
                positions: bool = False) -> pa.Table:
    """(doc_id, text) → (doc_id, [pos,] name) rows of
    :func:`ngram_rows`: the map side of every per-document n-gram plan
    (bigram rarity, decontamination shingles, duplicate spans, LM and
    DSIR scoring).  Per-document distinct rows are globally distinct
    because a doc lives in exactly one batch."""
    return arrow_out(ngram_rows(token_frame(b), n, name, distinct=distinct,
                                positions=positions),
                     b, pos=pa.int64(), **{name: pa.string()})


def _code_runs(rid: np.ndarray, code: np.ndarray, width: int, n: int):
    """Per document of ``n``: (distinct codes, largest multiplicity of
    one code) — the run count and longest run of the sorted composite
    keys ``rid·width + code`` within each document (0 for a document
    with no codes).  ``code < width`` and ``n·width`` fits int64."""
    n_distinct = np.zeros(n, np.int64)
    top = np.zeros(n, np.int64)
    if len(code) == 0:
        return n_distinct, top
    key = np.sort(rid * width + code)
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    run_len = np.diff(np.r_[starts, len(key)])
    run_doc = key[starts] // width
    first = np.flatnonzero(np.r_[True, run_doc[1:] != run_doc[:-1]])
    docs = run_doc[first]
    n_distinct[docs] = np.diff(np.r_[first, len(run_doc)])
    top[docs] = np.maximum.reduceat(run_len, first)
    return n_distinct, top


def _doc_token_stats(b: pa.Table) -> Dict[str, np.ndarray]:
    """(doc_id, text) → the per-document token signals as int64 numpy
    arrays in row order: ``n_tokens``, ``token_chars`` (Σ token
    lengths), ``n_distinct``, ``top_token_count`` and
    ``top_bigram_count`` (largest multiplicity of one token / one
    adjacent token pair).

    The tokens are dictionary-encoded to codes < V once; unigram counts
    come off the sorted keys ``rid·V + code`` and bigram counts off
    ``rid·V² + c1·V + c2`` (:func:`_code_runs`).  Where that bigram key
    could overflow int64 the pairs are dictionary-encoded first, so the
    counts stay exact for any vocabulary."""
    n = b.num_rows
    rid, tok = _tokens(b)
    enc = pc.dictionary_encode(tok)
    code = enc.indices.to_numpy().astype(np.int64)
    v = len(enc.dictionary)
    bounds = np.searchsorted(rid, np.arange(n + 1))
    chars = np.r_[0, np.cumsum(pc.utf8_length(tok).to_numpy(),
                               dtype=np.int64)]
    n_distinct, top_token = _code_runs(rid, code, v, n)
    same = rid[1:] == rid[:-1]
    pair = code[:-1][same] * v + code[1:][same]
    if n * v * v > _KEY_LIMIT:
        pairs, pair = np.unique(pair, return_inverse=True)
        width = len(pairs)
    else:
        width = v * v
    _, top_bigram = _code_runs(rid[1:][same], pair, width, n)
    return {"n_tokens": np.diff(bounds), "token_chars": np.diff(chars[bounds]),
            "n_distinct": n_distinct, "top_token_count": top_token,
            "top_bigram_count": top_bigram}


def token_count():
    """The one token count: each ``text``'s RE2 \\S+ runs as a polars
    Int64 expression (NULL text → 0), ≡ ``len(tokens_of(t))`` without
    building the tokens.  polars' count is measured 3× faster than
    pyarrow's ``count_substring_regex`` (20 vs 59 ms per 5,000 bench
    docs)."""
    import polars as pl

    return (pl.col("text").fill_null("").str.count_matches(TOKEN_RE2)
            .cast(pl.Int64))


def n_tokens(b: pa.Table) -> pa.Array:
    """:func:`token_count` of ``b``'s texts as an Arrow int64 array."""
    import polars as pl

    return pl.from_arrow(b.select(["text"])).select(
        token_count()).to_series().to_arrow()


def token_count_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, n_tokens). Whitespace tokenization,
    empty tokens dropped — mirrored exactly by the DuckDB oracle
    (``string_split_regex`` + filter)."""
    return pa.table({"doc_id": b["doc_id"], "n_tokens": n_tokens(b)})


def char_counts(b: pa.Table):
    """``b``'s text lengths and ASCII-letter counts ([A-Za-z], as the
    SQL regexp counts them) as two int64 numpy arrays (NULL → 0).  The
    letters are counted as the chars a run-deleting regex removes: a
    regex pays per match, so one match per run beats one per char."""
    import polars as pl

    text = pl.col("text").fill_null("")
    df = pl.from_arrow(b.select(["text"])).select(
        n=text.str.len_chars(),
        rest=text.str.replace_all("[A-Za-z]+", "").str.len_chars())
    n_chars = df["n"].to_numpy().astype(np.int64)
    return n_chars, n_chars - df["rest"].to_numpy()


def quality_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → quality features. All INTEGER-valued on purpose:
    ratios (mean token length, alpha ratio) are left to the consumer so
    the oracle comparison is hash-exact (no float rounding-mode traps).
    alpha counts [A-Za-z] only (ASCII), mirroring the SQL regexp.
    n_tokens and token_chars come from :func:`_doc_token_stats`, the
    two char counts from :func:`char_counts`."""
    stats = _doc_token_stats(b)
    n_chars, alpha = char_counts(b)
    return pa.table({"doc_id": b["doc_id"], "n_chars": n_chars,
                     "n_tokens": stats["n_tokens"],
                     "token_chars": stats["token_chars"],
                     "alpha_chars": alpha})


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
    top_{1,2}gram_count/n_tokens themselves.  A projection of
    :func:`_doc_token_stats`."""
    stats = _doc_token_stats(b)
    return pa.table({"doc_id": b["doc_id"], **{
        c: stats[c] for c in ("n_tokens", "n_distinct", "top_token_count",
                              "top_bigram_count")}})


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


def pii_redact_text(text):
    """Regex PII scrub of a string array: emails → [EMAIL], then IPv4
    → [IP], then long digit runs → [NUM].  Vectorized RE2 kernels."""
    s = pc.replace_substring_regex(text, pattern=PII_EMAIL,
                                   replacement="[EMAIL]")
    s = pc.replace_substring_regex(s, pattern=PII_IPV4, replacement="[IP]")
    return pc.replace_substring_regex(s, pattern=PII_NUM,
                                      replacement="[NUM]")


def pii_redact_batch(b: pa.Table) -> pa.Table:
    """:func:`pii_redact_text` with per-category match counts.  Counts
    are taken on the ORIGINAL text per pattern (so they are
    order-independent).  They stay on pyarrow's RE2 rather than polars'
    ``count_matches``: polars treats ``\\d`` and ``\\b`` as Unicode
    classes, where RE2 and the DuckDB oracle treat them as ASCII."""
    t = b["text"]
    n_email = pc.count_substring_regex(t, pattern=PII_EMAIL)
    n_ip = pc.count_substring_regex(t, pattern=PII_IPV4)
    n_num = pc.count_substring_regex(t, pattern=PII_NUM)
    return pa.table({
        "doc_id": b["doc_id"], "redacted": pii_redact_text(t),
        "n_email": pc.cast(n_email, pa.int64()),
        "n_ip": pc.cast(n_ip, pa.int64()),
        "n_num": pc.cast(n_num, pa.int64()),
    })


#: shingle width for benchmark decontamination — 8 consecutive tokens,
#: the usual "13-gram-ish" contamination test scaled to the short bench
#: docs; mirrored by the DuckDB oracle's list-comprehension slice
SHINGLE_K = 8


def token_freq_batch(b: pa.Table) -> pa.Table:
    """(text) → corpus token occurrence counts of the batch as (tok, c)
    rows — the per-block partial of every exact vocabulary count;
    partials merge by SUM."""
    df = ngram_rows(token_frame(b, ()), 1, "tok", ())
    return arrow_out(df.group_by("tok").len("c"), b, tok=pa.string(),
                     c=pa.int64())


#: fixed token-window size standing in for paragraph boundaries — the
#: bench corpus has no newlines, so segmentation is deterministic token
#: windows; swap the splitter for '\n\n' chunks on real crawl text.
SEGMENT_TOKENS = 10


def segments_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → exploded (doc_id, seg_idx, seg): CCNet-style
    paragraph segmentation as fixed ``SEGMENT_TOKENS``-token windows.
    Mirrored exactly by the DuckDB oracle's list-comprehension slice
    (``ts[i*10+1:i*10+10]``, 1-based inclusive).

    Vectorized polars: the token frame with positions, window index =
    position // SEGMENT_TOKENS, group-join with order preserved (polars
    agg lists keep row order within each group); differential-pinned
    in tests/test_text_vectorized.py."""
    import polars as pl

    ex = ngram_rows(token_frame(b), 1, "tok", ("rid", "doc_id"),
                    positions=True)
    out = (ex.with_columns(seg_idx=pl.col("pos") // SEGMENT_TOKENS)
           .group_by(["rid", "doc_id", "seg_idx"], maintain_order=True)
           .agg(pl.col("tok").str.join(" ").alias("seg"))
           .drop("rid"))
    return arrow_out(out, b, seg_idx=pa.int64(), seg=pa.large_string())


def doc_segment_totals_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → one sentinel row per document carrying the
    total segment count (seg_idx = -1, seg = '').  Unioned with the
    kept-segment stream so every doc_id survives reassembly even when
    all of its segments were corpus-duplicated (or the text is empty).
    Vectorized: the token count + integer ceil-div."""
    totals = pc.divide(pc.add(n_tokens(b), pa.scalar(SEGMENT_TOKENS - 1)),
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
           .select("doc_id", "chunk_id", chunk=pl.col("text").str.slice(
               pl.col("chunk_id") * CHUNK_S, CHUNK_W)))
    return arrow_out(out, b, chunk_id=pa.int64(), chunk=pa.string())


#: DSIR importance-weight target slice: the "high-quality target
#: distribution" stands in as the English subset of the corpus —
#: deterministic, present in every fuzz corpus, mirrored by the oracle.
DSIR_TARGET_LANG = "en"


def lm_train_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) → fused per-batch LM-training partials
    (key, c, is_tok): bigram occurrence counts (is_tok = false) and
    batch-distinct tokens (is_tok = true, c = 1) from ONE tokenization
    of the batch — one exchange trains both the bigram table and |V|.
    Keys cannot collide across kinds: bigrams contain the ' ' joiner,
    tokens are whitespace-free by construction."""
    import polars as pl

    toks = token_frame(b, ())
    bg = (ngram_rows(toks, 2, "key", ()).group_by("key").len("c")
          .with_columns(is_tok=pl.lit(False)))
    tk = (ngram_rows(toks, 1, "key", ()).unique()
          .with_columns(c=pl.lit(1, pl.UInt32), is_tok=pl.lit(True)))
    return arrow_out(pl.concat([bg, tk]), b, key=pa.string(),
                     c=pa.int64(), is_tok=pa.bool_())
