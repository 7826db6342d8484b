"""Page → triples extraction stage (stateless ``map_batches`` task).

The Ray Data mapping of SURVEY.md §2.1: each input row is one web page;
the batch body runs the one-pass HTML extractor, the JSON-LD expander and
the microdata/RDFa converters, resolves IRIs against the page URL, and
skolemizes blank nodes with the deterministic ``h(url‖extractor)`` suffix
(replacing the reference's per-parser-run UUID suffix,
``turtle/src/parser/_common/_inner.rs:23-47``).

Input schema:  (url, warc_ts, html, text, lang)   [html may be binary]
Output schema: url, extractor, error, + flat term columns
               (s_kind, s_lex, s_dt, s_lang, s_dir, p_*, o_*)
Error rows carry s_kind = -1 and a non-empty ``error`` (two-sided error
semantics — parse errors are rows, not job failures;
``api/src/source/_stream_error.rs:13``).

The heavy ``html`` column is consumed here and MUST NOT propagate further
(SURVEY §7.4 "project early").
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

import pyarrow as pa

from ..extract.html_page import extract_page
from ..ntriples import format_nt_table
from ..extract.to_triples import _Alloc, microdata_to_triples, rdfa_to_triples
from ..iri import BaseIri
from ..jsonld import JsonLdExpander
from ..sources.pages import skolem_suffix
from ..terms import KIND_BNODE, Term, format_term

_TERM_COLS = [
    "s_kind", "s_lex", "s_dt", "s_lang", "s_dir",
    "p_kind", "p_lex", "p_dt", "p_lang", "p_dir",
    "o_kind", "o_lex", "o_dt", "o_lang", "o_dir",
]

TRIPLES_SCHEMA = pa.schema(
    [("url", pa.large_string()), ("extractor", pa.string()),
     ("error", pa.string())]
    + [(c, pa.int8() if c.endswith(("kind", "dir")) else pa.large_string())
       for c in _TERM_COLS]
)


def _extract_pages(urls, htmls, push, push_error) -> None:
    """Shared per-page extraction driver: tokenize each page, expand the
    JSON-LD blocks, convert microdata/RDFa, and hand every (url,
    extractor, s, p, o) to ``push`` (term tuples, NOT yet skolemized)
    and every parse failure to ``push_error``.  The two batch kernels
    (flat term columns vs fused NT text) differ only in their sinks —
    a differential test pins them equal row-for-row."""
    for url, html in zip(urls, htmls):
        if isinstance(html, (bytes, bytearray, memoryview)):
            html = bytes(html).decode("utf-8", errors="replace")
        _text, ld_blocks, micro, rdfa = extract_page(html, want_text=False)
        try:
            base: Optional[BaseIri] = BaseIri(url)
        except ValueError:
            base = None

        counter = 0
        for blk in ld_blocks:
            exp = JsonLdExpander(url)
            exp.counter = counter  # labels stay unique across blocks of one page
            try:
                doc = json.loads(blk)
            except json.JSONDecodeError as e:
                push_error(url, "jsonld", f"json: {e}")
                continue
            try:
                trs = exp.to_rdf(doc)
            except (RecursionError, ValueError, TypeError, KeyError) as e:
                push_error(url, "jsonld", f"jsonld: {e}")
                continue
            counter = exp.counter
            for s, p, o, _g in trs:
                push(url, "jsonld", s, p, o)

        alloc = _Alloc(0)
        for s, p, o in microdata_to_triples(micro, base, alloc):
            push(url, "microdata", s, p, o)
        alloc2 = _Alloc(0)
        for s, p, o in rdfa_to_triples(rdfa, base, alloc2):
            push(url, "rdfa", s, p, o)


def extract_triples_batch(batch: pa.Table) -> pa.Table:
    """pyarrow batch of pages → pyarrow batch of flat triple rows."""
    urls = batch["url"].to_pylist()
    htmls = batch["html"].to_pylist()

    # one flat 18-field tuple per output row; the column split happens
    # once at the end via zip(*rows) (a C-level transpose) instead of
    # 18 Python list.append calls per triple
    rows: List[tuple] = []
    rows_append = rows.append
    _err_tail = (-1, "", "", "", -1) * 3

    BN = KIND_BNODE

    def push(url: str, extractor: str,
             s: Term, p: Term, o: Term) -> None:
        # the suffix digest is label-independent and lru-cached per
        # (url, extractor), so renaming is one concat per bnode term
        if s[0] == BN or p[0] == BN or o[0] == BN:
            sfx = skolem_suffix(url, extractor)
            if s[0] == BN:
                s = (BN, s[1] + sfx, s[2], s[3], s[4])
            if p[0] == BN:
                p = (BN, p[1] + sfx, p[2], p[3], p[4])
            if o[0] == BN:
                o = (BN, o[1] + sfx, o[2], o[3], o[4])
        rows_append((url, extractor, "") + s + p + o)

    def push_error(url: str, extractor: str, msg: str) -> None:
        rows_append((url, extractor, msg) + _err_tail)

    _extract_pages(urls, htmls, push, push_error)

    if rows:
        cols = list(zip(*rows))
    else:
        cols = [()] * (3 + len(_TERM_COLS))
    arrays = [pa.array(cols[0], pa.large_string()),
              pa.array(cols[1], pa.string()),
              pa.array(cols[2], pa.string())]
    for i, c in enumerate(_TERM_COLS):
        typ = pa.int8() if c.endswith(("kind", "dir")) else pa.large_string()
        arrays.append(pa.array(cols[3 + i], typ))
    return pa.Table.from_arrays(arrays, schema=TRIPLES_SCHEMA)


#: worker-persistent term→NT-text memo for the fused flagship kernel.
#: Extracted terms repeat heavily (measured ~16× per sf0.1 batch:
#: predicates, rdf:type objects, shared entity IRIs), and template
#: sites repeat them across batches for the life of the worker.
_NT_MEMO: dict = {}
_NT_MEMO_MAX = 1 << 16


def extract_nt_batch(batch: pa.Table,
                     keep: Tuple[str, ...] = ()) -> pa.Table:
    """Fused pages → canonical NT text (s, p, o) kernel — the flagship
    hot path.  Equivalent to ``format_triples_batch(
    extract_triples_batch(batch), keep=keep)`` (differential-pinned in
    ``tests/test_extract.py``) but skips the 18-column flat-term
    intermediate and its Arrow round-trip entirely: each term formats
    ONCE per distinct value via a worker-persistent memo and lands
    directly in the three output string columns.  Parse-error rows are
    dropped (exactly what the format stage does).  Measured ~1.25× on
    the extract stage at sf0.1 (BASELINE.md round 5)."""
    urls = batch["url"].to_pylist()
    htmls = batch["html"].to_pylist()

    keep_url = "url" in keep
    s_col: List[str] = []
    p_col: List[str] = []
    o_col: List[str] = []
    u_col: List[str] = []
    s_app, p_app, o_app, u_app = (s_col.append, p_col.append,
                                  o_col.append, u_col.append)
    memo = _NT_MEMO
    memo_get = memo.get
    BN = KIND_BNODE

    def fmt(t: Term) -> str:
        v = memo_get(t)
        if v is None:
            if len(memo) >= _NT_MEMO_MAX:
                memo.clear()
            memo[t] = v = format_term(t)
        return v

    def push(url: str, extractor: str,
             s: Term, p: Term, o: Term) -> None:
        if s[0] == BN or p[0] == BN or o[0] == BN:
            sfx = skolem_suffix(url, extractor)
            if s[0] == BN:
                s = (BN, s[1] + sfx, s[2], s[3], s[4])
            if p[0] == BN:
                p = (BN, p[1] + sfx, p[2], p[3], p[4])
            if o[0] == BN:
                o = (BN, o[1] + sfx, o[2], o[3], o[4])
        s_app(fmt(s))
        p_app(fmt(p))
        o_app(fmt(o))
        if keep_url:
            u_app(url)

    def push_error(url: str, extractor: str, msg: str) -> None:
        pass  # error rows carry no triple; the NT surface drops them

    _extract_pages(urls, htmls, push, push_error)

    data = {}
    if keep_url:
        data["url"] = pa.array(u_col, pa.large_string())
    data["s"] = pa.array(s_col, pa.large_string())
    data["p"] = pa.array(p_col, pa.large_string())
    data["o"] = pa.array(o_col, pa.large_string())
    return pa.table(data)


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """pages → (url, text) via the deterministic visible-text extractor
    (the byte-identical-per-url invariant surface)."""
    urls = batch["url"].to_pylist()
    htmls = batch["html"].to_pylist()
    texts = []
    for html in htmls:
        if isinstance(html, (bytes, bytearray, memoryview)):
            html = bytes(html).decode("utf-8", errors="replace")
        texts.append(extract_page(html)[0])
    return pa.table({"url": pa.array(urls, pa.large_string()),
                     "text": pa.array(texts, pa.large_string())})


def format_triples_batch(batch: pa.Table, keep: Tuple[str, ...] = ("url",)) -> pa.Table:
    """flat term columns → canonical NT text columns (s, p, o) +
    carried-over columns. Drops error rows."""
    ok = pa.compute.not_equal(batch["s_kind"], pa.scalar(-1, pa.int8()))
    batch = batch.filter(ok)
    txt = format_nt_table(batch)
    data = {k: batch[k] for k in keep if k in batch.column_names}
    data.update({"s": txt["s"], "p": txt["p"], "o": txt["o"]})
    return pa.table(data)
