"""Registry backing ``__ray_entry__.queries()`` / ``oracle_sql()``.

Each entry is one operator/pipeline from SURVEY.md §2 (or a north-rule
training-data op), as ``name -> (callable(sf_dir) -> Dataset|Table,
oracle_sql | None)``. SQL-expressible entries carry an exact DuckDB
oracle (identical column names + matching rounding semantics); the rest
are rows-only checked by the driver and covered by pytest oracles
instead.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..terms import format_term

from . import relational as R
from .doc_triples import DC_LANGUAGE, DOC_TRIPLES_SQL, doc_triples

Registry = Dict[str, Tuple[Callable, Optional[str]]]


# ---------------------------------------------------------------------------
# graph operators over the doc-triples table (SQL-checkable)
# ---------------------------------------------------------------------------

def _triples_dedup(sf_dir: str):
    """SetGraph semantics: bag-union of the table with itself dedups back
    to the set (api/src/graph.rs:570 / SURVEY §2.8)."""
    from ..stages.dedup import dedup_triples

    ds = doc_triples(sf_dir)
    return dedup_triples(ds.union(doc_triples(sf_dir)), carry_min=())


def _sparql_describe(sf_dir: str):
    """DESCRIBE <doc/7> <doc/11> over the doc-triples graph — the
    symmetric bounded description (run.describe; reference
    resource/_struct.rs semantics).  Doc subjects have no blank nodes,
    so the closure is exactly the subject-or-object scan the oracle
    reproduces."""
    from ..sparql.run import describe

    return describe(
        "DESCRIBE <http://kg.example/doc/7> <http://kg.example/doc/11>",
        doc_triples(sf_dir))


SPARQL_DESCRIBE_SQL = f"""
SELECT s, p, o FROM ({{DT}})
WHERE s IN ('<http://kg.example/doc/7>', '<http://kg.example/doc/11>')
   OR o IN ('<http://kg.example/doc/7>', '<http://kg.example/doc/11>')
""".replace("{DT}", DOC_TRIPLES_SQL)


TRIPLES_DEDUP_SQL = f"""
SELECT DISTINCT s, p, o FROM (
  {DOC_TRIPLES_SQL} UNION ALL {DOC_TRIPLES_SQL}
)
"""


def _predicate_count(sf_dir: str):
    """POS-index-style aggregate: triples per predicate, with per-batch
    partial aggregation before the exchange."""
    from ..functions.exchange import hash_aggregate

    ds = doc_triples(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"p": b["p"], "one": pa.array([1] * len(b), pa.int64())})
        return t.group_by("p").aggregate([("one", "sum")])

    def _gsum(t: pa.Table) -> pa.Table:
        return t.group_by(["p"]).aggregate(
            [("one_sum", "sum")]).rename_columns(["p", "one_sum"])

    def _final(t: pa.Table) -> pa.Table:
        return _gsum(t).rename_columns(["p", "n"])

    return hash_aggregate(ds.map_batches(partial, batch_format="pyarrow"),
                          ["p"], _gsum, _final)


PREDICATE_COUNT_SQL = f"""
SELECT p, count(*) AS n FROM ({DOC_TRIPLES_SQL}) GROUP BY p
"""


def _subjects_distinct(sf_dir: str):
    """`Graph::subjects()` projection with dedup (api/src/graph.rs:193)."""
    from ..functions.exchange import grouped

    return grouped(doc_triples(sf_dir).map_batches(
        lambda b: b.select(["s"]), batch_format="pyarrow"), ["s"])


SUBJECTS_DISTINCT_SQL = f"SELECT DISTINCT s FROM ({DOC_TRIPLES_SQL})"


def _triples_matching(sf_dir: str):
    """`triples_matching(Any, <dc:language>, Any)` — constant-predicate
    pattern filter (api/src/graph.rs:160-174)."""
    ds = doc_triples(sf_dir)
    pred = f"<{DC_LANGUAGE}>"
    return ds.map_batches(
        lambda b: b.filter(pc.equal(b["p"], pa.scalar(pred))).select(["s", "o"]),
        batch_format="pyarrow")


TRIPLES_MATCHING_SQL = f"""
SELECT s, o FROM ({DOC_TRIPLES_SQL}) WHERE p = '<{DC_LANGUAGE}>'
"""


def _resource_view(sf_dir: str):
    """Distributed Resource-API pivot (resource/src/resource/_struct.rs
    getter semantics at corpus scale): one row per subject with one
    column per predicate, via the hash exchange (resource.py)."""
    from ..resource import resource_view
    from .doc_triples import DC_SOURCE, EX_NCHARS

    ds = doc_triples(sf_dir)
    return resource_view(ds, {"lang": DC_LANGUAGE, "source": DC_SOURCE,
                              "nchars": EX_NCHARS}, num_partitions=8)


RESOURCE_VIEW_SQL = f"""
SELECT s,
       min(CASE WHEN p = '<{DC_LANGUAGE}>' THEN o END) AS lang,
       min(CASE WHEN p = '<http://purl.org/dc/terms/source>' THEN o END)
         AS source,
       min(CASE WHEN p = '<http://kg.example/nchars>' THEN o END) AS nchars
FROM ({DOC_TRIPLES_SQL})
GROUP BY s
"""


def _sort_spo_limit(sf_dir: str):
    """Term-order sort (SPO) + LIMIT (exec.rs:826-941; both engines sort
    the canonical NT byte strings, ASCII → identical collation).
    Top-k push-down: blocks keep a local top-100 before the exchange."""
    from ..util import topk

    return topk(doc_triples(sf_dir), ["s", "p", "o"], 100)


SORT_SPO_SQL = f"SELECT s, p, o FROM ({DOC_TRIPLES_SQL}) ORDER BY s, p, o LIMIT 100"


def _turtle_roundtrip(sf_dir: str):
    """doc_triples → pretty Turtle chunks (per-partition serializer after
    sort('s'), SURVEY §2.2) → Turtle parser → NT rows. End-to-end parity
    with the direct pipeline = parser+serializer correctness, oracle-
    checked against the plain doc_triples SQL."""
    from ..turtle import format_turtle_batch, parse_turtle

    ds = doc_triples(sf_dir).sort("s")
    ttl = ds.map_batches(lambda b: format_turtle_batch(b, emit_prefixes=True),
                         batch_format="pyarrow")

    def parse_chunk(b: pa.Table) -> pa.Table:
        s_out, p_out, o_out = [], [], []
        for text in b["turtle"].to_pylist():
            for (s, p, o) in parse_turtle(text):
                s_out.append(format_term(s))
                p_out.append(format_term(p))
                o_out.append(format_term(o))
        return pa.table({"s": s_out, "p": p_out, "o": o_out})

    return ttl.map_batches(parse_chunk, batch_format="pyarrow")


TURTLE_ROUNDTRIP_SQL = f"SELECT s, p, o FROM ({DOC_TRIPLES_SQL})"


def _rdfxml_roundtrip(sf_dir: str):
    """doc_triples → RDF/XML document per batch (subject-grouped
    serializer) → RDF/XML parser → NT rows; oracle-checked end-to-end
    parity (xml/src/{parser,serializer}.rs)."""
    from ..rdfxml import format_rdfxml_batch, parse_rdfxml_batch

    ds = doc_triples(sf_dir)
    docs = ds.map_batches(
        lambda b: pa.table(format_rdfxml_batch(
            {c: b[c].to_pylist() for c in ("s", "p", "o")})),
        batch_format="pyarrow")

    def parse_chunk(b: pa.Table) -> pa.Table:
        out = parse_rdfxml_batch(b["xml"].to_pylist())
        ok = [i for i, e in enumerate(out["error"]) if not e]
        return pa.table({
            "s": pa.array([out["s"][i] for i in ok], pa.large_string()),
            "p": pa.array([out["p"][i] for i in ok], pa.large_string()),
            "o": pa.array([out["o"][i] for i in ok], pa.large_string())})

    return docs.map_batches(parse_chunk, batch_format="pyarrow")


RDFXML_ROUNDTRIP_SQL = f"SELECT s, p, o FROM ({DOC_TRIPLES_SQL})"


def _jsonld_roundtrip(sf_dir: str):
    """doc_triples → flattened-expanded JSON-LD per batch → our JSON-LD
    expander → NT rows; end-to-end serializer/parser parity
    (jsonld/src/{serializer,parser}.rs)."""
    from ..jsonld import format_jsonld_batch, jsonld_to_triples

    ds = doc_triples(sf_dir)
    docs = ds.map_batches(
        lambda b: pa.table(format_jsonld_batch(
            {c: b[c].to_pylist() for c in ("s", "p", "o")})),
        batch_format="pyarrow")

    def parse_chunk(b: pa.Table) -> pa.Table:
        s_out, p_out, o_out = [], [], []
        for text in b["jsonld"].to_pylist():
            trs, err = jsonld_to_triples(text)
            assert err is None, err
            for (s, p, o, _g) in trs:
                s_out.append(format_term(s))
                p_out.append(format_term(p))
                o_out.append(format_term(o))
        return pa.table({"s": pa.array(s_out, pa.large_string()),
                         "p": pa.array(p_out, pa.large_string()),
                         "o": pa.array(o_out, pa.large_string())})

    return docs.map_batches(parse_chunk, batch_format="pyarrow")


JSONLD_ROUNDTRIP_SQL = f"SELECT s, p, o FROM ({DOC_TRIPLES_SQL})"


def _jsonld_included_roundtrip(sf_dir: str):
    """doc_triples → a JSON-LD 1.1 document whose nodes ride inside an
    ALIASED ``@included`` block under a ``@protected`` context (with an
    identical protected redefinition on the wrapper node — the allowed
    case) → our expander → NT rows.  End-to-end coverage of the 1.1
    keywords closed in r5 (reference jsonld/src/options.rs:117-142,
    json_ld-crate expansion via jsonld/src/parser.rs:42); unit matrix
    in tests/test_jsonld11.py."""
    import json as _json

    from ..jsonld import jsonld_to_triples, serialize_jsonld
    from ..ntriples import parse_term_text

    ds = doc_triples(sf_dir)

    def ser(b: pa.Table) -> pa.Table:
        trs = [(parse_term_text(s), parse_term_text(p),
                parse_term_text(o))
               for s, p, o in zip(b["s"].to_pylist(), b["p"].to_pylist(),
                                  b["o"].to_pylist())]
        nodes = _json.loads(serialize_jsonld(trs))
        doc = {
            "@context": {"@protected": True, "incl": "@included",
                         "dc": "http://purl.org/dc/terms/"},
            # identical redefinition of a protected term: legal per
            # JSON-LD 1.1 §4.1.11, exercised on every document
            "incl": [{"@context": {"incl": "@included"}, **n}
                     for n in nodes[:1]] + nodes[1:],
        }
        return pa.table({"jsonld": pa.array([_json.dumps(doc)],
                                            pa.large_string())})

    docs = ds.map_batches(ser, batch_format="pyarrow")

    def parse_chunk(b: pa.Table) -> pa.Table:
        s_out, p_out, o_out = [], [], []
        for text in b["jsonld"].to_pylist():
            trs, err = jsonld_to_triples(text)
            assert err is None, err
            for (s, p, o, _g) in trs:
                s_out.append(format_term(s))
                p_out.append(format_term(p))
                o_out.append(format_term(o))
        return pa.table({"s": pa.array(s_out, pa.large_string()),
                         "p": pa.array(p_out, pa.large_string()),
                         "o": pa.array(o_out, pa.large_string())})

    return docs.map_batches(parse_chunk, batch_format="pyarrow")


JSONLD_INCLUDED_ROUNDTRIP_SQL = f"SELECT s, p, o FROM ({DOC_TRIPLES_SQL})"


def _jsonld_compact_roundtrip(sf_dir: str):
    """doc_triples → COMPACTED JSON-LD per batch (term/CURIE/@vocab +
    typed-value folding against a caller context; reference
    jsonld/src/serializer/engine.rs compaction options) → our expander
    → NT rows.  Oracle = the plain doc_triples SQL, so the compaction
    must be perfectly information-preserving."""
    from ..jsonld import jsonld_to_triples, serialize_jsonld
    from ..ntriples import parse_term_text

    ctx = {
        "dc": "http://purl.org/dc/terms/",
        "Document": "http://kg.example/Document",
        "nchars": {"@id": "http://kg.example/nchars",
                   "@type": "http://www.w3.org/2001/XMLSchema#integer"},
    }
    ds = doc_triples(sf_dir)

    def ser(b: pa.Table) -> pa.Table:
        trs = [(parse_term_text(s), parse_term_text(p),
                parse_term_text(o))
               for s, p, o in zip(b["s"].to_pylist(), b["p"].to_pylist(),
                                  b["o"].to_pylist())]
        return pa.table({"jsonld": pa.array(
            [serialize_jsonld(trs, context=ctx)], pa.large_string())})

    docs = ds.map_batches(ser, batch_format="pyarrow")

    def parse_chunk(b: pa.Table) -> pa.Table:
        s_out, p_out, o_out = [], [], []
        for text in b["jsonld"].to_pylist():
            trs, err = jsonld_to_triples(text)
            assert err is None, err
            for (s, p, o, _g) in trs:
                s_out.append(format_term(s))
                p_out.append(format_term(p))
                o_out.append(format_term(o))
        return pa.table({"s": pa.array(s_out, pa.large_string()),
                         "p": pa.array(p_out, pa.large_string()),
                         "o": pa.array(o_out, pa.large_string())})

    return docs.map_batches(parse_chunk, batch_format="pyarrow")


JSONLD_COMPACT_ROUNDTRIP_SQL = f"SELECT s, p, o FROM ({DOC_TRIPLES_SQL})"


def _c14n_normalize(sf_dir: str):
    """Whole-dataset RDFC-1.0 over the (bnode-free) doc-triples table →
    sorted canonical N-Quads lines (c14n/src/rdfc10.rs:28-105)."""
    from ..stages.c14n_stage import c14n_dataset

    out = c14n_dataset(doc_triples(sf_dir))
    return out.map_batches(lambda b: b.select(["nq"]), batch_format="pyarrow")


C14N_NORMALIZE_SQL = f"""
SELECT s || ' ' || p || ' ' || o || ' .' || chr(10) AS nq
FROM ({DOC_TRIPLES_SQL})
"""


# ---------------------------------------------------------------------------
# training-data ops over documents / embeddings
# ---------------------------------------------------------------------------

def _docs(sf_dir: str, columns, filter=None):
    """The documents table as the raw-task Parquet source
    (``exchange.parquet_blocks``): the one reader of documents.parquet
    here.  Exchanges, :func:`_map_docs` and the broadcast gates take
    it as it is."""
    from ..functions.exchange import parquet_blocks

    return parquet_blocks(f"{sf_dir}/documents.parquet", columns, filter)


def _docs_ds(sf_dir: str, columns, filter=None):
    """:func:`_docs` as a Dataset, for plans that go on with Ray Data
    operations."""
    import ray.data as rd

    return rd.from_arrow_refs(list(_docs(sf_dir, columns, filter)))


def _map_docs(sf_dir: str, columns, fn):
    """The map-only plan: ``fn`` once per documents block, one raw task
    each → a Dataset of the results."""
    import ray.data as rd

    from ..functions.exchange import map_blocks

    return rd.from_arrow_refs(map_blocks(_docs(sf_dir, columns), fn))


def _dedup_exact_docs(sf_dir: str):
    """Exact near... exact duplicate grouping by full text content:
    hash-partition on content key, keep min(doc_id) + multiplicity."""

    def keyed(b: pa.Table) -> pa.Table:
        import hashlib
        keys = [hashlib.sha256((t or "").encode()).hexdigest()
                for t in b["text"].to_pylist()]
        t = pa.table({"k": pa.array(keys), "doc_id": b["doc_id"],
                      "one": pa.array([1] * len(b), pa.int64())})
        return t.group_by("k").aggregate([("doc_id", "min"), ("one", "sum")])

    from ..functions.exchange import hash_aggregate

    def _merge(t: pa.Table) -> pa.Table:
        return t.group_by(["k"]).aggregate(
            [("doc_id_min", "min"), ("one_sum", "sum")]) \
            .rename_columns(["k", "doc_id_min", "one_sum"])

    def _final(t: pa.Table) -> pa.Table:
        return _merge(t).rename_columns(["k", "rep_id", "n_dups"]) \
            .select(["rep_id", "n_dups"])

    return hash_aggregate(_docs(sf_dir, ["doc_id", "text"]), ["k"], keyed,
                          _final)


DEDUP_EXACT_SQL = """
SELECT min(doc_id) AS rep_id, count(*) AS n_dups
FROM documents GROUP BY coalesce(text, '')
"""


def _token_counts(sf_dir: str):
    from ..functions.text import token_count_batch

    return _map_docs(sf_dir, ["doc_id", "text"], token_count_batch)


TOKEN_COUNTS_SQL = r"""
SELECT doc_id,
       len(list_filter(string_split_regex(coalesce(text, ''), '\s+'),
                       x -> x <> '')) AS n_tokens
FROM documents
"""


def _quality(sf_dir: str):
    from ..functions.text import quality_batch

    return _map_docs(sf_dir, ["doc_id", "text"], quality_batch)


QUALITY_SQL = r"""
SELECT doc_id,
       length(coalesce(text, '')) AS n_chars,
       len(list_filter(string_split_regex(coalesce(text, ''), '\s+'),
                       x -> x <> '')) AS n_tokens,
       cast(coalesce(list_aggregate(list_transform(
           list_filter(string_split_regex(coalesce(text, ''), '\s+'),
                       x -> x <> ''),
           x -> length(x)), 'sum'), 0) AS BIGINT) AS token_chars,
       length(regexp_replace(coalesce(text, ''), '[^a-zA-Z]', '', 'g'))
           AS alpha_chars
FROM documents
"""


def _winnow_fingerprints(sf_dir: str):
    """Winnowing document fingerprints (rolling k-gram hash + rightmost
    window minimum; Schleimer et al. SIGMOD'03) — the guarantee-bearing
    fingerprint family of the dedup suite (any shared substring of
    length >= k+w-1 shares a fingerprint).  Stateless vectorized map
    per block; md5 gram hashes reproduce exactly in the SQL oracle."""
    from ..functions.text import winnow_fingerprints_batch

    return _map_docs(sf_dir, ["doc_id", "text"], winnow_fingerprints_batch)


WINNOW_SQL = """
WITH grams AS (
  SELECT doc_id, coalesce(text, '') AS text,
         UNNEST(range(1, length(coalesce(text, '')) - 14)) AS i
  FROM documents WHERE length(coalesce(text, '')) >= 23
), gh AS (
  SELECT doc_id, CAST(i AS BIGINT) AS i,
         CAST('0x' || substr(md5(substr(text, CAST(i AS INT), 16)), 1, 15)
              AS BIGINT) AS h
  FROM grams
), wins AS (
  SELECT doc_id, i AS ws,
         min(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW AND 7 FOLLOWING) AS wmin,
         count(*) OVER (PARTITION BY doc_id ORDER BY i
                        ROWS BETWEEN CURRENT ROW AND 7 FOLLOWING) AS cnt
  FROM gh
), sel AS (
  SELECT w.doc_id, w.ws, max(g.i) AS pos, w.wmin AS fp
  FROM (SELECT * FROM wins WHERE cnt = 8) w
  JOIN gh g ON g.doc_id = w.doc_id
           AND g.i BETWEEN w.ws AND w.ws + 7 AND g.h = w.wmin
  GROUP BY w.doc_id, w.ws, w.wmin
)
SELECT DISTINCT doc_id, pos, fp FROM sel
"""


def _repetition(sf_dir: str):
    from ..functions.text import repetition_batch

    return _map_docs(sf_dir, ["doc_id", "text"], repetition_batch)


REPETITION_SQL = r"""
WITH toks AS (
  SELECT doc_id, tok, i FROM (
    SELECT doc_id,
           unnest(string_split_regex(coalesce(text, ''), '\s+')) AS tok,
           generate_subscripts(
               string_split_regex(coalesce(text, ''), '\s+'), 1) AS i
    FROM documents)
  WHERE tok <> ''
), freq AS (
  SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY 1, 2
), tc AS (
  SELECT doc_id, cast(sum(c) AS BIGINT) AS n_tokens,
         cast(count(*) AS BIGINT) AS n_distinct,
         cast(max(c) AS BIGINT) AS top_token_count
  FROM freq GROUP BY 1
), bf AS (
  SELECT doc_id, cast(max(c) AS BIGINT) AS top_bigram_count FROM (
    SELECT a.doc_id, a.tok || ' ' || b.tok AS bg, count(*) AS c
    FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.i = a.i + 1
    GROUP BY 1, 2)
  GROUP BY 1
)
SELECT d.doc_id,
       coalesce(tc.n_tokens, 0) AS n_tokens,
       coalesce(tc.n_distinct, 0) AS n_distinct,
       coalesce(tc.top_token_count, 0) AS top_token_count,
       coalesce(bf.top_bigram_count, 0) AS top_bigram_count
FROM documents d
LEFT JOIN tc ON d.doc_id = tc.doc_id
LEFT JOIN bf ON d.doc_id = bf.doc_id
"""


def _gopher_kept(b: pa.Table) -> pa.Table:
    """(doc_id, text) block → its documents passing the Gopher-style
    quality filter (Rae et al. 2021 §A1.1) as (doc_id, text, n_tokens):
    token count in [40, 100k], mean token length in (2, 12), alpha
    ratio > 0.6, duplicate-token fraction < 0.9, top-bigram fraction
    < 0.18.  The quality and repetition features are computed over the
    same block rows (a document lives whole in one block — no join),
    and every ratio comparison is an integer cross-multiplication, so
    the oracle is hash-exact (no float rounding)."""
    from ..functions.text import quality_batch, repetition_batch

    q = quality_batch(b)
    r = repetition_batch(b)
    nt = q["n_tokens"]
    tc = q["token_chars"]
    al = q["alpha_chars"]
    nc = q["n_chars"]
    nd = r["n_distinct"]
    bg = r["top_bigram_count"]
    m = pc.and_(pc.greater_equal(nt, pa.scalar(40)),
                pc.less_equal(nt, pa.scalar(100_000)))
    # 2 < mean token len < 12  ⇔  2·n_tokens < token_chars < 12·n_tokens
    m = pc.and_(m, pc.greater(tc, pc.multiply(nt, pa.scalar(2))))
    m = pc.and_(m, pc.less(tc, pc.multiply(nt, pa.scalar(12))))
    # alpha ratio > 0.6  ⇔  5·alpha > 3·n_chars
    m = pc.and_(m, pc.greater(pc.multiply(al, pa.scalar(5)),
                              pc.multiply(nc, pa.scalar(3))))
    # dup fraction < 0.9  ⇔  n_tokens - n_distinct < 0.9·n_tokens
    #                     ⇔  10·n_distinct > n_tokens
    m = pc.and_(m, pc.greater(pc.multiply(nd, pa.scalar(10)), nt))
    # top-bigram fraction < 0.18  ⇔  50·top_bigram < 9·n_tokens
    m = pc.and_(m, pc.less(pc.multiply(bg, pa.scalar(50)),
                           pc.multiply(nt, pa.scalar(9))))
    return pa.table({"doc_id": b["doc_id"], "text": b["text"],
                     "n_tokens": nt}).filter(m)


def _quality_filter(sf_dir: str):
    """Composed Gopher-style quality FILTER: one stateless map of
    :func:`_gopher_kept` over the documents → (doc_id, n_tokens)."""
    return _map_docs(sf_dir, ["doc_id", "text"],
                     lambda b: _gopher_kept(b).select(["doc_id", "n_tokens"]))


QUALITY_FILTER_SQL = r"""
WITH toks AS (
  SELECT doc_id, tok, i FROM (
    SELECT doc_id,
           unnest(string_split_regex(coalesce(text, ''), '\s+')) AS tok,
           generate_subscripts(
               string_split_regex(coalesce(text, ''), '\s+'), 1) AS i
    FROM documents)
  WHERE tok <> ''
), tc AS (
  SELECT doc_id, cast(count(*) AS BIGINT) AS n_tokens,
         cast(count(DISTINCT tok) AS BIGINT) AS n_distinct,
         cast(sum(length(tok)) AS BIGINT) AS token_chars
  FROM toks GROUP BY 1
), bf AS (
  SELECT doc_id, cast(max(c) AS BIGINT) AS top_bigram FROM (
    SELECT a.doc_id, a.tok || ' ' || b.tok AS bg, count(*) AS c
    FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.i = a.i + 1
    GROUP BY 1, 2)
  GROUP BY 1
)
SELECT d.doc_id, tc.n_tokens
FROM documents d
JOIN tc ON d.doc_id = tc.doc_id
LEFT JOIN bf ON d.doc_id = bf.doc_id
WHERE tc.n_tokens BETWEEN 40 AND 100000
  AND tc.token_chars > 2 * tc.n_tokens
  AND tc.token_chars < 12 * tc.n_tokens
  AND 5 * length(regexp_replace(d.text, '[^a-zA-Z]', '', 'g'))
      > 3 * length(d.text)
  AND 10 * tc.n_distinct > tc.n_tokens
  AND 50 * coalesce(bf.top_bigram, 0) < 9 * tc.n_tokens
"""


def _normalize_docs(sf_dir: str):
    """Text normalization pass (NFC + lowercase + ws-collapse + trim):
    the hygiene step before any fingerprint/dedup family.  Pure Arrow
    kernels, stateless map — streams at any scale."""
    from ..functions.text import normalize_batch

    return _map_docs(sf_dir, ["doc_id", "text"], normalize_batch)


NORMALIZE_DOCS_SQL = r"""
SELECT doc_id,
       trim(regexp_replace(lower(nfc_normalize(text)), '\s+', ' ', 'g'),
            ' ') AS norm_text,
       length(trim(regexp_replace(lower(nfc_normalize(text)), '\s+', ' ',
                                  'g'), ' ')) AS n_chars_norm
FROM documents
"""


def _pii_redact(sf_dir: str):
    """PII scrub over documents (emails / IPv4 / long digit runs) with
    per-category match counts.  RE2 kernels on both the Ray and the
    DuckDB side, so semantics agree byte-for-byte."""
    from ..functions.text import pii_redact_batch

    return _map_docs(sf_dir, ["doc_id", "text"], pii_redact_batch)


def _pii_sql() -> str:
    from ..functions.text import PII_EMAIL, PII_IPV4, PII_NUM

    # '' escaping: patterns contain no single quotes
    return f"""
SELECT doc_id,
       regexp_replace(regexp_replace(regexp_replace(text,
           '{PII_EMAIL}', '[EMAIL]', 'g'),
           '{PII_IPV4}', '[IP]', 'g'),
           '{PII_NUM}', '[NUM]', 'g') AS redacted,
       CAST(len(regexp_extract_all(text, '{PII_EMAIL}')) AS BIGINT)
           AS n_email,
       CAST(len(regexp_extract_all(text, '{PII_IPV4}')) AS BIGINT) AS n_ip,
       CAST(len(regexp_extract_all(text, '{PII_NUM}')) AS BIGINT) AS n_num
FROM documents
"""


def _per_doc_sums(rows, docs, zero: dict, finalize=None):
    """The per-document tail: ``rows`` (block refs of doc_id + the
    columns of ``zero``) and one ``zero`` row per document of the
    source ``docs`` summed per doc_id through one exchange, then
    ``finalize``d — so every document appears, one without rows with
    the zero sums.  A partition whose blocks all lost their schema sums
    to the typed empty."""
    from ..functions.exchange import auto_partitions, grouped, map_blocks

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      **{c: pa.array([v])[:0] for c, v in zero.items()}})

    def zeros(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"],
                         **{c: np.full(len(b), v) for c, v in zero.items()}})

    def fin(t: pa.Table) -> pa.Table:
        if not set(empty.column_names) <= set(t.column_names):
            t = empty
        return t if finalize is None else finalize(t)

    return grouped(list(rows) + map_blocks(docs, zeros), ["doc_id"],
                   [(c, "sum") for c in zero], finalize=fin,
                   num_partitions=auto_partitions(docs))


def _novel_bigrams(sf_dir: str):
    """Per-document count of corpus-unique bigrams (bigrams appearing
    in exactly one document) — a rarity/novelty signal for curriculum
    and dedup triage.  Plan: per-doc distinct (bigram, doc_id) pairs →
    hash exchange on the bigram (per-bigram doc counts, keep
    singletons) → the per-document tail (:func:`_per_doc_sums`)."""
    from ..functions.exchange import hash_aggregate_refs
    from ..functions.text import ngram_batch

    docs = _docs(sf_dir, ["doc_id", "text"])

    # pairs are globally distinct (distinct-per-doc, doc in one block).
    # Block-level cap combiner (segment_dedup's trick): a bigram seen
    # in >=2 docs within one block is globally non-novel either way, so
    # within-block copies beyond the 2nd carry no information — cap at
    # 2 rows per bigram per block.  A corpus-common bigram then costs
    # <=2 rows per block on the wire instead of one row per containing
    # document.
    def cap_pairs(b: pa.Table) -> pa.Table:
        import polars as pl
        df = pl.from_arrow(ngram_batch(b, 2, "bigram", distinct=True))
        return df.filter(
            pl.int_range(pl.len()).over("bigram") < 2).to_arrow()

    def per_bigram(t: pa.Table) -> pa.Table:
        g = t.group_by(["bigram"]).aggregate([("doc_id", "count"),
                                              ("doc_id", "max")])
        g = g.rename_columns(["bigram", "nd", "only_doc"])
        f = g.filter(pc.equal(g["nd"], pa.scalar(1, pa.int64())))
        return pa.table({"doc_id": f["only_doc"],
                         "novel_bigrams": pa.array([1] * f.num_rows,
                                                   pa.int64())})

    singles = hash_aggregate_refs(docs, ["bigram"], cap_pairs, per_bigram)
    return _per_doc_sums(singles, docs, {"novel_bigrams": 0})


NOVEL_BIGRAMS_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(coalesce(text, ''), '\s+'),
                     x -> x <> '') AS ts
  FROM documents
), bg AS (
  SELECT DISTINCT doc_id, bigram FROM (
    SELECT doc_id,
           unnest([ts[i] || ' ' || ts[i+1] for i in range(1, len(ts))])
               AS bigram
    FROM toks)
), singles AS (
  SELECT max(doc_id) AS doc_id FROM bg GROUP BY bigram
  HAVING count(*) = 1
)
SELECT d.doc_id,
       CAST(coalesce(n.c, 0) AS BIGINT) AS novel_bigrams
FROM documents d
LEFT JOIN (SELECT doc_id, count(*) AS c FROM singles GROUP BY 1) n
  ON d.doc_id = n.doc_id
"""


#: benchmark = the fixed first docs of the corpus (doc_id < this) —
#: fixed SIZE regardless of corpus scale, like a real eval set (small
#: enough that the fuzz harness's 20-doc corpora keep non-bench docs)
DECONTAM_BENCH_MAX_ID = 10


def _shingle_pairs(b: pa.Table) -> pa.Table:
    """(doc_id, sh) per-document distinct ``SHINGLE_K``-token
    shingles of a (doc_id, text) block."""
    from ..functions.text import SHINGLE_K, ngram_batch

    return ngram_batch(b, SHINGLE_K, "sh", distinct=True)


def _bench_shingles(bench: pa.Table):
    """The distinct shingles of the gathered benchmark pairs."""
    if not bench.num_rows:
        return pa.array([], pa.string())
    return pc.unique(bench["sh"])


def _shingle_hits(t: pa.Table, bench) -> pa.Table:
    """(doc_id, n_contaminated): per corpus document of the (doc_id,
    sh) rows ``t``, how many of its shingles are in ``bench``."""
    rest = t.filter(pc.greater_equal(
        t["doc_id"], pa.scalar(DECONTAM_BENCH_MAX_ID, t["doc_id"].type)))
    hit = rest.filter(pc.is_in(rest["sh"], value_set=bench))
    return hit.group_by(["doc_id"]).aggregate([("sh", "count")]) \
        .rename_columns(["doc_id", "n_contaminated"])


def _decontaminate(sf_dir: str):
    """Benchmark decontamination: count, per corpus document, the
    DISTINCT ``SHINGLE_K``-token shingles it shares with a fixed
    benchmark/eval set (here: the corpus's first
    ``DECONTAM_BENCH_MAX_ID`` doc_ids, a deterministic stand-in for an
    external eval suite).  Docs with ≥1 shared shingle are the
    contamination-removal candidates every LLM training pipeline
    filters before training.  The benchmark side is a separate pruned
    read (row-group filter pushdown on doc_id).

    Default plan: the benchmark's shingle pairs (fixed-size by
    construction, gathered under the broadcast gate) are ``ray.put``
    once, and every task filters its own shingles against the
    node-local distinct set — no shuffle of the corpus side.  An
    over-gate benchmark routes to the distributed semi-join: shingle
    hash partitions resolve bench membership locally (plan equality
    pinned in tests/test_broadcast.py).  Either way the per-document
    tail adds a zero row per corpus document."""
    import ray

    from ..functions.broadcast import (BROADCAST_ROWS, gated_gather,
                                       worker_cached)
    from ..functions.exchange import hash_aggregate_refs, map_blocks

    bench = gated_gather(map_blocks(_docs(
        sf_dir, ["doc_id", "text"],
        filter=pc.field("doc_id") < DECONTAM_BENCH_MAX_ID), _shingle_pairs),
        BROADCAST_ROWS)
    docs = _docs(sf_dir, ["doc_id", "text"])
    if bench is None:
        def per_sh(t: pa.Table) -> pa.Table:
            if not {"doc_id", "sh"} <= set(t.column_names):
                # a schema-less empty: no hits
                return pa.table({"doc_id": pa.array([], pa.int64()),
                                 "n_contaminated": pa.array([], pa.int64())})
            lim = pa.scalar(DECONTAM_BENCH_MAX_ID, t["doc_id"].type)
            return _shingle_hits(t, pc.unique(
                t.filter(pc.less(t["doc_id"], lim))["sh"]))

        hits = hash_aggregate_refs(docs, ["sh"], _shingle_pairs, per_sh)
    else:
        ref = ray.put(bench)
        hits = map_blocks(docs, lambda b: _shingle_hits(
            _shingle_pairs(b), worker_cached(ref, _bench_shingles)))
    corpus = _docs(sf_dir, ["doc_id"],
                   filter=pc.field("doc_id") >= DECONTAM_BENCH_MAX_ID)
    return _per_doc_sums(hits, corpus, {"n_contaminated": 0})


def _decontaminate_sql() -> str:
    from ..functions.text import SHINGLE_K

    k1, k2 = SHINGLE_K - 1, SHINGLE_K - 2
    return rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(coalesce(text, ''), '\s+'),
                     x -> x <> '') AS tk
  FROM documents
), shingles AS (
  SELECT DISTINCT doc_id, sh FROM (
    SELECT doc_id,
           unnest([array_to_string(tk[i:i+{k1}], ' ')
                   for i in range(1, len(tk) - {k2})]) AS sh
    FROM toks)
), bench AS (
  SELECT DISTINCT sh FROM shingles WHERE doc_id < {DECONTAM_BENCH_MAX_ID}
), hits AS (
  SELECT s.doc_id, count(*) AS c
  FROM shingles s JOIN bench b USING (sh)
  WHERE s.doc_id >= {DECONTAM_BENCH_MAX_ID}
  GROUP BY s.doc_id
)
SELECT d.doc_id, CAST(coalesce(h.c, 0) AS BIGINT) AS n_contaminated
FROM documents d LEFT JOIN hits h ON d.doc_id = h.doc_id
WHERE d.doc_id >= {DECONTAM_BENCH_MAX_ID}
"""


#: tokens per packed training sequence — small enough that the sf0.001
#: corpus already spans several bins per source (threshold-straddling:
#: a budget the test tier never crosses would pin seq_id ≡ 0 and the
#: oracle could not catch binning regressions)
SEQ_PACK_BUDGET = 256


def _pack_sequences(sf_dir: str):
    """Concat-and-chunk sequence packing (GPT-style pretraining): per
    source, documents in doc_id order form one token stream chunked
    into ``SEQ_PACK_BUDGET``-token sequences; a doc's seq_id is the
    chunk its first token lands in (exclusive running sum // budget).
    One exchange on source; the cumsum is a vectorized polars window
    inside the partition — same partitioning assumption as
    sessionization (one source's docs fit one partition)."""
    from ..functions.exchange import hash_aggregate
    from ..functions.text import n_tokens

    def counted(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"], "source": b["source"],
                         "n_tokens": n_tokens(b)})

    def finalize(t: pa.Table) -> pa.Table:
        import polars as pl

        if "doc_id" not in t.column_names:   # schema-stripped empty
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "source": pa.array([], pa.large_string()),
                             "n_tokens": pa.array([], pa.int64()),
                             "seq_id": pa.array([], pa.int64())})
        df = pl.from_arrow(t).sort(["source", "doc_id"])
        df = df.with_columns(
            ((pl.col("n_tokens").cum_sum().over("source")
              - pl.col("n_tokens")) // SEQ_PACK_BUDGET).alias("seq_id"))
        out = df.to_arrow()
        return pa.table({
            "doc_id": out["doc_id"].cast(t["doc_id"].type),
            "source": out["source"].cast(t["source"].type),
            "n_tokens": out["n_tokens"].cast(pa.int64()),
            "seq_id": out["seq_id"].cast(pa.int64())})

    return hash_aggregate(_docs(sf_dir, ["doc_id", "source", "text"]),
                          ["source"], counted, finalize)


PACK_SEQUENCES_SQL = rf"""
WITH nt AS (
  SELECT doc_id, source,
         len(list_filter(string_split_regex(coalesce(text, ''), '\s+'),
                         x -> x <> '')) AS n_tokens
  FROM documents
)
SELECT doc_id, source, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST((sum(n_tokens) OVER (PARTITION BY source ORDER BY doc_id)
             - n_tokens) // {SEQ_PACK_BUDGET} AS BIGINT) AS seq_id
FROM nt
"""


def _source_stats(sf_dir: str):
    """Per-source corpus stats (doc count, chars, tokens): the
    domain-level aggregation every crawl-curation pipeline starts
    with.  Per-batch partial aggregate → tiny final exchange; only
    |sources| rows shuffle."""
    from ..functions.exchange import hash_aggregate
    from ..functions.text import n_tokens

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"source": b["source"],
                      "n_docs": pa.array([1] * len(b), pa.int64()),
                      "total_chars": b["n_chars"],
                      "total_tokens": n_tokens(b)})
        return _merge_sources(t)

    def _merge_sources(t: pa.Table) -> pa.Table:
        return t.group_by(["source"]).aggregate(
            [("n_docs", "sum"), ("total_chars", "sum"),
             ("total_tokens", "sum")]) \
            .rename_columns(["source", "n_docs", "total_chars",
                             "total_tokens"])

    return hash_aggregate(_docs(sf_dir, ["source", "n_chars", "text"]),
                          ["source"], partial, _merge_sources)


SOURCE_STATS_SQL = r"""
SELECT source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS total_chars,
       CAST(sum(len(list_filter(string_split_regex(coalesce(text, ''),
            '\s+'), x -> x <> ''))) AS BIGINT) AS total_tokens
FROM documents GROUP BY source
"""


def _segment_dedup(sf_dir: str):
    """CCNet-style paragraph-level dedup: drop every segment whose
    normalized form occurs more than once in the WHOLE corpus, then
    reassemble each document's surviving text in original order.

    Plan (two exchanges, no broadcast, no driver pull):
      explode docs into fixed-token segments (stateless map) →
      hash exchange on the segment string; combine caps within-block
      copies of a segment at 2 rows (globally duplicated either way,
      and dropped rows are exactly the rows the final filter drops —
      this bounds hot segments at 2 rows/block) →
      per-partition keep rows whose segment count == 1 →
      second hash exchange on doc_id (kept segments + one sentinel
      row per doc carrying the total) → per-doc ordered rejoin.
    Scale: a pathologically hot segment costs ≤ 2 rows per input
    block on the wire; the reassembly exchange ships only surviving
    text once.
    """
    from ..functions.exchange import (hash_aggregate, hash_aggregate_refs,
                                      map_blocks)
    from ..functions.text import doc_segment_totals_batch, segments_batch

    docs = _docs(sf_dir, ["doc_id", "text"])

    def cap_dups(b: pa.Table) -> pa.Table:
        import polars as pl
        df = pl.from_arrow(segments_batch(b))
        return df.filter(
            pl.int_range(pl.len()).over("seg") < 2).to_arrow()

    def keep_unique(t: pa.Table) -> pa.Table:
        g = t.group_by(["seg"]).aggregate([("seg", "count")])
        singles = g.filter(
            pc.equal(g["seg_count"], pa.scalar(1, pa.int64())))["seg"]
        mask = pc.is_in(t["seg"], value_set=singles.combine_chunks())
        kept = t.filter(mask)
        return kept.append_column(
            "n_segments", pa.array([-1] * len(kept), pa.int64()))

    kept = hash_aggregate_refs(docs, ["seg"], cap_dups, keep_unique)
    sentinels = map_blocks(docs, doc_segment_totals_batch)

    def assemble(t: pa.Table) -> pa.Table:
        import polars as pl
        df = pl.from_arrow(t)
        out = (df.sort(["doc_id", "seg_idx"])
               .group_by("doc_id", maintain_order=True)
               .agg([
                   pl.col("seg").filter(pl.col("seg_idx") >= 0)
                     .str.join(" ").alias("clean_text"),
                   (pl.col("seg_idx") >= 0).sum()
                     .cast(pl.Int64).alias("n_kept"),
                   pl.col("n_segments").max().cast(pl.Int64)
                     .alias("n_segments"),
               ]))
        out = out.with_columns(
            (pl.col("n_segments") - pl.col("n_kept"))
            .alias("n_dup_segments"))
        return out.select(["doc_id", "clean_text", "n_segments",
                           "n_dup_segments"]).to_arrow()

    return hash_aggregate(kept + sentinels, ["doc_id"], None, assemble)


SEGMENT_DEDUP_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(coalesce(text, ''), '\s+'),
                     x -> x <> '') AS ts
  FROM documents
), segs AS (
  SELECT doc_id,
         unnest([{'seg_idx': i,
                  'seg': array_to_string(ts[i*10+1:i*10+10], ' ')}
                 for i in range((len(ts)+9)//10)],
                recursive := true)
  FROM toks
), uniq AS (
  SELECT seg FROM segs GROUP BY seg HAVING count(*) = 1
), kept AS (
  SELECT s.doc_id, s.seg_idx, s.seg FROM segs s JOIN uniq u USING (seg)
), agg AS (
  SELECT doc_id, string_agg(seg, ' ' ORDER BY seg_idx) AS clean_text,
         count(*) AS n_kept
  FROM kept GROUP BY doc_id
), tot AS (
  SELECT doc_id, (len(ts)+9)//10 AS n_segments FROM toks
)
SELECT t.doc_id,
       coalesce(a.clean_text, '') AS clean_text,
       CAST(t.n_segments AS BIGINT) AS n_segments,
       CAST(t.n_segments - coalesce(a.n_kept, 0) AS BIGINT)
           AS n_dup_segments
FROM tot t LEFT JOIN agg a USING (doc_id)
"""


def _dup_spans(sf_dir: str):
    """Exact-substring duplicate spans (Lee et al. 2021, "Deduplicating
    Training Data Makes Language Models Better", the ExactSubstr
    criterion at shingle granularity): a ``SHINGLE_K``-token window
    occurring ≥2 times ANYWHERE in the corpus (cross- or within-doc,
    multiplicity counted) marks its start position as duplicated;
    per document, consecutive duplicated positions merge into maximal
    spans ``(doc_id, span_start, span_len)`` with ``span_len =
    last_pos + K - span_start`` tokens — the spans an ExactSubstr
    cleaner would cut.

    Plan (two exchanges, no broadcast, no driver pull):
      explode docs into positioned shingle occurrences (stateless
      vectorized map) → hash exchange on the shingle string →
      per-partition keep rows whose shingle count ≥ 2 (co-partitioned,
      so the partition count IS the corpus count) → second hash
      exchange on doc_id → per-doc gaps-and-islands merge (sort +
      rank difference, vectorized polars).
    Scale: every (doc, pos) row crosses the wire at most twice; a
    pathologically hot shingle concentrates its occurrences in one
    partition but the per-partition work stays linear (count +
    filter — no pairing), and the islands exchange ships only the
    already-filtered duplicate positions."""
    from ..functions.exchange import hash_aggregate, hash_aggregate_refs
    from ..functions.text import SHINGLE_K, ngram_batch

    def keep_dup(t: pa.Table) -> pa.Table:
        g = t.group_by(["sh"]).aggregate([("sh", "count")])
        dup = g.filter(pc.greater_equal(
            g["sh_count"], pa.scalar(2, pa.int64())))["sh"]
        mask = pc.is_in(t["sh"], value_set=dup.combine_chunks())
        return t.filter(mask).drop_columns(["sh"])

    dpos = hash_aggregate_refs(
        _docs(sf_dir, ["doc_id", "text"]), ["sh"],
        lambda b: ngram_batch(b, SHINGLE_K, "sh", positions=True), keep_dup)

    def islands(t: pa.Table) -> pa.Table:
        import polars as pl
        df = pl.from_arrow(t).sort(["doc_id", "pos"])
        df = df.with_columns(
            (pl.col("pos") - pl.int_range(pl.len()).over("doc_id"))
            .alias("grp"))
        out = (df.group_by(["doc_id", "grp"])
               .agg(pl.col("pos").min().alias("span_start"),
                    (pl.col("pos").max() + SHINGLE_K
                     - pl.col("pos").min()).alias("span_len")))
        return (out.select([pl.col("doc_id"),
                            pl.col("span_start").cast(pl.Int64),
                            pl.col("span_len").cast(pl.Int64)])
                .to_arrow())

    return hash_aggregate(dpos, ["doc_id"], None, islands)


def _dup_spans_sql() -> str:
    from ..functions.text import SHINGLE_K

    k1, k2 = SHINGLE_K - 1, SHINGLE_K - 2
    return rf"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(coalesce(text, ''), '\s+'),
                     x -> x <> '') AS tk
  FROM documents
), pos AS (
  SELECT doc_id,
         unnest([{{'pos': i - 1,
                   'sh': array_to_string(tk[i:i+{k1}], ' ')}}
                 for i in range(1, len(tk) - {k2})],
                recursive := true)
  FROM toks
), dup AS (
  SELECT sh FROM pos GROUP BY sh HAVING count(*) >= 2
), dpos AS (
  SELECT p.doc_id, p.pos FROM pos p JOIN dup USING (sh)
), isl AS (
  SELECT doc_id, pos,
         pos - row_number() OVER (PARTITION BY doc_id ORDER BY pos)
             AS grp
  FROM dpos
)
SELECT doc_id,
       CAST(min(pos) AS BIGINT) AS span_start,
       CAST(max(pos) + {SHINGLE_K} - min(pos) AS BIGINT) AS span_len
FROM isl GROUP BY doc_id, grp
"""


#: PageRank fixed-point parameters — integer arithmetic end-to-end so
#: the Ray plan and the DuckDB oracle agree bit-exactly (float PageRank
#: would differ in summation order).  Unnormalized: every node starts
#: at PR_SCALE, teleport adds floor(0.15·PR_SCALE) per iteration, each
#: edge ships floor(85·val / (100·outdeg)); dangling-node mass is
#: dropped (the standard simplification — ranks stay comparable).
PR_SCALE = 1_000_000
PR_TELEPORT = 150_000
PR_ITERS = 5


def _pagerank_clicks(sf_dir: str):
    """PageRank over the click-transition graph: nodes are the pages
    (``props.$.k``), a directed edge src→dst exists when a user's
    consecutive events (ordered by event_id) move between two distinct
    pages.  ``PR_ITERS`` synchronous iterations of integer fixed-point
    PageRank (parameters above) → (node, pr) ranks.

    Plan: extract (user, event_id, k) (vectorized regex + json
    fallback) → hash exchange on user → per-partition ordered shift
    gives transition pairs → hash exchange on (src, dst) for the
    global DISTINCT edge set → src-keyed exchange attaches outdeg.
    Each iteration is two exchanges: ranks tagged into the src-keyed
    edge partitions (value joined to out-edges, zero-sentinel keeps
    in-degree-0 nodes alive) → dst-keyed sum + teleport.  The edge
    dataset is materialized ONCE and reused; only rank rows move per
    iteration — at cluster scale the edge side would additionally be
    pre-partitioned by src so iterations ship ranks alone."""
    import ray.data as rd

    from ..functions.exchange import hash_aggregate

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id", "props"])

    def extract_k(b: pa.Table) -> pa.Table:
        import json
        props = pc.cast(b["props"], pa.string())
        m = pc.extract_regex(props, r'"k"\s*:\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        if k.null_count > 0:
            vals = k.to_pylist()
            raw = props.to_pylist()
            for i, v in enumerate(vals):
                if v is None and raw[i]:
                    try:
                        vals[i] = int(json.loads(raw[i]).get("k"))
                    except (ValueError, TypeError, KeyError):
                        vals[i] = None
            k = pa.array(vals, pa.int64())
        return pa.table({"user_id": pc.cast(b["user_id"], pa.int64()),
                         "event_id": pc.cast(b["event_id"], pa.int64()),
                         "k": k})

    def transitions(t: pa.Table) -> pa.Table:
        import polars as pl
        df = (pl.from_arrow(t).drop_nulls("k")
              .sort(["user_id", "event_id"]))
        df = df.with_columns(pl.col("k").shift(1).over("user_id")
                             .alias("src"))
        out = (df.filter(pl.col("src").is_not_null()
                         & (pl.col("src") != pl.col("k")))
               .select([pl.col("src").cast(pl.Int64),
                        pl.col("k").cast(pl.Int64).alias("dst")]))
        return out.to_arrow()

    def distinct_edges(t: pa.Table) -> pa.Table:
        return t.group_by(["src", "dst"]).aggregate([])

    def attach_outdeg(t: pa.Table) -> pa.Table:
        import polars as pl
        return (pl.from_arrow(t)
                .with_columns(pl.len().over("src").cast(pl.Int64)
                              .alias("outdeg"))
                .to_arrow())

    pairs = ev.map_batches(extract_k, batch_format="pyarrow")
    trans = hash_aggregate(pairs, ["user_id"], None, transitions)
    edges = hash_aggregate(trans, ["src", "dst"], None, distinct_edges)
    edges = hash_aggregate(edges, ["src"], None, attach_outdeg)
    # reused every iteration: pin the blocks once
    edges = edges.map_batches(
        lambda b: b.append_column("val", pa.nulls(len(b), pa.int64())),
        batch_format="pyarrow").materialize()

    def node0(b: pa.Table) -> pa.Table:
        import numpy as np
        nodes = np.unique(np.concatenate([
            b["src"].to_numpy(zero_copy_only=False),
            b["dst"].to_numpy(zero_copy_only=False)]))
        n = len(nodes)
        return pa.table({
            "src": pa.array(nodes, pa.int64()),
            "dst": pa.nulls(n, pa.int64()),
            "outdeg": pa.nulls(n, pa.int64()),
            "val": pa.array([PR_SCALE] * n, pa.int64())})

    # per-block node seeds may duplicate across blocks; the first
    # src-keyed exchange of iteration 1 dedups them (max — equal vals)
    ranks = edges.map_batches(node0, batch_format="pyarrow")

    def contribs(t: pa.Table) -> pa.Table:
        """src-keyed partition holding this src's out-edges AND its
        rank row(s) → (node, contrib) rows: one per edge plus a zero
        sentinel per node (keeps in-degree-0 nodes in the result)."""
        import polars as pl
        df = pl.from_arrow(t)
        vals = (df.filter(pl.col("val").is_not_null())
                .group_by("src").agg(pl.col("val").max().alias("v")))
        e = (df.filter(pl.col("dst").is_not_null())
             .join(vals, on="src", how="inner")
             .select([pl.col("dst").alias("node"),
                      ((85 * pl.col("v")) //
                       (100 * pl.col("outdeg"))).alias("contrib")]))
        z = vals.select([pl.col("src").alias("node"),
                         pl.lit(0, dtype=pl.Int64).alias("contrib")])
        out = pl.concat([e, z]).to_arrow()
        return pa.table({"node": out["node"].cast(pa.int64()),
                         "contrib": out["contrib"].cast(pa.int64())})

    def new_ranks(t: pa.Table) -> pa.Table:
        g = t.group_by(["node"]).aggregate([("contrib", "sum")])
        n = len(g)
        return pa.table({
            "src": g["node"].cast(pa.int64()),
            "dst": pa.nulls(n, pa.int64()),
            "outdeg": pa.nulls(n, pa.int64()),
            "val": pc.add(g["contrib_sum"],
                          pa.scalar(PR_TELEPORT, pa.int64()))
                     .cast(pa.int64())})

    for _ in range(PR_ITERS):
        tagged = edges.union(ranks)
        contrib = hash_aggregate(tagged, ["src"], None, contribs)
        ranks = hash_aggregate(contrib, ["node"], None, new_ranks)

    return ranks.map_batches(
        lambda b: pa.table({"node": b["src"].cast(pa.int64()),
                            "pr": b["val"].cast(pa.int64())}),
        batch_format="pyarrow")


def _pagerank_sql() -> str:
    prev, steps = "pr0", []
    for i in range(1, PR_ITERS + 1):
        steps.append(f"""pr{i} AS (
  SELECT n.n,
         CAST({PR_TELEPORT} + coalesce(c.s, 0) AS BIGINT) AS val
  FROM nodes n LEFT JOIN (
    SELECT e.dst AS n,
           sum((85 * p.val) // (100 * d.outdeg)) AS s
    FROM {prev} p
    JOIN edges e ON e.src = p.n
    JOIN deg d ON d.src = e.src
    GROUP BY e.dst
  ) c ON c.n = n.n
)""")
        prev = f"pr{i}"
    chain = ",\n".join(steps)
    return f"""
WITH ev AS (
  SELECT user_id, event_id,
         CAST(json_extract(props, '$.k') AS BIGINT) AS k
  FROM events
), seq AS (
  SELECT k, lag(k) OVER (PARTITION BY user_id ORDER BY event_id) AS pk
  FROM ev WHERE k IS NOT NULL
), edges AS (
  SELECT DISTINCT pk AS src, k AS dst FROM seq
  WHERE pk IS NOT NULL AND pk <> k
), nodes AS (
  SELECT DISTINCT src AS n FROM edges
  UNION SELECT DISTINCT dst FROM edges
), deg AS (
  SELECT src, count(*) AS outdeg FROM edges GROUP BY src
), pr0 AS (
  SELECT n, CAST({PR_SCALE} AS BIGINT) AS val FROM nodes
),
{chain}
SELECT n AS node, val AS pr FROM {prev}
"""


#: per-doc keyword count emitted by ``tfidf_top_terms``
TFIDF_TOP_K = 3


def _tfidf_top_terms(sf_dir: str):
    """Per-document tf-idf keyword extraction, integer-exact: each
    doc's top-``TFIDF_TOP_K`` terms ranked by term frequency DESC,
    then corpus document frequency ASC (rarer wins — the idf axis
    without a float score), then token ASC.  Ties are total, so the
    result is deterministic and bit-compares against the SQL oracle.

    Plan (two exchanges, no broadcast, no driver pull):
      per-doc (tok, tf) counts (the first exchange's per-block combine;
      exact because a doc lives in one block) → hash exchange on tok →
      per-partition df = distinct-doc count per token (co-partitioned,
      so the partition count IS the corpus df) attached as a column →
      second hash exchange on doc_id, fed the first one's partition
      refs → per-doc window rank + top-k.
    Scale: stop-word-hot tokens concentrate rows in one partition but
    the per-partition work is a linear window count, no pairing."""
    from ..functions.exchange import (auto_partitions, hash_aggregate,
                                      hash_aggregate_refs)
    from ..functions.text import arrow_out, ngram_rows, token_lists

    docs = _docs(sf_dir, ["doc_id", "text"])

    def token_tf(b: pa.Table) -> pa.Table:
        tf = ngram_rows(token_lists(b), 1, "tok").group_by(["doc_id", "tok"])
        return arrow_out(tf.len("tf"), b, tok=pa.string(), tf=pa.int64())

    def attach_df(t: pa.Table) -> pa.Table:
        import polars as pl
        return (pl.from_arrow(t)
                .with_columns(pl.col("doc_id").n_unique().over("tok")
                              .cast(pl.Int64).alias("df"))
                .to_arrow())

    with_df = hash_aggregate_refs(docs, ["tok"], token_tf, attach_df)

    def topk(t: pa.Table) -> pa.Table:
        import polars as pl
        df = (pl.from_arrow(t)
              .sort(["doc_id", "tf", "df", "tok"],
                    descending=[False, True, False, False]))
        df = df.with_columns(
            (pl.int_range(pl.len()).over("doc_id") + 1)
            .cast(pl.Int64).alias("rnk"))
        return (df.filter(pl.col("rnk") <= TFIDF_TOP_K)
                .select(["doc_id", "tok", "tf", "df", "rnk"])
                .to_arrow())

    return hash_aggregate(with_df, ["doc_id"], None, topk,
                          num_partitions=auto_partitions(docs))


def _tfidf_sql() -> str:
    return rf"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(coalesce(text, ''),
                '\s+'), x -> x <> '')) AS tok
  FROM documents
), tf AS (
  SELECT doc_id, tok, count(*) AS tf FROM toks GROUP BY doc_id, tok
), dfreq AS (
  SELECT tok, count(DISTINCT doc_id) AS df FROM toks GROUP BY tok
), ranked AS (
  SELECT t.doc_id, t.tok, t.tf, d.df,
         row_number() OVER (PARTITION BY t.doc_id
                            ORDER BY t.tf DESC, d.df ASC, t.tok ASC)
             AS rnk
  FROM tf t JOIN dfreq d USING (tok)
)
SELECT doc_id, tok, CAST(tf AS BIGINT) AS tf, CAST(df AS BIGINT) AS df,
       CAST(rnk AS BIGINT) AS rnk
FROM ranked WHERE rnk <= {TFIDF_TOP_K}
"""


def _stratified_sample(sf_dir: str):
    """Deterministic stratified corpus sampling — the source-mixing
    primitive of every training-data recipe: each source gets a
    sampling rate derived from md5(source) (10–90 %), each row a keep
    decision from md5(doc_id), so the sample is reproducible across
    runs, resumable, and shuffle-free (a pure stateless filter; no
    randomness, no driver state).  md5 on both sides keeps the DuckDB
    oracle byte-exact; the digests are computed by the vectorized
    single-block numpy MD5 (functions/md5np.py) — no per-row Python
    loop (differentially pinned vs hashlib in tests/test_md5np.py)."""
    from ..functions.md5np import md5_prefix_u32_arrow

    def keep(b: pa.Table) -> pa.Table:
        rate = md5_prefix_u32_arrow(b["source"]) % np.uint32(81) \
            + np.uint32(10)
        h = md5_prefix_u32_arrow(b["doc_id"]) % np.uint32(100)
        return b.filter(pa.array(h < rate))

    return _map_docs(sf_dir, ["doc_id", "source", "n_chars"], keep)


STRATIFIED_SAMPLE_SQL = """
SELECT doc_id, source, n_chars
FROM documents
WHERE CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) AS UBIGINT)
          % 100
      < CAST('0x' || substr(md5(source), 1, 8) AS UBIGINT) % 81 + 10
"""


def _mix_lut(thresholds: dict):
    """Broadcast {source: threshold} → (sources, thresholds + a 0 for
    unknown sources) lookup arrays."""
    srcs = list(thresholds)
    return (pa.array(srcs),
            np.array([thresholds[s] for s in srcs] + [0], np.int64))


def _source_mixture(sf_dir: str):
    """Deterministic data MIXING to target source proportions — the
    trainer's mixture-weights op: each source gets an integer target
    weight w (md5-derived 1–5, standing in for a recipe's mixture
    table), the bottleneck source (min n/w) is kept in full, and every
    other source is down-sampled so the sample's proportions match the
    target weights exactly in expectation.  All arithmetic is INTEGER
    (keep iff md5-bucket < (1e6·n*·w) // (w*·n)), so the DuckDB oracle
    is bit-exact — no float thresholds.  Two passes: a tiny per-source
    count exchange (|sources| rows pulled, same bound as
    ``source_stats``), then a stateless broadcast filter."""
    import hashlib

    import ray
    import ray.data as rd

    from ..functions.broadcast import worker_cached
    from ..functions.exchange import gather, hash_aggregate_refs, map_blocks

    docs = _docs(sf_dir, ["doc_id", "source"])

    def part_counts(t: pa.Table) -> pa.Table:
        if "source" not in t.column_names:
            return pa.table({"source": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        g = t.group_by(["source"]).aggregate([("doc_id", "count")])
        return g.rename_columns(["source", "n"])

    def merge_counts(t: pa.Table) -> pa.Table:
        if "n" not in t.column_names:
            return pa.table({"source": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        return t.group_by(["source"]).aggregate([("n", "sum")]) \
            .rename_columns(["source", "n"])

    c = gather(hash_aggregate_refs(docs, ["source"], part_counts,
                                   merge_counts))
    counts = dict(zip(c["source"].to_pylist(), c["n"].to_pylist()))

    def w_of(s: str) -> int:
        return int(hashlib.md5(s.encode()).hexdigest()[:8], 16) % 5 + 1

    # bottleneck source: min n/w, integer-exact via n·(60/w), tie by name
    star = min(counts, key=lambda s: (counts[s] * (60 // w_of(s)), s))
    n_star, w_star = counts[star], w_of(star)
    thresholds = {s: (10**6 * n_star * w_of(s)) // (w_star * counts[s])
                  for s in counts}
    ref = ray.put(thresholds)

    def keep(b: pa.Table) -> pa.Table:
        from ..functions.md5np import md5_prefix_u32_arrow

        srcs, lut = worker_cached(ref, _mix_lut)
        h = md5_prefix_u32_arrow(b["doc_id"]).astype(np.int64) % 1000000
        idx = pc.fill_null(pc.index_in(b["source"], srcs), len(srcs))
        lim = lut[idx.to_numpy(zero_copy_only=False).astype(np.int64)]
        return b.filter(pa.array(h < lim))

    return rd.from_arrow_refs(map_blocks(docs, keep))


SOURCE_MIXTURE_SQL = """
WITH counts AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n,
         CAST(CAST('0x' || substr(md5(source), 1, 8) AS UBIGINT) % 5
              + 1 AS BIGINT) AS w
  FROM documents GROUP BY source
), star AS (
  SELECT n AS n_star, w AS w_star FROM counts
  ORDER BY n * (60 // w), source LIMIT 1
)
SELECT d.doc_id, d.source
FROM documents d JOIN counts c ON d.source = c.source CROSS JOIN star
WHERE CAST(CAST('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 8)
                AS UBIGINT) % 1000000 AS BIGINT)
      < (1000000 * star.n_star * c.w) // (star.w_star * c.n)
"""


def _rdf_entailment(sf_dir: str):
    """RDF-only ruleset saturation (reference ``Rdf`` struct) over the
    doc triples: input + rdf1 (used predicates typed rdf:Property) +
    the finite RDF axiomatic triples; D-entailment off so the oracle
    is a pure SQL union."""
    from ..reasoner import rdf_saturate
    from .doc_triples import doc_triples

    return rdf_saturate(doc_triples(sf_dir), d_entailment=False)


def _rdf_entailment_sql() -> str:
    """Generated from the SAME axiom list the reasoner broadcasts, so
    the oracle can never drift from the implementation."""
    from .doc_triples import DOC_TRIPLES_SQL
    from ..reasoner import _AXIOMS, PROPERTY, RDF_NS, TYPE

    ax = [(s, p, o) for (s, p, o) in _AXIOMS
          if p == TYPE and s.startswith(f"<{RDF_NS}")]
    values = ",\n    ".join(f"('{s}', '{p}', '{o}')" for s, p, o in ax)
    return f"""
WITH base AS ({DOC_TRIPLES_SQL}),
u AS (
  SELECT s, p, o FROM base
  UNION ALL
  SELECT DISTINCT p AS s, '{TYPE}' AS p, '{PROPERTY}' AS o FROM base
  UNION ALL
  SELECT * FROM (VALUES
    {values}) t(s, p, o)
)
SELECT DISTINCT s, p, o FROM u
"""


def _token_totals(t: pa.Table) -> pa.Table:
    """(tok, c) partials → one summed row per token."""
    return (t.group_by(["tok"]).aggregate([("c", "sum")])
            .rename_columns(["tok", "c"]))


def _top_tokens(t: pa.Table, k: int) -> pa.Table:
    """The k (tok, c) rows first by (c desc, tok asc)."""
    idx = pc.sort_indices(t, sort_keys=[("c", "descending"),
                                        ("tok", "ascending")])
    return t.take(idx[:k])


def _vocab_top_terms(sf_dir: str, k: int = 100):
    """Corpus vocabulary build: per-block token counts → ONE hash
    exchange on the token → exact top-k by (count desc, token asc).
    The classic first step of tokenizer / TF-IDF training at corpus
    scale; only |vocab| rows ever shuffle.  Each partition holds its
    tokens' FULL counts, so its local top-k is a superset of its share
    of the global top-k: the driver reads ≤ partitions·k rows."""
    from ..functions.exchange import gather, hash_aggregate_refs
    from ..functions.text import token_freq_batch

    top = _top_tokens(gather(hash_aggregate_refs(
        _docs(sf_dir, ["text"]), ["tok"], token_freq_batch,
        lambda t: _top_tokens(_token_totals(t), k))), k)
    return pa.table({"token": top["tok"], "n": top["c"]})


VOCAB_TOP_TERMS_SQL = r"""
SELECT tok AS token, cast(count(*) AS BIGINT) AS n
FROM (SELECT unnest(string_split_regex(coalesce(text, ''), '\s+')) AS tok
      FROM documents)
WHERE tok <> ''
GROUP BY tok
ORDER BY n DESC, token ASC
LIMIT 100
"""


def _knn(sf_dir: str):
    """Brute-force cosine top-10 neighbors of vec_id 0 (SURVEY: similarity
    search baseline; broadcast query vector, per-batch numpy matmul,
    global sort+limit)."""
    import ray.data as rd

    from ..functions.knn import brute_force_topk

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    q = None
    for b in ds.iter_batches(batch_size=256, batch_format="pyarrow"):
        ids = b["vec_id"].to_pylist()
        if 0 in ids:
            q = b["embedding"].to_pylist()[ids.index(0)]
            break
    assert q is not None, "vec_id 0 missing"
    out = brute_force_topk(ds, q, k=10, exclude_id=0)
    return out.map_batches(
        lambda b: pa.table({"neighbor_id": b["vec_id"], "sim": b["sim"]}),
        batch_format="pyarrow")


def _emb_rows(sf_dir: str) -> int:
    """Row count of the embeddings table from Parquet footer metadata —
    zero data read; the size gate that routes the exact O(N²) plans to
    their near-linear LSH siblings above ``EXACT_SIM_LIMIT`` rows."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows


def _knn_self_join(sf_dir: str):
    """KNN self-join: top-3 cosine neighbors of EVERY vector.  Exact
    (distributed ordered-chunk tiles + one per-id top-k merge exchange,
    functions/ann.knn_self_join) below ``EXACT_SIM_LIMIT`` rows; above
    it the plan routes to the near-linear LSH sibling
    (``knn_self_join_lsh``) so the default is never O(N²) at scale —
    recall of the gated plan vs exact is pinned in tests/test_ann.py."""
    import ray.data as rd

    from ..functions.ann import (EXACT_SIM_LIMIT, knn_self_join,
                                 knn_self_join_lsh)

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    if _emb_rows(sf_dir) > EXACT_SIM_LIMIT:
        return knn_self_join_lsh(ds, k=3)
    return knn_self_join(ds, k=3, batch_size=512)


KNN_SELF_JOIN_SQL = """
WITH sims AS (
  SELECT a.vec_id AS id, b.vec_id AS neighbor_id,
         round(list_cosine_similarity(a.embedding::DOUBLE[],
                                      b.embedding::DOUBLE[]), 4) AS sim
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
  WHERE a.embedding IS NOT NULL AND b.embedding IS NOT NULL
)
SELECT id, neighbor_id, sim FROM (
  SELECT *, row_number() OVER (
      PARTITION BY id ORDER BY sim DESC, neighbor_id) AS rk
  FROM sims)
WHERE rk <= 3
"""


KNN_SQL = """
WITH q AS (SELECT embedding FROM embeddings WHERE vec_id = 0)
SELECT vec_id AS neighbor_id,
       round(list_cosine_similarity(embedding::DOUBLE[], (SELECT embedding FROM q)::DOUBLE[]), 4) AS sim
FROM embeddings WHERE vec_id <> 0 AND embedding IS NOT NULL
ORDER BY sim DESC, vec_id LIMIT 10
"""


# ---------------------------------------------------------------------------
# rows-only entries (non-SQL-expressible; pytest carries their oracles)
# ---------------------------------------------------------------------------

def _embedding_near_dup(sf_dir: str):
    """Embedding-cosine near-duplicate pairs (sim ≥ 0.4).  EXACT via
    distributed block×block tile tasks (no driver materialization, no
    full-matrix broadcast) below ``EXACT_SIM_LIMIT`` rows; above it
    the plan routes to the SimHash-banded LSH sibling so the default is
    never O(N²) at scale (recall pinned in tests/test_ann.py; the
    explicit ``embedding_near_dup_lsh`` entry stays the always-LSH
    path)."""
    import ray.data as rd

    from ..functions.ann import (EXACT_SIM_LIMIT, cosine_near_dup,
                                 cosine_near_dup_lsh)

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    if _emb_rows(sf_dir) > EXACT_SIM_LIMIT:
        return cosine_near_dup_lsh(ds, threshold=0.4)
    return cosine_near_dup(ds, threshold=0.4)


EMBEDDING_NEAR_DUP_SQL = """
SELECT cast(a.vec_id AS BIGINT) AS id_a, cast(b.vec_id AS BIGINT) AS id_b,
       round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 4) AS sim
FROM embeddings a JOIN embeddings b ON cast(a.vec_id AS BIGINT) < cast(b.vec_id AS BIGINT)
WHERE a.embedding IS NOT NULL AND b.embedding IS NOT NULL
  AND list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.4
"""


def _semdedup_docs(sf_dir: str):
    """SemDeDup-style semantic dedup over the embeddings table: assign
    every vector to its max-cosine centroid (the corpus's first
    ``SEMDEDUP_K`` vectors — deterministic, SQL-mirrorable), then mark
    within-cluster duplicates against earlier vec_ids at cosine ≥
    ``SEMDEDUP_THR``.  One broadcast (fixed-size centroid matrix), one
    exchange on the cluster id; per-cluster verify is a triangular
    matmul bounded by ``SEMDEDUP_CLUSTER_CAP``."""
    import ray.data as rd

    from ..functions.ann import SEMDEDUP_K, semdedup

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    cent = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"],
                           filter=pc.field("vec_id") < SEMDEDUP_K)
    return semdedup(ds, cent)


def _semdedup_sql() -> str:
    from ..functions.ann import SEMDEDUP_K, SEMDEDUP_THR

    return f"""
WITH v AS (
  SELECT CAST(vec_id AS BIGINT) AS vec_id, embedding::DOUBLE[] AS e
  FROM embeddings
  WHERE embedding IS NOT NULL
), cent AS (
  SELECT vec_id AS cid, e FROM v
  WHERE vec_id < {SEMDEDUP_K}
    AND list_aggregate(list_transform(e, x -> x * x), 'sum') > 0
), assign AS (
  SELECT v.vec_id, c.cid,
         row_number() OVER (
           PARTITION BY v.vec_id
           ORDER BY round(list_cosine_similarity(v.e, c.e), 4) DESC,
                    c.cid) AS rk
  FROM v, cent c
), a AS (SELECT vec_id, cid FROM assign WHERE rk = 1)
SELECT a1.vec_id, CAST(a1.cid AS BIGINT) AS cluster,
       CAST(EXISTS (
         SELECT 1 FROM a a2
         JOIN v v2 ON v2.vec_id = a2.vec_id
         JOIN v v1 ON v1.vec_id = a1.vec_id
         WHERE a2.cid = a1.cid AND a2.vec_id < a1.vec_id
           AND round(list_cosine_similarity(v1.e, v2.e), 4)
               >= {SEMDEDUP_THR}
       ) AS BIGINT) AS is_dup
FROM a a1
"""


def _nt_file_roundtrip(sf_dir: str):
    """End-to-end gate of the RDF FILE sink + source: the flagship doc
    triples are written to gzipped NT shards (content-hash names,
    atomic renames) and read back through the distributed file source —
    the result must equal ``doc_triples`` exactly, so the same SQL
    oracles the whole file-plumbing cycle (serializer, gz determinism,
    directory scan, parser)."""
    import hashlib
    import shutil

    from ..sources.rdf_files import read_rdf_files, write_rdf_files
    from .doc_triples import doc_triples

    out = ("/tmp/sophia_nt_roundtrip_"
           + hashlib.md5(sf_dir.encode()).hexdigest()[:8])
    shutil.rmtree(out, ignore_errors=True)   # stale shards would pollute
    write_rdf_files(doc_triples(sf_dir), out, "nt", gz=True)
    return read_rdf_files(out).map_batches(
        lambda b: b.select(["s", "p", "o"]), batch_format="pyarrow")


def _ivf_knn(sf_dir: str):
    """IVF-bucketed approximate top-10 for vec_id 0 over the PERSISTED
    bucket layout — the query reads only the probed bucket files
    (rows-only; recall + pruned-read assertions in tests/test_ann.py)."""
    import hashlib
    import ray.data as rd

    from ..functions.ann import ivf_topk_indexed, materialize_ivf

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    q = None
    for b in ds.iter_batches(batch_size=256, batch_format="pyarrow"):
        ids = b["vec_id"].to_pylist()
        if 0 in ids:
            q = b["embedding"].to_pylist()[ids.index(0)]
            break
    tag = hashlib.sha1(sf_dir.encode()).hexdigest()[:12]
    out_dir = f"/tmp/sophia_ivf/{tag}"
    materialize_ivf(ds, out_dir, n_buckets=16, resume=True)
    return ivf_topk_indexed(out_dir, q, k=10, n_probe=8, exclude_id=0)


def _embedding_near_dup_lsh(sf_dir: str):
    """SimHash-banded near-dup pairs + exact verification — the
    near-linear 10^12-scale sibling of ``embedding_near_dup`` (which
    stays exact via distributed tiles).  Rows-only; recall vs brute
    force asserted in tests/test_ann.py."""
    import ray.data as rd

    from ..functions.ann import cosine_near_dup_lsh

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    return cosine_near_dup_lsh(ds, threshold=0.4)


def _ngram_jaccard(sf_dir: str):
    """3-gram token Jaccard between consecutive doc_ids — the
    verification kernel of near-dup dedup, oracle-checked exactly."""
    from ..functions.dedup import trigram_jaccard_consecutive

    return trigram_jaccard_consecutive(_docs_ds(sf_dir, ["doc_id", "text"]))


NGRAM_JACCARD_SQL = r"""
WITH g AS (
  SELECT cast(doc_id AS BIGINT) AS id,
         list_distinct(list_transform(range(1, greatest(len(toks) - 1, 1)),
                       i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) AS grams
  FROM (SELECT doc_id,
               list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS toks
        FROM documents)
)
SELECT a.id AS id_a, b.id AS id_b,
       round(cast(len(list_intersect(a.grams, b.grams)) AS DOUBLE)
             / len(list_distinct(list_concat(a.grams, b.grams))), 4) AS jac
FROM g a JOIN g b ON a.id + 1 = b.id
WHERE len(list_concat(a.grams, b.grams)) > 0
"""


def _sf_of(sf_dir: str) -> str:
    import re
    m = re.search(r"sf([0-9.]+)", sf_dir)
    return m.group(1) if m else "0.01"


def _kg_pipeline(sf_dir: str):
    """Flagship: synthetic pages (deterministic, sf-proportional) →
    extract → dedup → sorted (s,p,o,url). Rows-only for the driver;
    P/R vs the template oracle is asserted in tests/test_pipeline.py."""
    from ..pipelines.kg import kg_pipeline
    from ..sources.pages import SF_PAGE_COUNTS, pages_dataset

    n = SF_PAGE_COUNTS.get(_sf_of(sf_dir), 5000)
    return kg_pipeline(pages_dataset(n))


def _extract_text(sf_dir: str):
    from ..pipelines.kg import extract_text
    from ..sources.pages import SF_PAGE_COUNTS, pages_dataset

    n = SF_PAGE_COUNTS.get(_sf_of(sf_dir), 5000)
    return extract_text(pages_dataset(n))


def _lang_id(sf_dir: str):
    from ..functions.text import lang_id_batch

    return _map_docs(sf_dir, ["doc_id", "text"], lang_id_batch)


#: mirrors functions/text.lang_id_batch exactly: distinct lowercased
#: [a-zA-Z']+ words from the first 2000 chars, per-language stopword-hit
#: ratio, argmax with ties to the lexicographically-first language code
#: ('und' when every profile scores 0).  Ratios are k/14 or k/15 so
#: round(x, 4) never lands on a decimal half — Python banker's rounding
#: and DuckDB half-away rounding agree on every reachable value.
LANG_ID_SQL = r"""
WITH w AS (
  SELECT doc_id,
         list_distinct(list_transform(
           regexp_extract_all(substr(coalesce(text, ''), 1, 2000),
                              '[a-zA-Z'']+'),
           x -> lower(x))) AS words
  FROM documents
), s AS (
  SELECT doc_id,
    len(list_intersect(words, ['der','die','das','und','ist','von','zu','mit','den','im','für','auf','ein','eine'])) / 14.0 AS s_de,
    len(list_intersect(words, ['the','of','and','to','a','in','is','that','it','for','on','with','as','at','by'])) / 15.0 AS s_en,
    len(list_intersect(words, ['el','la','los','las','de','y','un','una','es','en','que','para','con','por','del'])) / 15.0 AS s_es,
    len(list_intersect(words, ['le','la','les','de','des','du','et','un','une','est','pour','dans','que','au','avec'])) / 15.0 AS s_fr
  FROM w
)
SELECT doc_id,
  CASE WHEN greatest(s_de,s_en,s_es,s_fr) = 0 THEN 'und'
       WHEN s_de >= s_en AND s_de >= s_es AND s_de >= s_fr THEN 'de'
       WHEN s_en >= s_es AND s_en >= s_fr THEN 'en'
       WHEN s_es >= s_fr THEN 'es'
       ELSE 'fr' END AS pred_lang,
  round(greatest(s_de,s_en,s_es,s_fr), 4) AS score
FROM s
"""


def _simhash(sf_dir: str):
    from ..functions.dedup import simhash_batch
    from ..functions.exchange import exchange_join
    from ..functions.text import fingerprint_batch

    docs = _docs(sf_dir, ["doc_id", "text"])
    return exchange_join(docs, docs, "inner", 4, on=["doc_id"],
                         combine=(simhash_batch, fingerprint_batch))


def _simhash_docs(sf_dir: str):
    """SimHash fingerprints alone (doc_id, simhash), DuckDB-oracled:
    the oracle recomputes the full SimHash in SQL (md5 token hash →
    per-bit votes → majority reconstruction)."""
    from ..functions.dedup import simhash_batch

    return _map_docs(sf_dir, ["doc_id", "text"], simhash_batch)


SIMHASH_DOCS_SQL = r"""
WITH toks AS (
  SELECT DISTINCT doc_id, tok FROM (
    SELECT doc_id,
           unnest(string_split_regex(lower(coalesce(text, '')), '\W+'))
               AS tok
    FROM documents) WHERE tok <> ''
), votes AS (
  SELECT doc_id, i,
         sum(CASE WHEN (cast(concat('0x', substr(md5(tok), 1, 16))
                             AS UBIGINT) >> i) & 1 = 1
             THEN 1 ELSE -1 END) AS v
  FROM toks CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS i) g
  GROUP BY doc_id, i
), hashes AS (
  SELECT doc_id,
         sum(CASE WHEN v > 0 THEN cast(cast(1 AS UBIGINT) << i AS HUGEINT)
             ELSE cast(0 AS HUGEINT) END) AS h
  FROM votes GROUP BY doc_id
)
SELECT d.doc_id AS doc_id,
       cast(coalesce(h, 0) - 9223372036854775808 AS BIGINT) AS simhash
FROM documents d LEFT JOIN hashes ON d.doc_id = hashes.doc_id
"""


def _near_dup_clusters(sf_dir: str):
    """Full near-dup dedup: MinHash sigs (actor pool) → LSH bands →
    capped bucket pairs → signature-verified edges → connected-components
    fixpoint → (doc_id, cluster). Pytest oracle: brute-force Jaccard
    union-find (tests/test_neardup.py)."""
    from ..stages.neardup import near_dup_clusters

    return near_dup_clusters(_docs_ds(sf_dir, ["doc_id", "text"]),
                             num_partitions=4)


def _c14n_digests(sf_dir: str):
    """Per-page canonical digest: flagship extract (pre-dedup triples,
    skolemized) → per-url RDFC-1.0 (``exchange.per_group``) → (url,
    digest).
    The many-small-graphs c14n path (SURVEY §3.2)."""
    from ..pipelines.kg import kg_pipeline
    from ..sources.pages import SF_PAGE_COUNTS, pages_dataset
    from ..stages.c14n_stage import c14n_per_graph

    n = SF_PAGE_COUNTS.get(_sf_of(sf_dir), 5000)
    nt = kg_pipeline(pages_dataset(n), dedup=False, sort=False)
    return c14n_per_graph(nt, group_col="url", digest_only=True)


def _indexed_pattern_scan(sf_dir: str):
    """Materialize the doc-triples graph as the three sorted shard
    layouts (stages/materialize, resumable), then answer the constant-
    predicate pattern through the POS layout: ONE shard directory read
    + pushed-down predicate — the distributed FastGraph 9-way dispatch
    (inmem/src/graph.rs:234-298). Same oracle as triples_matching."""
    import hashlib

    from ..stages.materialize import materialize_graph, triples_matching

    # key the resumable layout by the INPUT PATH, not just the sf tag —
    # distinct corpora must never share a manifest (same scheme as
    # _ivf_knn/_indexed_quad_scan)
    tag = hashlib.sha1(sf_dir.encode()).hexdigest()[:12]
    out = f"/tmp/sophia_rs_ray_cache/{_sf_of(sf_dir)}-{tag}/doc_graph"
    materialize_graph(doc_triples(sf_dir), out, num_shards=8)
    pred = f"<{DC_LANGUAGE}>"
    ds = triples_matching(out, p=pred, num_shards=8)
    return ds.map_batches(
        lambda b: pa.table({"s": pc.cast(b["s"], pa.large_string()),
                            "o": pc.cast(b["o"], pa.large_string())}),
        batch_format="pyarrow")


INDEXED_SCAN_SQL = TRIPLES_MATCHING_SQL

_KG = "http://kg.example/"
_RDFS = "http://www.w3.org/2000/01/rdf-schema#"
_ONTOLOGY = [
    (f"<{_KG}Document>", f"<{_RDFS}subClassOf>", f"<{_KG}Work>"),
    (f"<{_KG}Work>", f"<{_RDFS}subClassOf>", f"<{_KG}Thing>"),
    (f"<{_KG}Sourced>", f"<{_RDFS}subClassOf>", f"<{_KG}Work>"),
    ("<http://purl.org/dc/terms/language>", f"<{_RDFS}subPropertyOf>",
     f"<{_KG}attribute>"),
    ("<http://purl.org/dc/terms/source>", f"<{_RDFS}domain>",
     f"<{_KG}Sourced>"),
]


def _rdfs_entailment(sf_dir: str):
    """RDFS saturation (rdfs2/3/5/7/9/11) of doc_triples ∪ a static test
    ontology: schema collected + closed driver-side, broadcast into one
    expansion pass, exact dedup (reasoner/src/ruleset/_rdfs.rs:35-97).
    The SQL oracle expands the fixed ontology by hand."""
    import ray.data as rd

    from ..reasoner import rdfs_saturate

    onto = rd.from_arrow(pa.table({
        "s": pa.array([t[0] for t in _ONTOLOGY], pa.large_string()),
        "p": pa.array([t[1] for t in _ONTOLOGY], pa.large_string()),
        "o": pa.array([t[2] for t in _ONTOLOGY], pa.large_string())}))
    return rdfs_saturate(doc_triples(sf_dir).union(onto))


RDFS_ENTAILMENT_SQL = f"""
WITH d AS (SELECT '<http://kg.example/doc/' || doc_id || '>' AS d,
                  lang, source, n_chars FROM documents)
SELECT DISTINCT s, p, o FROM (
  {DOC_TRIPLES_SQL}
  UNION ALL SELECT * FROM (VALUES
    ('<{_KG}Document>', '<{_RDFS}subClassOf>', '<{_KG}Work>'),
    ('<{_KG}Work>', '<{_RDFS}subClassOf>', '<{_KG}Thing>'),
    ('<{_KG}Sourced>', '<{_RDFS}subClassOf>', '<{_KG}Work>'),
    ('<http://purl.org/dc/terms/language>', '<{_RDFS}subPropertyOf>', '<{_KG}attribute>'),
    ('<http://purl.org/dc/terms/source>', '<{_RDFS}domain>', '<{_KG}Sourced>'),
    -- rdfs11 closure
    ('<{_KG}Document>', '<{_RDFS}subClassOf>', '<{_KG}Thing>'),
    ('<{_KG}Sourced>', '<{_RDFS}subClassOf>', '<{_KG}Thing>')) t(s, p, o)
  -- rdfs9: supertypes of rdf:type Document
  UNION ALL SELECT d, '<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>', '<{_KG}Work>' FROM d
  UNION ALL SELECT d, '<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>', '<{_KG}Thing>' FROM d
  -- rdfs2 (+rdfs9): domain of dc:source
  UNION ALL SELECT d, '<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>', '<{_KG}Sourced>' FROM d
  -- rdfs7: dc:language ⊑ kg:attribute
  UNION ALL SELECT d, '<{_KG}attribute>', '"' || lang || '"' FROM d
)
"""

def _rdfs_entailment_full(sf_dir: str):
    """FULL-ruleset RDFS saturation (reasoner.rdfs_saturate_full) of
    doc_triples ∪ the static test ontology, in extended-ρdf
    configuration (no axiomatic triples / rdfs4 Resource typing /
    rdfs14 / D-typing, so the oracle stays hand-expandable): adds
    rdfs1/6/8/10/12/13 machinery on top of rdfs2/3/5/7/9/11 — here
    visible as ``p rdf:type rdf:Property`` + ``p rdfs:subPropertyOf p``
    for every used predicate.  Parity target
    reasoner/src/ruleset/_rdfs.rs:35-97."""
    import ray.data as rd

    from ..reasoner import rdfs_saturate_full

    onto = rd.from_arrow(pa.table({
        "s": pa.array([t[0] for t in _ONTOLOGY], pa.large_string()),
        "p": pa.array([t[1] for t in _ONTOLOGY], pa.large_string()),
        "o": pa.array([t[2] for t in _ONTOLOGY], pa.large_string())}))
    return rdfs_saturate_full(
        doc_triples(sf_dir).union(onto), axiomatic=False,
        resource_types=False, proposition_types=False,
        literal_types=False, d_entailment=False)


_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_USED_PREDS = [
    f"<{_RDF_NS}type>",
    "<http://purl.org/dc/terms/language>",
    "<http://purl.org/dc/terms/source>",
    "<http://kg.example/nchars>",
    f"<{_RDFS}subClassOf>",
    f"<{_RDFS}subPropertyOf>",
    f"<{_RDFS}domain>",
]
_PRED_ROWS = ",\n    ".join(
    f"('{p}', '<{_RDF_NS}type>', '<{_RDF_NS}Property>'),\n"
    f"    ('{p}', '<{_RDFS}subPropertyOf>', '{p}')"
    for p in _USED_PREDS)

RDFS_ENTAILMENT_FULL_SQL = f"""
SELECT DISTINCT s, p, o FROM (
  SELECT s, p, o FROM ({RDFS_ENTAILMENT_SQL})
  UNION ALL SELECT * FROM (VALUES
    {_PRED_ROWS}) t(s, p, o)
)
"""

GAZETTEER = ["hash value", "customer", "query", "spark"]


def _gazetteer_mentions(sf_dir: str):
    """NER mention detection (gazetteer compiled once per worker
    process) over the documents table → per-doc surface counts.
    Longest-match non-overlap semantics are mirrored by the RE2
    alternation in the DuckDB oracle (longest-first alternation ⇒ same
    matches)."""
    from ..stages.ner import detect_mentions

    ds = _docs_ds(sf_dir, ["doc_id", "text"])
    gaz = {s: [(f"gaz:{s}", 0.0)] for s in GAZETTEER}
    mentions = detect_mentions(ds, gaz, key_col="doc_id", batch_size=256)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"doc_id": b["doc_id"], "surface": b["surface"],
                      "one": pa.array([1] * len(b), pa.int64())})
        return t.group_by(["doc_id", "surface"]).aggregate([("one", "sum")])

    def final(t: pa.Table) -> pa.Table:
        out = t.group_by(["doc_id", "surface"]).aggregate(
            [("one_sum", "sum")])
        return out.rename_columns(["doc_id", "surface", "n"])

    from ..functions.exchange import hash_aggregate

    return hash_aggregate(mentions, ["doc_id", "surface"],
                          partial, final)


GAZETTEER_SQL = r"""
SELECT doc_id, m AS surface, count(*) AS n
FROM (SELECT doc_id,
             unnest(regexp_extract_all(text, '\b(hash value|customer|query|spark)\b')) AS m
      FROM documents)
GROUP BY doc_id, m
"""


_LINK_ENT = "http://ent.example/"
_LINK_DICT = {
    s: [(f"{_LINK_ENT}{s.replace(' ', '_')}/1", 0.5),
        (f"{_LINK_ENT}{s.replace(' ', '_')}/2", 0.25)]
    for s in GAZETTEER
}


def _docs_links(sf_dir: str):
    """Scored (doc_id, surface, entity) links over the documents table:
    the REAL cached MentionDetector + score_links context-join argmax,
    with a constant two-candidate dictionary and a deterministic
    context (even doc_ids structurally 'contain' the /2 candidates, so
    context beats prior there — 2·in_ctx + prior semantics)."""
    import ray

    from ..stages.ner import detect_mentions, score_links

    ds = _docs_ds(sf_dir, ["doc_id", "text"])
    d_ref = ray.put(_LINK_DICT)
    mentions = detect_mentions(ds, d_ref, key_col="doc_id",
                               batch_size=256)

    def ctx(b: pa.Table) -> pa.Table:
        ids = [i for i in b["doc_id"].to_pylist() if i % 2 == 0]
        rows_id, rows_cand = [], []
        for i in ids:
            for s in GAZETTEER:
                rows_id.append(i)
                rows_cand.append(f"{_LINK_ENT}{s.replace(' ', '_')}/2")
        return pa.table({
            "doc_id": pa.array(rows_id, pa.int64()),
            "cand": pa.array(rows_cand, pa.large_string()),
            "in_ctx": pa.array([1] * len(rows_id), pa.int64())})

    context = ds.map_batches(ctx, batch_format="pyarrow")
    return score_links(mentions, context, key_col="doc_id",
                       num_partitions=8)


def _entity_links_docs(sf_dir: str):
    """Per-(doc, surface) linked entity + mention count over the
    documents table (see _docs_links); the oracle reproduces the
    context-vs-prior argmax as a CASE."""
    links = _docs_links(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"doc_id": pc.cast(b["doc_id"], pa.int64()),
                      "surface": pc.cast(b["surface"], pa.string()),
                      "entity": pc.cast(b["entity"], pa.string()),
                      "one": pa.array([1] * b.num_rows, pa.int64())})
        return t.group_by(["doc_id", "surface", "entity"]).aggregate(
            [("one", "sum")])

    def final(t: pa.Table) -> pa.Table:
        out = t.group_by(["doc_id", "surface", "entity"]).aggregate(
            [("one_sum", "sum")])
        return out.rename_columns(["doc_id", "surface", "entity", "n"])

    from ..functions.exchange import hash_aggregate

    return hash_aggregate(links, ["doc_id", "surface", "entity"],
                          partial, final)


ENTITY_LINKS_DOCS_SQL = r"""
SELECT doc_id, surface,
       'http://ent.example/' || replace(surface, ' ', '_')
         || CASE WHEN doc_id % 2 = 0 THEN '/2' ELSE '/1' END AS entity,
       count(*) AS n
FROM (SELECT doc_id,
             unnest(regexp_extract_all(
                 text, '\b(hash value|customer|query|spark)\b')) AS surface
      FROM documents)
GROUP BY 1, 2, 3
"""


def _mention_triples_docs(sf_dir: str):
    """Linked mentions → distinct NT mention triples
    ``<doc> schema:mentions <entity>`` (links_to_triples over the
    SQL-checkable docs-link pipeline; reference pattern: emitting
    model-derived edges as graph triples)."""
    from ..functions.exchange import hash_aggregate
    from ..stages.ner import SCHEMA_MENTIONS

    links = _docs_links(sf_dir)
    pred = f"<{SCHEMA_MENTIONS}>"

    def fmt(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        ents = b["entity"].to_pylist()
        return pa.table({
            "s": pa.array([f"<http://kg.example/doc/{i}>" for i in ids],
                          pa.string()),
            "p": pa.array([pred] * len(ids), pa.string()),
            "o": pa.array([f"<{e}>" for e in ents], pa.string()),
        })

    triples = links.map_batches(fmt, batch_format="pyarrow")

    def first(t: pa.Table) -> pa.Table:
        return t.group_by(["s", "p", "o"]).aggregate([]) \
            .select(["s", "p", "o"])

    return hash_aggregate(triples, ["s", "p", "o"], first, first)


MENTION_TRIPLES_DOCS_SQL = r"""
SELECT DISTINCT
    '<http://kg.example/doc/' || doc_id || '>' AS s,
    '<http://schema.org/mentions>' AS p,
    '<http://ent.example/' || replace(surface, ' ', '_')
        || CASE WHEN doc_id % 2 = 0 THEN '/2' ELSE '/1' END || '>' AS o
FROM (SELECT doc_id,
             unnest(regexp_extract_all(
                 text, '\b(hash value|customer|query|spark)\b')) AS surface
      FROM documents)
"""


def _entity_links(sf_dir: str):
    """Full NER + entity-linking pipeline over the synthetic pages:
    dictionary from schema:name triples (ray.put broadcast), cached
    per-worker mention detection, context join, per-mention argmax.
    Rows-only; template-oracle accuracy ≥0.95 asserted in
    tests/test_ner.py."""
    from ..sources.pages import ENT, SF_PAGE_COUNTS, pages_dataset
    from ..stages.ner import entity_link_pipeline

    n = SF_PAGE_COUNTS.get(_sf_of(sf_dir), 5000)
    return entity_link_pipeline(pages_dataset(n), subject_prefix=ENT)


def _mention_triples(sf_dir: str):
    """entity_links → NT mention triples <url> schema:mentions <entity>."""
    from ..sources.pages import ENT, SF_PAGE_COUNTS, pages_dataset
    from ..stages.ner import entity_link_pipeline, links_to_triples

    n = SF_PAGE_COUNTS.get(_sf_of(sf_dir), 5000)
    links = entity_link_pipeline(pages_dataset(n), subject_prefix=ENT)
    return links_to_triples(links)


def _url_dedup(sf_dir: str):
    """URL-level dedup of a messy crawl frontier: every document id
    yields three deterministic 'messy' spellings of one URL
    (scheme/host case + explicit default port + unsorted query, dot
    segments + fragment, already-canonical); RFC-3986 normalization
    collapses them and an exchange dedup counts variants per canonical
    URL.  DuckDB-oracled (URL_DEDUP_SQL): the oracle constructs the
    expected canonical form per doc_id in SQL, so a regression in
    ``normalize_url`` (case, port, dot segments, query sort, fragment)
    hash-mismatches."""
    from ..functions.exchange import hash_aggregate
    from ..functions.url import normalize_url_batch

    def messy(b: pa.Table) -> pa.Table:
        out = []
        for i in b["doc_id"].to_pylist():
            host, path = f"site{int(i) % 97}.example", f"/d/{int(i)}"
            out.append(f"HTTPS://{host.upper()}:443{path}?b=2&a=1")
            out.append(f"https://{host}/x/..{path}?b=2&a=1#frag")
            out.append(f"https://{host}{path}?a=1&b=2")
        return pa.table({"url": pa.array(out, pa.string())})

    def partial(b: pa.Table) -> pa.Table:
        b = normalize_url_batch(messy(b))
        t = pa.table({"url_norm": pc.cast(b["url_norm"], pa.string()),
                      "one": pa.array([1] * b.num_rows, pa.int64())})
        return t.group_by(["url_norm"]).aggregate([("one", "sum")]) \
            .rename_columns(["url_norm", "n_variants"])

    def final(t: pa.Table) -> pa.Table:
        return t.group_by(["url_norm"]).aggregate(
            [("n_variants", "sum")]).rename_columns(
            ["url_norm", "n_variants"])

    return hash_aggregate(_docs(sf_dir, ["doc_id"]), ["url_norm"], partial,
                          final)


URL_DEDUP_SQL = """
SELECT 'https://site' || (doc_id % 97) || '.example/d/' || doc_id
           || '?a=1&b=2' AS url_norm,
       CAST(3 AS BIGINT) AS n_variants
FROM documents
"""


def _video_frame_sample(sf_dir: str):
    """Multimodal video: one real PNG per frame (length-prefixed) →
    actor-pool frame sampling (uniform time stride, REAL per-frame
    inflate + unfilter) → one row per sampled frame with decoded
    channel means.  The closed-form pixel pattern makes the features
    DuckDB-oracled (VIDEO_FRAME_SAMPLE_SQL); a broken decoder or
    stride diverges from the oracle."""
    from ..stages.multimodal import (PngVideoDecoder, sample_frames,
                                     synth_png_video_batch)
    from ..util import round_away

    videos = _map_docs(sf_dir, ["doc_id"], synth_png_video_batch)
    out = sample_frames(videos, every_sec=0.25,
                        decoder=PngVideoDecoder())

    def flat(b: pa.Table) -> pa.Table:
        feats = b["feature"].to_pylist()
        return pa.table({
            "video_id": b["video_id"],
            "frame_idx": b["frame_idx"],
            "t_sec": pa.array(round_away(b["t_sec"].to_numpy(), 4),
                              pa.float64()),
            "f_r": pa.array(round_away([f[0] for f in feats], 4),
                            pa.float64()),
            "f_g": pa.array(round_away([f[1] for f in feats], 4),
                            pa.float64()),
            "f_b": pa.array(round_away([f[2] for f in feats], 4),
                            pa.float64()),
        })

    return out.map_batches(flat, batch_format="pyarrow")


VIDEO_FRAME_SAMPLE_SQL = r"""
WITH v AS (
  SELECT doc_id AS video_id,
         8 + (doc_id % 5) * 10 AS nf,
         8 + (doc_id % 3) * 8 AS fps
  FROM documents
), f AS (
  SELECT video_id, fps,
         unnest(generate_series(0, nf - 1, fps // 4)) AS frame_idx
  FROM v)
SELECT video_id,
       CAST(frame_idx AS INTEGER) AS frame_idx,
       ROUND(frame_idx / CAST(fps AS DOUBLE), 4) AS t_sec,
       ROUND(((video_id * 7 + frame_idx * 13) % 100) + 21.0, 4) AS f_r,
       ROUND(((video_id * 7 + frame_idx * 13 + 29) % 100) + 21.0, 4) AS f_g,
       ROUND(((video_id * 7 + frame_idx * 13 + 58) % 100) + 21.0, 4) AS f_b
FROM f
"""


def _audio_features(sf_dir: str):
    """Multimodal audio: real RIFF/WAVE payloads (square wave, period
    and amplitude closed-form in the id) → actor-pool chunk-walking
    decode + windowed RMS / zero-crossing features (vectorized numpy).
    DuckDB-oracled via AUDIO_FEATURES_SQL."""
    from ..stages.multimodal import (WavAudioDecoder, audio_features,
                                     synth_wav_audio_batch)
    from ..util import round_away

    audio = _map_docs(sf_dir, ["doc_id"], synth_wav_audio_batch)
    out = audio_features(audio, decoder=WavAudioDecoder())

    def rounded(b: pa.Table) -> pa.Table:
        return pa.table({
            "audio_id": b["audio_id"],
            "window": b["window"],
            "rms": pa.array(round_away(b["rms"].to_numpy(), 4),
                            pa.float64()),
            "zcr": pa.array(round_away(b["zcr"].to_numpy(), 4),
                            pa.float64()),
        })

    return out.map_batches(rounded, batch_format="pyarrow")


AUDIO_FEATURES_SQL = r"""
WITH a AS (
  SELECT doc_id AS audio_id,
         64 + (doc_id % 7) * 32 AS p,
         8192 + (doc_id % 5) * 4096 AS amp
  FROM documents
), w AS (
  SELECT audio_id, p, amp, unnest(generate_series(0, 6)) AS win FROM a)
SELECT audio_id,
       CAST(win AS INTEGER) AS "window",
       ROUND(amp / 32768.0, 4) AS rms,
       ROUND((((win * 1024 + 1023) // p) - ((win * 1024) // p))
             / 1023.0, 4) AS zcr
FROM w
"""


def _media_features(sf_dir: str):
    """Multimodal images: REAL PNG payloads (stdlib zlib deflate, all
    five scanline filters) → actor-pool decode (inflate + unfilter) +
    nearest-neighbor resize + channel-mean / gradient features.  The
    closed-form ramp pattern (pixel = a_c + y + 2x, sizes divisible by
    8) gives exact expected features, so this is DuckDB-oracled
    (MEDIA_FEATURES_SQL) instead of rows-only."""
    from ..stages.multimodal import (PngImageDecoder, media_features,
                                     synth_png_media_batch)
    from ..util import round_away

    media = _map_docs(sf_dir, ["doc_id"], synth_png_media_batch)
    out = media_features(media, decoder=PngImageDecoder())

    def flat(b: pa.Table) -> pa.Table:
        feats = b["feature"].to_pylist()
        return pa.table({
            "media_id": b["media_id"],
            "f_r": pa.array(round_away([f[0] for f in feats], 4),
                            pa.float64()),
            "f_g": pa.array(round_away([f[1] for f in feats], 4),
                            pa.float64()),
            "f_b": pa.array(round_away([f[2] for f in feats], 4),
                            pa.float64()),
            "f_grad": pa.array(round_away([f[3] for f in feats], 4),
                               pa.float64()),
        })

    return out.map_batches(flat, batch_format="pyarrow")


MEDIA_FEATURES_SQL = r"""
WITH m AS (
  SELECT doc_id,
         16 + (doc_id % 3) * 8 AS h,
         16 + (doc_id % 4) * 8 AS w
  FROM documents)
SELECT doc_id AS media_id,
       ROUND(((doc_id * 7) % 100) + 0.4375 * h + 0.875 * w, 4) AS f_r,
       ROUND(((doc_id * 7 + 29) % 100) + 0.4375 * h + 0.875 * w, 4) AS f_g,
       ROUND(((doc_id * 7 + 58) % 100) + 0.4375 * h + 0.875 * w, 4) AS f_b,
       ROUND(h / 8.0 + w / 4.0, 4) AS f_grad
FROM m
"""


def _graph_literals(sf_dir: str):
    """Kind-filtered projection `Graph::literals()` over every term
    position (api/src/graph.rs:249-312)."""
    from .. import graph as G

    return G.literals(doc_triples(sf_dir))


GRAPH_LITERALS_SQL = f"""
SELECT DISTINCT o AS term FROM ({DOC_TRIPLES_SQL}) WHERE o LIKE '"%'
"""


def _graph_remove_matching(sf_dir: str):
    """`remove_matching(Any, rdf:type, Any)` bulk delete
    (api/src/graph.rs:512-530)."""
    from .. import graph as G
    from ..terms import RDF_TYPE

    return G.remove_matching(doc_triples(sf_dir), p=f"<{RDF_TYPE}>")


GRAPH_REMOVE_MATCHING_SQL = f"""
SELECT s, p, o FROM ({DOC_TRIPLES_SQL})
WHERE p <> '<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>'
"""


def _graph_names(sf_dir: str):
    """Quad adapters: triples → named quads (one graph per source) →
    `Dataset::graph_names()` (api/src/dataset.rs:207-233)."""
    from .. import graph as G

    return G.graph_names(_doc_quads(sf_dir))


def _doc_quads(sf_dir: str):
    """doc triples placed into one named graph per document source —
    the graph name is derived inside the batch (no driver-side lookup;
    doc_triples_batch emits 4 groups of n rows, so g tiles ×4)."""
    from .doc_triples import doc_triples_batch

    def to_quads(b: pa.Table) -> pa.Table:
        t = doc_triples_batch(b)
        gs = [f"<http://kg.example/graph/{s}>"
              for s in b["source"].to_pylist()] * 4
        return t.append_column("g", pa.array(gs, pa.large_string()))

    return _map_docs(sf_dir, ["doc_id", "text", "lang", "source", "n_chars"],
                     to_quads)


GRAPH_NAMES_SQL = """
SELECT DISTINCT '<http://kg.example/graph/' || source || '>' AS term
FROM documents
"""


def _indexed_quad_scan(sf_dir: str):
    """GSPO-family quad materialize + graph-pruned pattern scan
    (inmem/src/dataset.rs:215-222): quads land in sorted shard
    layouts led by the graph name; a GRAPH-bound scan reads ONE shard
    directory and pushes the predicate filter into the parquet read."""
    import hashlib

    from ..stages.materialize import materialize_graph, quads_matching

    tag = hashlib.sha1(f"quads:{sf_dir}".encode()).hexdigest()[:12]
    out_dir = f"/tmp/sophia_quads/{tag}"
    materialize_graph(_doc_quads(sf_dir), out_dir, orders=("gspo",),
                      num_shards=8, resume=True, distinct=True)
    return quads_matching(
        out_dir, g="<http://kg.example/graph/src0>",
        p="<http://purl.org/dc/terms/language>", num_shards=8)


INDEXED_QUAD_SCAN_SQL = """
SELECT '<http://kg.example/graph/src0>' AS g,
       '<http://kg.example/doc/' || doc_id || '>' AS s,
       '<http://purl.org/dc/terms/language>' AS p,
       '"' || lang || '"' AS o
FROM documents WHERE source = 'src0'
"""


def _entity_dedup_exact(sf_dir: str):
    """Canonical entity dedup, exact-name flavor (SURVEY §2.8 /
    north-rule canonicalization): doc entities sharing a dc:source name
    collapse onto the min IRI via groupby(name).min; every triple is
    rewritten through the broadcast mapping and exact-deduped."""
    from ..stages.entity_dedup import canonicalize_entities
    from .doc_triples import DC_SOURCE, DOC

    out, _mapping = canonicalize_entities(
        doc_triples(sf_dir), subject_prefix=DOC,
        name_predicate=DC_SOURCE, method="exact")
    return out


ENTITY_DEDUP_EXACT_SQL = f"""
WITH t AS ({DOC_TRIPLES_SQL}),
names AS (SELECT s, o FROM t WHERE p = '<http://purl.org/dc/terms/source>'),
canon AS (SELECT o AS name, min(s) AS c FROM names GROUP BY o),
map AS (SELECT n.s AS s, c.c AS canon FROM names n
        JOIN canon c ON n.o = c.name WHERE n.s <> c.c)
SELECT DISTINCT coalesce(m1.canon, t.s) AS s, t.p,
                coalesce(m2.canon, t.o) AS o
FROM t LEFT JOIN map m1 ON t.s = m1.s LEFT JOIN map m2 ON t.o = m2.s
"""


def _entity_dedup_lsh(sf_dir: str):
    """Canonical entity dedup, MinHash-LSH flavor over schema:name
    surface forms from the flagship KG triples (rows-only; exact-match
    oracle is `entity_dedup`, LSH recall asserted in
    tests/test_entity_dedup.py)."""
    from ..pipelines.kg import kg_pipeline
    from ..sources.pages import ENT, SF_PAGE_COUNTS, pages_dataset
    from ..stages.entity_dedup import canonicalize_entities

    n = SF_PAGE_COUNTS.get(_sf_of(sf_dir), 5000)
    nt = kg_pipeline(pages_dataset(n))
    out, _mapping = canonicalize_entities(
        nt, subject_prefix=ENT, threshold=0.9, num_partitions=8)
    return out


def _minhash_bands(sf_dir: str):
    """MinHash-LSH banding rows (doc_id, band_id, band_hash) — the
    blocking stage of near-dup dedup (SURVEY §2.8).  Oracle-checked:
    md5-based shingle/band hashing is reproduced exactly in SQL
    (the permutation constants are embedded in the query)."""
    from ..functions.dedup import band_rows
    from ..stages.neardup import minhash_signatures

    ds = _docs_ds(sf_dir, ["doc_id", "text"])
    # task pool with per-worker cached params (functions/dedup.py):
    # actor-pool spin-up dominated this cheap-setup stage's wall time
    sigs = minhash_signatures(ds, batch_size=256)
    return sigs.map_batches(lambda b: band_rows(b, 16, 4),
                            batch_format="pyarrow")


_MINHASH_CTES = """
WITH RECURSIVE perms(pi, a, b) AS (VALUES
    (0, 2297359619001564596, 570641018389960891),
    (1, 1396682528897996047, 787603798186516972),
    (2, 1973689801170867272, 293750097594324124),
    (3, 1819927849474927637, 962864383515356972),
    (4, 572192888165898362, 1375216642409152344),
    (5, 571748048327668951, 2063949654057552392),
    (6, 1071453510346823115, 410343612402300032),
    (7, 2143071682933157237, 1359814319648410247),
    (8, 1865242737500154728, 101865178233748542),
    (9, 1532418594269339779, 1207550233880778226),
    (10, 379716980844854581, 1510001446519210375),
    (11, 1750777661071092056, 1918593514066211234),
    (12, 1520798217888136606, 392368560994791802),
    (13, 1611122243678701954, 1365882634414198249),
    (14, 1048235628103308220, 2000839474307464185),
    (15, 1077373049702139041, 2137406799659846683),
    (16, 1000592739665268026, 2086389863579132104),
    (17, 456675647751657725, 2274448960578859787),
    (18, 1050450229337746265, 1492305152117099552),
    (19, 760543396461257179, 1172444636525752822),
    (20, 2063321781277379071, 1124925287146532413),
    (21, 267364570529679360, 1386887510159385380),
    (22, 777431531920034492, 1929643330193279659),
    (23, 2146497176616232719, 231644453789772501),
    (24, 1495477363401685950, 225285373686556194),
    (25, 648881935158774718, 1793298793622896354),
    (26, 1377488174878099308, 2206124335314378670),
    (27, 262579006026876148, 1627828948548348546),
    (28, 1704747971477620217, 198948935564477444),
    (29, 856858769658023397, 1130364857072845302),
    (30, 1983852346201383559, 386776297324261773),
    (31, 839771884757445449, 2191391983603931930),
    (32, 1199990111390225682, 419346625420198094),
    (33, 1362947483897176665, 969210764397336409),
    (34, 1671865959972055054, 468900105785203579),
    (35, 1077240956986238970, 1990245566174715570),
    (36, 1007446255075745114, 579766154391765855),
    (37, 1801732545371167618, 210484898835848432),
    (38, 1092656530294298716, 1187158319135118332),
    (39, 1201851346935503804, 158101386990278531),
    (40, 2251208029941317036, 600745515900680676),
    (41, 2216872713715991304, 2292786955474901222),
    (42, 634356285132873763, 652699705481037454),
    (43, 633099677421309009, 102400447934616092),
    (44, 161962062168655410, 1914738081494129164),
    (45, 692163906031803780, 1420028748837633862),
    (46, 1138368374822601726, 733284897621110002),
    (47, 370189644521515574, 668164788960253723),
    (48, 861652531725782788, 1008993515362167465),
    (49, 1104119908775765469, 1072131779469420093),
    (50, 1744778438383761810, 155022034638842868),
    (51, 463618807884355116, 2240552382924550939),
    (52, 1189795419742834890, 990075153342510699),
    (53, 365750060173591524, 1135767110662776147),
    (54, 1805935812952358751, 323906358285871037),
    (55, 864677038069918991, 725736267669063295),
    (56, 1632398491907562958, 1059583932984535030),
    (57, 1309402721808639228, 389065880395732440),
    (58, 834296198785359550, 1254442603959937213),
    (59, 1389599250197995221, 2030099650348479872),
    (60, 252301427447193325, 1898818616440063258),
    (61, 393820126512235375, 961219165520271992),
    (62, 1452450688103961368, 1254651014867448780),
    (63, 1969251275389991129, 2042618724242302210)),
toks AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(coalesce(text, '')),
                                           '\\W+'),
                     x -> x <> '') AS tk
  FROM documents),
padded AS (
  SELECT doc_id,
         CASE WHEN len(tk) < 3
              THEN list_concat(tk, list_transform(range(3 - len(tk)),
                                                  x -> ''))
              ELSE tk END AS tk
  FROM toks),
shingles AS (
  SELECT DISTINCT doc_id,
         CAST(('0x' || substr(md5(sh), 1, 16)) AS UBIGINT) AS h
  FROM (SELECT doc_id,
               unnest(list_transform(range(len(tk) - 2),
                      i -> tk[i + 1] || ' ' || tk[i + 2] || ' '
                           || tk[i + 3])) AS sh
        FROM padded)),
sig AS (
  SELECT doc_id, pi,
         min(CAST((CAST(a AS HUGEINT) * CAST(h AS HUGEINT) + b)
                  % CAST('18446744073709551616' AS HUGEINT)
                  % 2305843009213693951 AS UBIGINT)) AS v
  FROM shingles CROSS JOIN perms GROUP BY doc_id, pi),
bands AS (
  SELECT doc_id, CAST(pi // 4 AS INTEGER) AS band_id,
         string_agg(CAST(v AS VARCHAR), ',' ORDER BY pi) AS txt
  FROM sig GROUP BY doc_id, pi // 4)
"""

MINHASH_BANDS_SQL = _MINHASH_CTES + """
SELECT doc_id, band_id,
       CAST(('0x' || substr(md5(txt), 1, 15)) AS BIGINT) AS band_hash
FROM bands
"""

NEAR_DUP_CLUSTERS_SQL = _MINHASH_CTES + """,
band_hashes AS (
  SELECT doc_id, band_id,
         CAST(('0x' || substr(md5(txt), 1, 15)) AS BIGINT) AS band_hash
  FROM bands),
bucket_members AS (
  -- hub guard mirrors lsh_candidate_pairs: buckets over the cap keep
  -- an md5-hash-ordered (unbiased) sample, not the smallest doc_ids
  SELECT band_id, band_hash, doc_id,
         count(*) OVER (PARTITION BY band_id, band_hash) AS sz,
         row_number() OVER (PARTITION BY band_id, band_hash
                            ORDER BY md5(CAST(doc_id AS VARCHAR)),
                                     doc_id) AS rn
  FROM (SELECT DISTINCT band_id, band_hash, doc_id FROM band_hashes)),
capped AS (SELECT * FROM bucket_members WHERE sz <= 50 OR rn <= 50),
cand AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM capped x JOIN capped y
    ON x.band_id = y.band_id AND x.band_hash = y.band_hash
   AND x.doc_id < y.doc_id),
verified AS (
  SELECT c.a, c.b
  FROM cand c
  JOIN sig va ON va.doc_id = c.a
  JOIN sig vb ON vb.doc_id = c.b AND vb.pi = va.pi
  GROUP BY c.a, c.b
  HAVING sum(CASE WHEN va.v = vb.v THEN 1 ELSE 0 END) >= 32),
sym AS (
  SELECT a AS x, b AS y FROM verified
  UNION SELECT b, a FROM verified
  UNION SELECT doc_id, doc_id FROM documents),
reach(x, y) AS (
  SELECT x, y FROM sym
  UNION
  SELECT r.x, s.y FROM reach r JOIN sym s ON r.y = s.x)
SELECT x AS doc_id, min(y) AS cluster FROM reach GROUP BY x
"""


# ---------------------------------------------------------------------------
# bigram language-model scoring + document chunking (round 5)
# ---------------------------------------------------------------------------

def _lm_trained(sf_dir: str):
    """Fused LM training: ONE docs pass + ONE exchange produces both
    the bigram counts and the vocabulary — (key, c, is_tok) rows where
    is_tok marks distinct-token (|V|) rows and the rest are summed
    bigram occurrence counts.  Replaces the earlier separate
    bigram-count and vocab-count passes (bench: lm_score 1.28 → one
    fewer docs scan and exchange).  Returns the exchange's partition
    refs."""
    from ..functions.exchange import hash_aggregate_refs
    from ..functions.text import lm_train_batch

    def sum_c(t: pa.Table) -> pa.Table:
        # summing is exact for bigram rows and collapses repeated
        # distinct-token rows (c is unused on the is_tok side)
        return (t.group_by(["key", "is_tok"]).aggregate([("c", "sum")])
                .rename_columns(["key", "is_tok", "c"]))

    return hash_aggregate_refs(_docs(sf_dir, ["doc_id", "text"]), ["key"],
                               lm_train_batch, sum_c)


def _lm_row_kinds(t: pa.Table):
    """A trained partition's (bigram rows, distinct-token rows)."""
    n_tok = int(pc.sum(t["is_tok"]).as_py() or 0)
    return t.num_rows - n_tok, n_tok


def _lm_attach_lp(t: pa.Table, v: int) -> pa.Table:
    """(bigram, c) rows co-located by leading token w1 → (bigram, lp)
    with add-one smoothing: lp = log2((c+1) / (c(w1·)+|V|)) where
    c(w1·) = Σ_w2 c(w1 w2).  The window sum over w1 is exact only when
    every bigram sharing a w1 is present in ``t`` (driver table or a
    w1-hash partition)."""
    import polars as pl

    df = (pl.from_arrow(t)
          .with_columns(w1=pl.col("bigram").str.split(" ").list.get(0)))
    df = df.with_columns(cw1=pl.col("c").sum().over("w1"))
    num = df["c"].to_numpy() + 1.0
    den = df["cw1"].to_numpy() + float(v)
    return pa.table({"bigram": df["bigram"].to_arrow().cast(pa.string()),
                     "lp": pa.array(np.log2(num / den), pa.float64())})


def _mean_cols(doc_id, s, n, out_col: str, n_col: str) -> pa.Table:
    """(doc_id, out_col = s / n rounded to 4 places, NULL where n = 0,
    n_col = n)."""
    s = np.asarray(s, np.float64)
    n = np.asarray(n, np.int64)
    avg = np.round(np.where(n > 0, s, 0.0) / np.maximum(n, 1), 4)
    return pa.table({"doc_id": doc_id,
                     out_col: pa.array(avg, pa.float64(), mask=(n == 0)),
                     n_col: pa.array(n, pa.int64())})


def _ngram_mean(sf_dir: str, width: int, key: str, val: str, out_col: str,
                n_col: str, table):
    """The scoring half of the LM and DSIR plans: each document's mean
    ``val`` over its ``width``-gram occurrences (2: bigrams, 1: tokens)
    found under ``key`` in ``table`` → (doc_id, out_col, n_col = the
    occurrences found; a document with none gets a NULL mean and 0).

    ``table`` as a driver ``pa.Table`` (under the broadcast gate) is
    ``ray.put`` once and joined per block against one polars frame per
    worker; as partition refs (the over-gate fallback) it meets the
    occurrences in a hash join and the per-document tail sums them.
    Plan equality is pinned in tests/test_broadcast.py."""
    import ray

    from ..functions.broadcast import worker_cached
    from ..functions.exchange import (auto_partitions, exchange_join_refs,
                                      map_blocks)
    from ..functions.text import ngram_batch, ngram_rows, token_lists

    docs = _docs(sf_dir, ["doc_id", "text"])
    if isinstance(table, pa.Table):
        import ray.data as rd

        ref = ray.put(table)

        def score(b: pa.Table) -> pa.Table:
            import polars as pl

            tab = worker_cached(ref, pl.from_arrow)
            agg = (ngram_rows(token_lists(b), width, key).join(tab, on=key)
                   .group_by("doc_id").agg(s=pl.col(val).sum(), n=pl.len()))
            out = (pl.from_arrow(b.select(["doc_id"]))
                   .join(agg, on="doc_id", how="left"))
            return _mean_cols(
                out["doc_id"].to_arrow().cast(b["doc_id"].type),
                out["s"].fill_null(0.0).to_numpy(),
                out["n"].fill_null(0).to_numpy(), out_col, n_col)

        return rd.from_arrow_refs(map_blocks(docs, score))

    joined = exchange_join_refs(
        docs, table, "inner", auto_partitions(docs), on=[key],
        combine=(lambda b: ngram_batch(b, width, key), None))
    rows = map_blocks(joined, lambda t: pa.table({
        "doc_id": t["doc_id"], "s": t[val],
        "n": np.ones(t.num_rows, np.int64)}))
    return _per_doc_sums(rows, docs, {"s": 0.0, "n": 0}, lambda g: _mean_cols(
        g["doc_id"], g["s"].to_numpy(zero_copy_only=False),
        g["n"].to_numpy(zero_copy_only=False), out_col, n_col))


def _lm_score(sf_dir: str):
    """Per-document bigram-LM quality score: train an add-one-smoothed
    bigram model on the corpus itself (the CCNet/KenLM-style quality
    signal, reduced to exact integer counts so the DuckDB oracle
    reproduces it bit-for-bit after round-4), then score every document
    with its mean log2 bigram probability.

    Two streaming passes over documents (fused train, score) — each a
    combiner-first exchange, nothing materializes driver-side except
    the gated model table.  Default plan broadcasts the (bigram, lp)
    model; above ``BROADCAST_ROWS`` distinct bigrams — counted where
    the trained partitions live, before any fetch — the bigram table
    re-exchanges on its leading token so each partition holds every
    bigram of its w1s (making the c(w1·) window exact) and attaches lp
    there.  Scoring is :func:`_ngram_mean` either way."""
    from ..functions.broadcast import BROADCAST_ROWS, gated_gather
    from ..functions.exchange import hash_aggregate_refs, map_partitions

    def split_bg(t: pa.Table) -> pa.Table:
        f = t.filter(pc.invert(t["is_tok"]))
        return pa.table({"bigram": f["key"], "c": f["c"]})

    def add_w1(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(split_bg(t))
                .with_columns(w1=pl.col("bigram").str.split(" ")
                              .list.get(0))
                .to_arrow())

    trained = _lm_trained(sf_dir)
    model = gated_gather(trained, BROADCAST_ROWS,
                         count=lambda t: _lm_row_kinds(t)[0])
    if model is not None:
        lm = _lm_attach_lp(split_bg(model), _lm_row_kinds(model)[1])
    else:
        v = sum(map_partitions(trained, lambda t: _lm_row_kinds(t)[1]))
        lm = hash_aggregate_refs(
            trained, ["w1"], add_w1,
            lambda t: _lm_attach_lp(t.drop_columns(["w1"]), v))
    return _ngram_mean(sf_dir, 2, "bigram", "lp", "lm_logprob", "n_bigrams",
                       lm)


LM_SCORE_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         list_filter(string_split_regex(coalesce(text, ''), '\s+'),
                     x -> x <> '') AS ts
  FROM documents
), bg AS (
  SELECT doc_id,
         unnest([ts[i] || ' ' || ts[i+1] for i in range(1, len(ts))])
             AS bigram
  FROM toks
), bgc AS (
  SELECT bigram, count(*) AS c FROM bg GROUP BY 1
), w1c AS (
  SELECT split_part(bigram, ' ', 1) AS w1, sum(c) AS cw1
  FROM bgc GROUP BY 1
), vocab AS (
  SELECT count(DISTINCT t) AS v
  FROM (SELECT unnest(ts) AS t FROM toks)
), scored AS (
  SELECT b.doc_id,
         log2((bgc.c + 1.0) / (w1c.cw1 + vocab.v)) AS lp
  FROM bg b
  JOIN bgc USING (bigram)
  JOIN w1c ON split_part(b.bigram, ' ', 1) = w1c.w1
  CROSS JOIN vocab
), per_doc AS (
  SELECT doc_id, sum(lp) AS slp, count(*) AS n FROM scored GROUP BY 1
)
SELECT d.doc_id,
       round(p.slp / p.n, 4) AS lm_logprob,
       CAST(coalesce(p.n, 0) AS BIGINT) AS n_bigrams
FROM documents d LEFT JOIN per_doc p USING (doc_id)
"""


def _dsir_token_counts(sf_dir: str):
    """Single-pass DSIR count training: (tok, c_all, c_tgt) over the
    whole corpus — every token occurrence counted once in ``c_all`` and,
    when its document's lang is ``DSIR_TARGET_LANG``, once in ``c_tgt``:
    both the general and the target unigram distributions in ONE
    combiner-first exchange.  Returns the exchange's partition refs."""
    from ..functions.exchange import hash_aggregate_refs
    from ..functions.text import (DSIR_TARGET_LANG, arrow_out, ngram_rows,
                                  token_lists)

    def partial(b: pa.Table) -> pa.Table:
        import polars as pl

        toks = ngram_rows(token_lists(b, ["lang"]), 1, "tok", ["lang"])
        return arrow_out(
            toks.group_by("tok").agg(
                c_all=pl.len(),
                c_tgt=(pl.col("lang") == DSIR_TARGET_LANG).sum()),
            b, tok=pa.string(), c_all=pa.int64(), c_tgt=pa.int64())

    def sums(t: pa.Table) -> pa.Table:
        return (t.group_by(["tok"])
                .aggregate([("c_all", "sum"), ("c_tgt", "sum")])
                .rename_columns(["tok", "c_all", "c_tgt"]))

    return hash_aggregate_refs(_docs(sf_dir, ["text", "lang"]), ["tok"],
                               partial, sums)


def _dsir_totals(counts: pa.Table):
    """(Σ c_tgt, Σ c_all, distinct tokens) of (tok, c_all, c_tgt) rows —
    the DSIR normalizers; they add up over count partitions."""
    return (int(pc.sum(counts["c_tgt"]).as_py() or 0),
            int(pc.sum(counts["c_all"]).as_py() or 0), counts.num_rows)


def _dsir_lr_table(counts: pa.Table, tt: int, at: int, v: int) -> pa.Table:
    """(tok, c_all, c_tgt) + totals → (tok, lr) per-token importance
    log-ratio: lr = log2((c_tgt+1)/(TT+V)) − log2((c_all+1)/(AT+V)) —
    add-one-smoothed target-vs-general unigram LM ratio (the DSIR
    importance weight with exact integer counts)."""
    tgt = (counts["c_tgt"].to_numpy(zero_copy_only=False) + 1.0) \
        / (tt + float(v))
    gen = (counts["c_all"].to_numpy(zero_copy_only=False) + 1.0) \
        / (at + float(v))
    return pa.table({"tok": counts["tok"].combine_chunks()
                     .cast(pa.string()),
                     "lr": pa.array(np.log2(tgt) - np.log2(gen),
                                    pa.float64())})


def _dsir_weights(sf_dir: str):
    """DSIR-style per-document importance weight (Xie et al. 2023,
    reduced to exact unigram counts): train target (lang = en) and
    general unigram LMs on the corpus in one exchange, weight each doc
    by the mean per-occurrence log2 likelihood ratio.  Docs scoring
    high look most like the target slice — the data-selection signal.

    Two streaming passes (count, score).  Default plan broadcasts the
    (tok, lr) table; above ``BROADCAST_ROWS`` distinct tokens — counted
    where the count partitions live, before any fetch — lr is computed
    on the count partitions themselves: it is a pure per-row function
    of (c_all, c_tgt, totals), with no co-location constraint (unlike
    the bigram LM's w1 window), and the totals add up from one pass
    over the count partitions.  Scoring is :func:`_ngram_mean` either
    way."""
    from ..functions.broadcast import BROADCAST_ROWS, gated_gather
    from ..functions.exchange import map_blocks, map_partitions

    cnt = _dsir_token_counts(sf_dir)
    counts = gated_gather(cnt, BROADCAST_ROWS)
    if counts is not None:
        lr = _dsir_lr_table(counts, *_dsir_totals(counts))
    else:
        tt, at, v = map(sum, zip(*map_partitions(cnt, _dsir_totals)))
        lr = map_blocks(cnt, lambda t: _dsir_lr_table(t, tt, at, v))
    return _ngram_mean(sf_dir, 1, "tok", "lr", "dsir_weight", "n_tokens", lr)


DSIR_WEIGHTS_SQL = r"""
WITH toks AS (
  SELECT doc_id,
         lang = 'en' AS tgt,
         unnest(list_filter(string_split_regex(coalesce(text, ''),
                '\s+'), x -> x <> '')) AS tok
  FROM documents
), cnt AS (
  SELECT tok,
         count(*) AS c_all,
         sum(CASE WHEN tgt THEN 1 ELSE 0 END) AS c_tgt
  FROM toks GROUP BY 1
), tot AS (
  SELECT sum(c_all) AS at, sum(c_tgt) AS tt, count(*) AS v FROM cnt
), lr AS (
  SELECT tok,
         log2((c_tgt + 1.0) / (tot.tt + tot.v))
           - log2((c_all + 1.0) / (tot.at + tot.v)) AS lr
  FROM cnt CROSS JOIN tot
), per_doc AS (
  SELECT t.doc_id, sum(l.lr) AS slr, count(*) AS n
  FROM toks t JOIN lr l USING (tok)
  GROUP BY 1
)
SELECT d.doc_id,
       round(p.slr / p.n, 4) AS dsir_weight,
       CAST(coalesce(p.n, 0) AS BIGINT) AS n_tokens
FROM documents d LEFT JOIN per_doc p USING (doc_id)
"""


def _text_groups(t: pa.Table) -> pa.Table:
    """(doc_id, text_clean, n_dups) rows → one row per distinct
    text_clean: min doc_id, summed n_dups.  Keyed on the text itself,
    so NULL is its own group apart from '' — SQL GROUP BY semantics."""
    return (t.group_by(["text_clean"])
            .aggregate([("doc_id", "min"), ("n_dups", "sum")])
            .rename_columns(["text_clean", "doc_id", "n_dups"])
            .select(["doc_id", "text_clean", "n_dups"]))


def _clean_corpus_block(b: pa.Table) -> pa.Table:
    """clean_corpus's per-block partial: Gopher filter → PII redaction
    → equal redacted texts collapsed with their multiplicity."""
    from ..functions.text import pii_redact_text

    k = _gopher_kept(b)
    return _text_groups(pa.table({
        "doc_id": k["doc_id"], "text_clean": pii_redact_text(k["text"]),
        "n_dups": pa.array(np.ones(k.num_rows, np.int64))}))


def _clean_corpus(sf_dir: str):
    """The composed C4/Gopher-style cleaning pipeline — the realistic
    end-to-end curation flagship: Gopher quality FILTER (integer
    cross-multiplied thresholds, the ``quality_filter`` kernel) → PII
    redaction of the survivors (vectorized RE2) → exact dedup on the
    redacted text (first doc_id wins, multiplicity kept).  One
    content-keyed exchange whose per-block combine runs all three
    steps, so the documents are read once and nothing is joined.

    Output: (doc_id, text_clean, n_dups) — one row per distinct
    surviving text."""
    from ..functions.exchange import hash_aggregate

    return hash_aggregate(_docs(sf_dir, ["doc_id", "text"]), ["text_clean"],
                          _clean_corpus_block, _text_groups)


def _clean_corpus_sql() -> str:
    from ..functions.text import PII_EMAIL, PII_IPV4, PII_NUM

    return f"""
WITH kept AS (
  SELECT doc_id FROM ({QUALITY_FILTER_SQL})
), red AS (
  SELECT d.doc_id,
         regexp_replace(regexp_replace(regexp_replace(d.text,
             '{PII_EMAIL}', '[EMAIL]', 'g'),
             '{PII_IPV4}', '[IP]', 'g'),
             '{PII_NUM}', '[NUM]', 'g') AS text_clean
  FROM documents d JOIN kept k ON d.doc_id = k.doc_id
)
SELECT CAST(min(doc_id) AS BIGINT) AS doc_id,
       text_clean,
       CAST(count(*) AS BIGINT) AS n_dups
FROM red GROUP BY text_clean
"""


def _vocab_hll(sf_dir: str):
    """HyperLogLog distinct-token estimate (p=12, m=4096) — THE
    100-TB cardinality primitive: per-batch (bucket, maxrank) partials
    merge by per-bucket MAX through one exchange, so the wire carries
    ≤ m rows per block regardless of corpus size (no distinct-token
    shuffle at all, unlike the exact |V| pass).  Deterministic
    (md5-derived hashes) and built from exact integer / binary-fraction
    arithmetic, so the DuckDB oracle reproduces the estimate
    bit-for-bit; accuracy-vs-exact gated in tests/test_sketches.py."""
    from ..functions.exchange import gather, hash_aggregate_refs
    from ..functions.sketches import hll_estimate, hll_partial_batch

    docs = _docs(sf_dir, ["doc_id", "text"])

    def merge(t: pa.Table) -> pa.Table:
        return (t.group_by(["bucket"]).aggregate([("maxrank", "max")])
                .rename_columns(["bucket", "maxrank"]))

    merged = gather(hash_aggregate_refs(      # ≤ m = 4096 rows — bounded
        docs, ["bucket"], hll_partial_batch, merge))
    est = hll_estimate(
        np.asarray(merged["bucket"].to_numpy(), np.int64),
        np.asarray(merged["maxrank"].to_numpy(), np.int64))
    return pa.table({
        "est_distinct": pa.array([est["est_distinct"]], pa.float64()),
        "nonzero_buckets": pa.array([est["nonzero_buckets"]],
                                    pa.int64()),
        "m": pa.array([est["m"]], pa.int64())})


def _vocab_hll_sql() -> str:
    from ..functions.sketches import HLL_M, HLL_RANK_BITS

    mask = (1 << HLL_RANK_BITS) - 1
    rmax = HLL_RANK_BITS + 1
    return rf"""
WITH toks AS (
  SELECT DISTINCT
         unnest(list_filter(string_split_regex(coalesce(text, ''),
                '\s+'), x -> x <> '')) AS tok
  FROM documents
), h AS (
  SELECT CAST('0x' || substr(md5(tok), 1, 8) AS UBIGINT) AS hv FROM toks
), br AS (
  SELECT hv >> {HLL_RANK_BITS} AS bucket,
         CASE WHEN (hv & {mask}) = 0 THEN {rmax}
              ELSE {rmax} - length(bin(hv & {mask})) END AS rank
  FROM h
), mx AS (
  SELECT bucket, max(rank) AS maxrank FROM br GROUP BY 1
), agg AS (
  -- coalesce: an all-empty corpus has no buckets and sum() over
  -- nothing is NULL, but the harmonic denominator must read 0
  SELECT count(*) AS nonzero,
         coalesce(sum(power(2.0, -maxrank)), 0) AS s
  FROM mx
), es AS (
  SELECT nonzero, {HLL_M} - nonzero AS zeros,
         (0.7213 / (1 + 1.079 / {HLL_M})) * {HLL_M} * {HLL_M}
             / (s + ({HLL_M} - nonzero)) AS raw
  FROM agg
)
SELECT round(CASE WHEN raw <= 2.5 * {HLL_M} AND zeros > 0
                  THEN {HLL_M} * ln(CAST({HLL_M} AS DOUBLE) / zeros)
                  ELSE raw END, 4) AS est_distinct,
       CAST(nonzero AS BIGINT) AS nonzero_buckets,
       CAST({HLL_M} AS BIGINT) AS m
FROM es
"""


def _heavy_hitter_partition(t: pa.Table) -> pa.Table:
    """One token partition's (tok, c) partials → its exact top-K rows
    (tok, c) stacked over its Count-Min counters (row, cell, c); the
    columns a row kind lacks are NULL."""
    from ..functions.sketches import CMS_TOP_K, cms_cells

    cnt = _token_totals(t)
    return pa.concat_tables([_top_tokens(cnt, CMS_TOP_K), cms_cells(cnt)],
                            promote_options="default")


def _heavy_hitters(sf_dir: str):
    """Count-Min heavy hitters: the exact top-``CMS_TOP_K`` tokens by
    corpus frequency, each with its Count-Min sketch estimate.  One
    docs pass and one exchange of exact (tok, c) counts; each token
    partition derives its own top-K and its d×w CMS counters from
    those counts (:func:`_heavy_hitter_partition`), so the driver reads
    ≤ partitions·(K + d·w) rows for any vocabulary size and merges them
    (top-K of the partition tops, per-cell SUM of the counters).
    Integer-exact throughout, so the DuckDB oracle bit-compares; the
    CMS ≥ exact overestimate law is gated in tests/test_sketches.py."""
    from ..functions.exchange import gather, hash_aggregate_refs
    from ..functions.sketches import CMS_TOP_K, cms_lookup
    from ..functions.text import token_freq_batch

    t = gather(hash_aggregate_refs(_docs(sf_dir, ["text"]), ["tok"],
                                   token_freq_batch, _heavy_hitter_partition))
    is_top = pc.is_valid(t["tok"])
    top = _top_tokens(t.filter(is_top), CMS_TOP_K)
    cells = (t.filter(pc.invert(is_top))
             .group_by(["row", "cell"]).aggregate([("c", "sum")]))
    cells = dict(zip(zip(cells["row"].to_pylist(),
                         cells["cell"].to_pylist()),
                     cells["c_sum"].to_pylist()))
    toks = top["tok"].to_pylist()
    return pa.table({
        "tok": pa.array(toks, pa.string()),
        "c_exact": top["c"].cast(pa.int64()),
        "c_cms": pa.array([cms_lookup(cells, x) for x in toks],
                          pa.int64())})


def _heavy_hitters_sql() -> str:
    from ..functions.sketches import CMS_D, CMS_TOP_K, CMS_W

    rows = ", ".join(str(i) for i in range(CMS_D))
    return rf"""
WITH toks AS (
  SELECT unnest(list_filter(string_split_regex(coalesce(text, ''),
                '\s+'), x -> x <> '')) AS tok
  FROM documents
), cnt AS (
  SELECT tok, count(*) AS c FROM toks GROUP BY 1
), topk AS (
  SELECT tok, c FROM cnt ORDER BY c DESC, tok LIMIT {CMS_TOP_K}
), cells AS (
  SELECT r.i AS row,
         CAST('0x' || substr(md5(r.i || ':' || tok), 1, 8) AS UBIGINT)
             % {CMS_W} AS cell,
         sum(c) AS v
  FROM cnt CROSS JOIN (SELECT unnest([{rows}]) AS i) r
  GROUP BY 1, 2
), tk_cells AS (
  SELECT t.tok, t.c, r.i AS row,
         CAST('0x' || substr(md5(r.i || ':' || t.tok), 1, 8) AS UBIGINT)
             % {CMS_W} AS cell
  FROM topk t CROSS JOIN (SELECT unnest([{rows}]) AS i) r
)
SELECT tc.tok,
       CAST(tc.c AS BIGINT) AS c_exact,
       CAST(min(ce.v) AS BIGINT) AS c_cms
FROM tk_cells tc
JOIN cells ce ON tc.row = ce.row AND tc.cell = ce.cell
GROUP BY 1, 2
"""


def _chunk_docs(sf_dir: str):
    """RAG-style overlapping character chunking: every document becomes
    ceil(max(len−W, 0)/S)+1 chunks of width ``CHUNK_W`` at stride
    ``CHUNK_S`` (empty text → one '' chunk, so the operator is
    count-predictable for downstream packing).  Stateless vectorized
    map per block — embarrassingly parallel, no exchange."""
    from ..functions.text import chunk_docs_batch

    return _map_docs(sf_dir, ["doc_id", "text"], chunk_docs_batch)


def _chunk_docs_sql() -> str:
    from ..functions.text import CHUNK_S, CHUNK_W

    # unnest-a-list-comprehension instead of a lateral generate_series
    # (DuckDB's table function rejects lateral column parameters;
    # same idiom as NOVEL_BIGRAMS_SQL)
    return f"""
WITH d AS (
  SELECT doc_id, coalesce(text, '') AS t,
         CAST(ceil(greatest(len(coalesce(text, '')) - {CHUNK_W}, 0)
                   / {CHUNK_S}.0) AS BIGINT) + 1 AS nc
  FROM documents
), e AS (
  SELECT doc_id, t, unnest([j for j in range(0, nc)]) AS i FROM d
)
SELECT doc_id,
       CAST(i AS BIGINT) AS chunk_id,
       substr(t, 1 + i * {CHUNK_S}, {CHUNK_W}) AS chunk
FROM e
"""


def registry() -> Registry:
    from .sparql_queries import REGISTRY as SPARQL_REGISTRY

    out = dict(SPARQL_REGISTRY)
    out.update({
        # KG / RDF operators
        "doc_triples": (doc_triples, DOC_TRIPLES_SQL),
        "triples_dedup": (_triples_dedup, TRIPLES_DEDUP_SQL),
        "sparql_describe": (_sparql_describe, SPARQL_DESCRIBE_SQL),
        "predicate_count": (_predicate_count, PREDICATE_COUNT_SQL),
        "subjects_distinct": (_subjects_distinct, SUBJECTS_DISTINCT_SQL),
        "triples_matching": (_triples_matching, TRIPLES_MATCHING_SQL),
        "resource_view": (_resource_view, RESOURCE_VIEW_SQL),
        "sort_spo_limit": (_sort_spo_limit, SORT_SPO_SQL),
        "indexed_pattern_scan": (_indexed_pattern_scan, INDEXED_SCAN_SQL),
        "rdfs_entailment": (_rdfs_entailment, RDFS_ENTAILMENT_SQL),
        "rdfs_entailment_full": (_rdfs_entailment_full,
                                 RDFS_ENTAILMENT_FULL_SQL),
        "turtle_roundtrip": (_turtle_roundtrip, TURTLE_ROUNDTRIP_SQL),
        "rdfxml_roundtrip": (_rdfxml_roundtrip, RDFXML_ROUNDTRIP_SQL),
        "jsonld_roundtrip": (_jsonld_roundtrip, JSONLD_ROUNDTRIP_SQL),
        "jsonld_included_roundtrip": (_jsonld_included_roundtrip,
                                      JSONLD_INCLUDED_ROUNDTRIP_SQL),
        "jsonld_compact_roundtrip": (_jsonld_compact_roundtrip,
                                     JSONLD_COMPACT_ROUNDTRIP_SQL),
        "c14n_normalize": (_c14n_normalize, C14N_NORMALIZE_SQL),
        # SPARQL-ish relational operators
        "tpch_q1": (R.tpch_q1, R.TPCH_Q1_SQL),
        "events_hourly": (R.events_hourly, R.EVENTS_HOURLY_SQL),
        "customers_per_region": (R.customers_per_region, R.CUSTOMERS_PER_REGION_SQL),
        "orders_per_segment": (R.orders_per_segment, R.ORDERS_PER_SEGMENT_SQL),
        "customers_without_orders": (R.customers_without_orders,
                                     R.CUSTOMERS_WITHOUT_ORDERS_SQL),
        "large_parts_in_lineitem": (R.large_parts_in_lineitem, R.LARGE_PARTS_SQL),
        "top_orders_by_revenue": (R.top_orders_by_revenue, R.TOP_ORDERS_SQL),
        "nations_per_region_concat": (R.nations_per_region_concat,
                                      R.NATIONS_CONCAT_SQL),
        "customer_ancestors": (R.customer_ancestors, R.CUSTOMER_ANCESTORS_SQL),
        # temporal operators (session/as-of/rolling windows)
        "user_sessions": (R.user_sessions, R.USER_SESSIONS_SQL),
        "clicks_asof_view": (R.clicks_asof_view, R.CLICKS_ASOF_VIEW_SQL),
        "events_rolling_1h": (R.events_rolling_1h, R.EVENTS_ROLLING_1H_SQL),
        "events_props_k": (R.events_props_k, R.EVENTS_PROPS_K_SQL),
        "price_median_by_flag": (R.price_median_by_flag,
                                 R.PRICE_MEDIAN_SQL),
        # training-data ops
        "dedup_exact_docs": (_dedup_exact_docs, DEDUP_EXACT_SQL),
        "token_counts": (_token_counts, TOKEN_COUNTS_SQL),
        "quality_features": (_quality, QUALITY_SQL),
        "repetition_features": (_repetition, REPETITION_SQL),
        "winnow_fingerprints": (_winnow_fingerprints, WINNOW_SQL),
        "vocab_top_terms": (_vocab_top_terms, VOCAB_TOP_TERMS_SQL),
        "quality_filter": (_quality_filter, QUALITY_FILTER_SQL),
        "normalize_docs": (_normalize_docs, NORMALIZE_DOCS_SQL),
        "pii_redact": (_pii_redact, _pii_sql()),
        "novel_bigrams": (_novel_bigrams, NOVEL_BIGRAMS_SQL),
        "decontaminate_docs": (_decontaminate, _decontaminate_sql()),
        "pack_sequences": (_pack_sequences, PACK_SEQUENCES_SQL),
        "source_stats": (_source_stats, SOURCE_STATS_SQL),
        "segment_dedup": (_segment_dedup, SEGMENT_DEDUP_SQL),
        "dup_span_docs": (_dup_spans, _dup_spans_sql()),
        "tfidf_top_terms": (_tfidf_top_terms, _tfidf_sql()),
        "lm_score": (_lm_score, LM_SCORE_SQL),
        "chunk_docs": (_chunk_docs, _chunk_docs_sql()),
        "dsir_weights": (_dsir_weights, DSIR_WEIGHTS_SQL),
        "vocab_hll": (_vocab_hll, _vocab_hll_sql()),
        "heavy_hitters_cms": (_heavy_hitters, _heavy_hitters_sql()),
        "clean_corpus": (_clean_corpus, _clean_corpus_sql()),
        "pagerank_clicks": (_pagerank_clicks, _pagerank_sql()),
        "stratified_sample": (_stratified_sample, STRATIFIED_SAMPLE_SQL),
        "source_mixture": (_source_mixture, SOURCE_MIXTURE_SQL),
        "knn_cosine": (_knn, KNN_SQL),
        "knn_self_join": (_knn_self_join, KNN_SELF_JOIN_SQL),
        "gazetteer_mentions": (_gazetteer_mentions, GAZETTEER_SQL),
        "embedding_near_dup": (_embedding_near_dup, EMBEDDING_NEAR_DUP_SQL),
        "semdedup_docs": (_semdedup_docs, _semdedup_sql()),
        "nt_file_roundtrip": (_nt_file_roundtrip, DOC_TRIPLES_SQL),
        "entity_dedup": (_entity_dedup_exact, ENTITY_DEDUP_EXACT_SQL),
        "graph_literals": (_graph_literals, GRAPH_LITERALS_SQL),
        "graph_remove_matching": (_graph_remove_matching,
                                  GRAPH_REMOVE_MATCHING_SQL),
        "graph_names": (_graph_names, GRAPH_NAMES_SQL),
        "indexed_quad_scan": (_indexed_quad_scan, INDEXED_QUAD_SCAN_SQL),
        "entity_dedup_lsh": (_entity_dedup_lsh, None),
        "ngram_jaccard": (_ngram_jaccard, NGRAM_JACCARD_SQL),
        "ivf_knn": (_ivf_knn, None),
        "embedding_near_dup_lsh": (_embedding_near_dup_lsh, None),
        "media_features": (_media_features, MEDIA_FEATURES_SQL),
        "video_frame_sample": (_video_frame_sample,
                               VIDEO_FRAME_SAMPLE_SQL),
        "audio_features": (_audio_features, AUDIO_FEATURES_SQL),
        "url_dedup": (_url_dedup, URL_DEDUP_SQL),
        # rows-only
        "kg_pipeline": (_kg_pipeline, None),
        "extract_text": (_extract_text, None),
        "lang_id": (_lang_id, LANG_ID_SQL),
        "simhash_fingerprint": (_simhash, None),
        "simhash_docs": (_simhash_docs, SIMHASH_DOCS_SQL),
        "rdf_entailment": (_rdf_entailment, _rdf_entailment_sql()),
        "c14n_digests": (_c14n_digests, None),
        "near_dup_clusters": (_near_dup_clusters, NEAR_DUP_CLUSTERS_SQL),
        "minhash_bands": (_minhash_bands, MINHASH_BANDS_SQL),
        "entity_links": (_entity_links, None),
        "entity_links_docs": (_entity_links_docs, ENTITY_LINKS_DOCS_SQL),
        "mention_triples": (_mention_triples, None),
        "mention_triples_docs": (_mention_triples_docs,
                                 MENTION_TRIPLES_DOCS_SQL),
    })
    return out
