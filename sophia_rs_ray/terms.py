"""RDF term model — the "row type" of the whole engine.

Re-implements the term semantics of the reference (pchampin/sophia_rs):

- term kinds and their total order: BlankNode < Iri < Literal < TripleTerm
  < Variable (reference: ``api/src/term.rs:47-60`` — explicit discriminants);
- term equality / ordering / implementation-independent hash
  (``api/src/term.rs:389-501``);
- canonical N-Triples formatting, incl. the exact escape table of
  ``turtle/src/serializer/_common.rs:75-119`` and the canonical-mode
  lang-tag lowercasing of ``turtle/src/serializer/nt.rs:190-196``;
- native-value conversions (``api/src/term/_native_literal.rs``).

A term is a plain 5-tuple ``(kind, lex, datatype, lang, dir)``:

- ``kind``: int8 code — 0=bnode, 1=iri, 2=literal, 3=triple-term, 4=variable
  (same codes as the reference's ``TermKind`` discriminants);
- ``lex``: IRI text | bnode label | literal lexical form | variable name |
  (for kind=3) the canonical N-Triples text ``<<( s p o )>>`` of the nested
  triple term — canonical NT text order equals recursive term order for a
  fixed kind, so columnar operators never need to re-parse it;
- ``datatype``: literal datatype IRI ('' for non-literals; implicitly
  rdf:langString / rdf:dirLangString when ``lang`` is set);
- ``lang``: BCP47 tag as written ('' if none);
- ``dir``: 0=none, 1=ltr, 2=rtl (RDF 1.2 base direction,
  reference ``api/src/term/base_direction.rs:10``).

The same 5 fields, flattened per position (``s_kind, s_lex, ...``), are the
Arrow schema of the distributed triple table (SURVEY.md §1.5).
"""

from __future__ import annotations

import re
from typing import Optional, Tuple

Term = Tuple[int, str, str, str, int]

KIND_BNODE = 0
KIND_IRI = 1
KIND_LITERAL = 2
KIND_TRIPLE = 3
KIND_VARIABLE = 4

DIR_NONE = 0
DIR_LTR = 1
DIR_RTL = 2

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DOUBLE = XSD + "double"
XSD_DECIMAL = XSD + "decimal"
XSD_FLOAT = XSD + "float"
XSD_BOOLEAN = XSD + "boolean"
XSD_DATETIME = XSD + "dateTime"
RDF_TYPE = RDF + "type"
RDF_LANGSTRING = RDF + "langString"
RDF_DIRLANGSTRING = RDF + "dirLangString"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def iri(text: str) -> Term:
    return (KIND_IRI, text, "", "", 0)


def bnode(label: str) -> Term:
    return (KIND_BNODE, label, "", "", 0)


def literal(lex: str, datatype: str = XSD_STRING) -> Term:
    return (KIND_LITERAL, lex, datatype, "", 0)


def langlit(lex: str, tag: str, direction: int = DIR_NONE) -> Term:
    """Language-tagged string; datatype is implied (rdf:langString /
    rdf:dirLangString — reference ``api/src/term/_simple.rs:64-75``)."""
    dt = RDF_DIRLANGSTRING if direction else RDF_LANGSTRING
    return (KIND_LITERAL, lex, dt, tag, direction)


def variable(name: str) -> Term:
    return (KIND_VARIABLE, name, "", "", 0)


def triple_term(s: Term, p: Term, o: Term) -> Term:
    """RDF 1.2 triple term, encoded as its canonical NT text (SURVEY §1.5)."""
    lex = "<<( %s %s %s )>>" % (format_term(s, canonical=True),
                                format_term(p, canonical=True),
                                format_term(o, canonical=True))
    return (KIND_TRIPLE, lex, "", "", 0)


# typed-literal helpers (reference api/src/term/_native_literal.rs)

def int_literal(v: int) -> Term:
    return (KIND_LITERAL, str(v), XSD_INTEGER, "", 0)


def double_literal(v: float) -> Term:
    # Rust's Display for f64 and Python's repr agree on shortest-roundtrip
    # for common values; xsd:double canonical form is not enforced by the
    # reference either (it stores the lexical form verbatim).
    return (KIND_LITERAL, repr(v) if v == v else "NaN", XSD_DOUBLE, "", 0)


def bool_literal(v: bool) -> Term:
    return (KIND_LITERAL, "true" if v else "false", XSD_BOOLEAN, "", 0)


# ---------------------------------------------------------------------------
# escaping (exact table of turtle/src/serializer/_common.rs:75-119)
# ---------------------------------------------------------------------------

def _build_escape_map(include_fffx: bool) -> dict:
    m = {}
    for cp in range(0x00, 0x20):
        m[cp] = "\\u%04X" % cp
    # short forms for 0x08..0x0D
    m[0x08] = "\\b"
    m[0x09] = "\\t"
    m[0x0A] = "\\n"
    m[0x0B] = "\\u000B"
    m[0x0C] = "\\f"
    m[0x0D] = "\\r"
    m[0x22] = '\\"'
    m[0x5C] = "\\\\"
    m[0x7F] = "\\u007F"
    if include_fffx:
        m[0xFFFE] = "\\uFFFE"
        m[0xFFFF] = "\\uFFFF"
    return m


#: N-Triples serializer escape table (escapes U+FFFE/U+FFFF like the
#: reference's ``quoted_string``).
_ESCAPE_NT = _build_escape_map(include_fffx=True)
#: RDFC-1.0 canonical-N-Quads escape table (``c14n/src/_cnq.rs`` does NOT
#: escape U+FFFE/U+FFFF).
_ESCAPE_CNQ = _build_escape_map(include_fffx=False)


def _escapes_in(table: dict):
    """``search`` of a regex matching any character ``table`` maps."""
    return re.compile(
        "[" + "".join(re.escape(chr(c)) for c in sorted(table)) + "]").search


#: most lexical forms need no escape: one C-level scan finds that out,
#: where ``str.translate`` with a str-valued table walks every character
#: through a dict lookup
_HAS_ESCAPE_NT = _escapes_in(_ESCAPE_NT)
_HAS_ESCAPE_CNQ = _escapes_in(_ESCAPE_CNQ)


def escape_literal(text: str, cnq: bool = False) -> str:
    """Escape a literal lexical form for N-Triples output."""
    if cnq:
        return text.translate(_ESCAPE_CNQ) if _HAS_ESCAPE_CNQ(text) else text
    return text.translate(_ESCAPE_NT) if _HAS_ESCAPE_NT(text) else text


# ---------------------------------------------------------------------------
# formatting (reference turtle/src/serializer/nt.rs:171-222, c14n/src/_cnq.rs)
# ---------------------------------------------------------------------------

_DIR_SUFFIX = {DIR_NONE: "", DIR_LTR: "--ltr", DIR_RTL: "--rtl"}


def format_term(t: Term, canonical: bool = True, cnq: bool = False) -> str:
    """Serialize one term to N-Triples text.

    ``canonical=True`` lowercases language tags (canonical N-Triples,
    reference ``nt.rs:190-196``); ``cnq=True`` uses the RDFC-1.0 escape
    table instead of the serializer's.
    """
    kind, lex, dt, lang, direction = t
    if kind == KIND_IRI:
        return "<" + lex + ">"
    if kind == KIND_BNODE:
        return "_:" + lex
    if kind == KIND_LITERAL:
        out = '"' + escape_literal(lex, cnq=cnq) + '"'
        if lang:
            tag = lang.lower() if canonical else lang
            out += "@" + tag + _DIR_SUFFIX[direction]
        elif dt and dt != XSD_STRING:
            out += "^^<" + dt + ">"
        return out
    if kind == KIND_TRIPLE:
        return lex  # already canonical NT text
    if kind == KIND_VARIABLE:
        return "?" + lex
    raise ValueError(f"unknown term kind {kind}")


# ---------------------------------------------------------------------------
# equality / order / hash (reference api/src/term.rs:389-501)
# ---------------------------------------------------------------------------

def term_eq(a: Term, b: Term) -> bool:
    """Term equality: kind-wise; literals equal iff same lexical form AND
    (same datatype | same tag+direction). Language tags compare
    case-insensitively (BCP47)."""
    if a[0] != b[0]:
        return False
    if a[0] != KIND_LITERAL:
        return a[1] == b[1]
    if a[1] != b[1]:
        return False
    if a[3] or b[3]:
        return a[3].lower() == b[3].lower() and a[4] == b[4]
    return a[2] == b[2]


def sort_key(t: Term) -> tuple:
    """Key reproducing Term's total order (``api/src/term.rs:413-471``):
    kind order BlankNode < Iri < Literal < TripleTerm < Variable;
    IRIs/bnodes/vars by string; literals: if BOTH tagged → (tag, dir, lex)
    with ``Some(dir) < None`` (ltr < rtl < untagged-direction), else by
    (datatype, lex) — datatype implicitly rdf:langString/dirLangString for
    tagged ones. Lexical (NOT numeric) order: ``"10" < "2"``. Triple terms
    recursively by S,P,O — which for our canonical-NT encoding is text
    order for a fixed kind.

    Note: both tagged flavours share the ``rdf:langString`` datatype bucket
    here so that the both-tagged rule (tag before datatype) wins; this only
    diverges from the reference for hypothetical datatype IRIs strictly
    between ``rdf:dirLangString`` and ``rdf:langString``, which don't occur.
    """
    kind, lex, dt, lang, direction = t
    if kind == KIND_LITERAL:
        if lang:
            # Some(dir) sorts before None: ltr=1, rtl=2, none→3
            return (kind, RDF_LANGSTRING, lang.lower(), direction or 3, lex)
        return (kind, dt, "", 0, lex)
    return (kind, "", "", 0, lex)


def encoded_sort_key(t: Term) -> bytes:
    """Single binary column preserving `sort_key` order — usable as a Ray
    `ds.sort` key (SURVEY §7.4 "order-preserving sort keys")."""
    kind, lex, dt, lang, direction = t
    if kind == KIND_LITERAL:
        head = (RDF_LANGSTRING.encode() + b"\x00" + lang.lower().encode()
                + b"\x00" + bytes([direction or 3])) if lang else (
            dt.encode() + b"\x00\x00\x00")
        return bytes([kind]) + head + b"\x00" + lex.encode()
    return bytes([kind]) + b"\x00\x00\x00\x00" + lex.encode()


def term_hash_text(t: Term) -> str:
    """Implementation-independent content string whose hash identifies the
    term (the distributed analogue of ``api/src/term.rs:473-501``: a
    kind-tagged concatenation of the constituent strings, with ``@``
    before language tags)."""
    kind, lex, dt, lang, direction = t
    if kind == KIND_LITERAL:
        if lang:
            return "2\x1f%s\x1f@%s\x1f%d" % (lex, lang.lower(), direction)
        return "2\x1f%s\x1f%s" % (lex, dt)
    return "%d\x1f%s" % (kind, lex)


def term_id(t: Term) -> bytes:
    """Content-defined 128-bit term id — the coordination-free analogue of
    the reference's sequential ``BasicTermIndex::ensure_index``
    (``inmem/src/index.rs:355-368``)."""
    import hashlib
    return hashlib.sha256(term_hash_text(t).encode()).digest()[:16]


# ---------------------------------------------------------------------------
# native conversions (reference api/src/term/_native_literal.rs)
# ---------------------------------------------------------------------------

def from_native(v) -> Term:
    if isinstance(v, bool):
        return bool_literal(v)
    if isinstance(v, int):
        return int_literal(v)
    if isinstance(v, float):
        return double_literal(v)
    if isinstance(v, str):
        return literal(v)
    raise TypeError(f"no RDF mapping for {type(v)}")


def try_to_float(t: Term) -> Optional[float]:
    """``try_from_term`` for f64 accepts xsd:double/float/decimal
    (``_native_literal.rs:255-259``) — and integers per the numeric tower."""
    if t[0] != KIND_LITERAL or t[3]:
        return None
    if t[2] in (XSD_DOUBLE, XSD_FLOAT, XSD_DECIMAL, XSD_INTEGER):
        try:
            return float(t[1])
        except ValueError:
            return None
    return None
