"""Turtle 1.2 parser + serializer (reference semantics, from scratch).

Covers the reference grammar's core (``turtle/src/parser/turtle.rs:32``,
shared state machine ``turtle/src/parser/_common/_tx_source.rs``):
directives (``@prefix``/``PREFIX``, ``@base``/``BASE``, ``VERSION``),
prefixed names with PN_LOCAL escapes, IRI resolution against the base
(RFC 3986 via ``iri.py``), literal sugar (short/long strings in both
quote styles, numeric INTEGER/DECIMAL/DOUBLE, booleans), language tags
with base direction, ``a``, predicate-/object-lists, anonymous and
property-list blank nodes ``[ ]``, collections ``( )`` (rdf:first/rest/
nil), and RDF 1.2 triple terms ``<<( s p o )>>``.

Bnode-label policy mirrors the parser-level freshening
(``turtle/src/parser/_common/_inner.rs:23-47``): source labels get a
caller-supplied deterministic suffix unless ``preserve_bn_labels`` —
the suffix is ``h(url‖extractor)`` in the pipeline, not a UUID
(SURVEY §2.1 "fresh-bnode-label policy").

The serializer is the reference's pretty Turtle shape
(``turtle/src/serializer/_pretty.rs``): prefix abbreviation when the
suffix is a valid PN_LOCAL, subject grouping with ``;`` / ``,``,
number/boolean sugar per the reference regexes
(``turtle/src/serializer/_common.rs:145-152``).

Ray mapping: parsing is a stateless per-document ``map_batches`` (whole
document per row — prefixes/base are doc-scoped); serialization is a
per-partition formatter after ``sort('s')`` so subject grouping is local
(SURVEY §2.2).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .iri import BaseIri, is_absolute_iri
from .ntriples import parse_term_text, unescape_string
from .terms import (
    KIND_BNODE,
    KIND_IRI,
    KIND_LITERAL,
    RDF,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    Term,
    bnode,
    format_term,
    iri,
    langlit,
    literal,
    triple_term,
)

RDF_FIRST = RDF + "first"
RDF_REST = RDF + "rest"
RDF_NIL = RDF + "nil"
RDF_REIFIES = RDF + "reifies"


class TurtleParseError(ValueError):
    def __init__(self, msg: str, pos: int, text: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{msg} at {line}:{col}")
        self.line = line
        self.col = col


_WS_COMMENT = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)+")
_IRIREF = re.compile(
    r'<((?:[^\x00-\x20<>"{}|^`\\]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*)>')
_PN_CHARS_BASE = "A-Za-z\u00C0-\u00D6\u00D8-\u00F6\u00F8-\u02FF\u0370-\u037D\u037F-\u1FFF\u200C-\u200D\u2070-\u218F\u2C00-\u2FEF\u3001-\uD7FF\uF900-\uFDCF\uFDF0-\uFFFD"
_PN_CHARS_U = _PN_CHARS_BASE + "_"
_PN_CHARS = _PN_CHARS_U + "0-9\u00B7\u0300-\u036F\u203F-\u2040-"
_PNAME_NS = re.compile(
    rf"([{_PN_CHARS_BASE}](?:[{_PN_CHARS}.]*[{_PN_CHARS}])?)?:")
# PN_LOCAL: allows leading digit/':'/'%xx'/escape, inner dots
_PLX = r"(?:%[0-9A-Fa-f]{2}|\\[_~.\-!$&'()*+,;=/?#@%])"
_PN_LOCAL = re.compile(
    rf"(?:[{_PN_CHARS_U}:0-9]|{_PLX})(?:(?:[{_PN_CHARS}:.]|{_PLX})*(?:[{_PN_CHARS}:]|{_PLX}))?")
_BNODE_LABEL = re.compile(
    rf"_:([{_PN_CHARS_U}0-9](?:[{_PN_CHARS}.]*[{_PN_CHARS}])?)")
_LANG = re.compile(r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)(--(?:ltr|rtl))?")
_NUMBER = re.compile(
    r"[+-]?(?:\d+\.\d*(?:[eE][+-]?\d+)|\.?\d+(?:[eE][+-]?\d+)|\d*\.\d+|\d+)")
_ANON = re.compile(r"\[[ \t\r\n]*\]")
_STRING_START = {'"': re.compile(r'"((?:[^"\\\n\r]|\\.)*)"'),
                 "'": re.compile(r"'((?:[^'\\\n\r]|\\.)*)'")}
_LONG_STRING = {'"': re.compile(r'"""((?:[^"\\]|\\.|"(?!""))*)"""', re.S),
                "'": re.compile(r"'''((?:[^'\\]|\\.|'(?!''))*)'''", re.S)}
_PN_LOCAL_UNESCAPE = re.compile(r"\\([_~.\-!$&'()*+,;=/?#@%])")
_VERSION_DIRECTIVE = re.compile(r'VERSION[ \t]+("[^"]*"|\'[^\']*\')')
_A_KEYWORD = re.compile(rf"a(?![{_PN_CHARS}:])")
_BOOL_KEYWORD = re.compile(rf"(?:true|false)(?![{_PN_CHARS}:])")


class TurtleParser:
    """Recursive-descent Turtle 1.2 parser for one document."""

    def __init__(self, text: str, base: Optional[str] = None,
                 bnode_suffix: str = "", strict: bool = True):
        self.text = text
        self.pos = 0
        self.base: Optional[BaseIri] = BaseIri(base) if base else None
        self.prefixes: Dict[str, str] = {}
        self.bnode_suffix = bnode_suffix
        self.strict = strict
        self.triples: List[Tuple[Term, Term, Term]] = []
        self._anon = 0
        # fresh-anon labels must never collide with the document's own
        # explicit labels (a reparse of "[] … . _:ttl_anon1 … ." would
        # otherwise conflate the two nodes)
        self._anon_prefix = "ttl_anon"
        while f"_:{self._anon_prefix}" in text:
            self._anon_prefix += "x"
        self._reified_stmt = False  # last parsed term was << s p o >>

    def emit(self, s: Term, p: Term, o: Term):
        self.triples.append((s, p, o))

    # -- low-level ---------------------------------------------------------
    def err(self, msg: str):
        raise TurtleParseError(msg, self.pos, self.text)

    def skip_ws(self):
        m = _WS_COMMENT.match(self.text, self.pos)
        if m:
            self.pos = m.end()

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def accept(self, tok: str) -> bool:
        if self.text.startswith(tok, self.pos):
            self.pos += len(tok)
            return True
        return False

    def expect(self, tok: str):
        if not self.accept(tok):
            self.err(f"expected {tok!r}")

    def accept_keyword(self, kw: str) -> bool:
        """Case-insensitive SPARQL-style keyword followed by a boundary."""
        end = self.pos + len(kw)
        if self.text[self.pos:end].upper() == kw:
            nxt = self.text[end:end + 1]
            if not nxt or not (nxt.isalnum() or nxt in "_:"):
                self.pos = end
                return True
        return False

    # -- terms -------------------------------------------------------------
    def resolve(self, ref: str) -> str:
        if self.base is not None:
            return self.base.resolve(ref)
        if self.strict and not is_absolute_iri(ref):
            self.err(f"relative IRI {ref!r} with no base")
        return ref

    def parse_iriref(self) -> Optional[str]:
        m = _IRIREF.match(self.text, self.pos)
        if not m:
            return None
        self.pos = m.end()
        raw = m.group(1)
        if "\\" in raw:
            raw = unescape_string(raw)
        return self.resolve(raw)

    def parse_prefixed_name(self) -> Optional[str]:
        m = _PNAME_NS.match(self.text, self.pos)
        if not m:
            return None
        ns = m.group(1) or ""
        end = m.end()
        lm = _PN_LOCAL.match(self.text, end)
        local = ""
        if lm:
            local = lm.group(0)
            end = lm.end()
        if ns not in self.prefixes:
            return None  # could be a keyword like 'a' — caller decides
        self.pos = end
        if "\\" in local:
            local = _PN_LOCAL_UNESCAPE.sub(r"\1", local)
        return self.prefixes[ns] + local

    def fresh_bnode(self) -> Term:
        self._anon += 1
        return bnode(f"{self._anon_prefix}{self._anon}{self.bnode_suffix}")

    def parse_literal(self) -> Optional[Term]:
        q = self.peek()
        if q not in ("'", '"'):
            return None
        if self.text.startswith(q * 3, self.pos):
            m = _LONG_STRING[q].match(self.text, self.pos)
            if not m:
                self.err("unterminated long string")
        else:
            m = _STRING_START[q].match(self.text, self.pos)
            if not m:
                self.err("unterminated string")
        self.pos = m.end()
        lex = unescape_string(m.group(1))
        lm = _LANG.match(self.text, self.pos)
        if lm:
            self.pos = lm.end()
            direction = {None: 0, "--ltr": 1, "--rtl": 2}[lm.group(2)]
            return langlit(lex, lm.group(1), direction)
        if self.accept("^^"):
            self.skip_ws()
            dt = self.parse_iriref()
            if dt is None:
                dt = self.parse_prefixed_name()
            if dt is None:
                self.err("expected datatype IRI")
            return literal(lex, dt)
        return literal(lex, XSD_STRING)

    def parse_term(self, *, as_subject: bool = False,
                   as_predicate: bool = False) -> Term:
        self.skip_ws()
        c = self.peek()
        if not c:
            self.err("unexpected end of input")
        if c == "<":
            if self.text.startswith("<<(", self.pos):
                if as_subject or as_predicate:
                    self.err("triple term only allowed as object")
                self.pos += 3
                s = self.parse_term()
                p = self.parse_term(as_predicate=True)
                o = self.parse_term()
                self.skip_ws()
                self.expect(")>>")
                return triple_term(s, p, o)
            if self.text.startswith("<<", self.pos):
                # RDF 1.2 reified triple << s p o (~ reifier)? >> —
                # expands to `reifier rdf:reifies <<( s p o )>>` and
                # evaluates to the reifier
                # (rdf12-turtle reifiedTriple; reference
                # turtle/src/parser/turtle/test.rs:624-660)
                if as_predicate:
                    self.err("reified triple not allowed as predicate")
                self.pos += 2
                s = self.parse_term(as_subject=True)
                p = self.parse_term(as_predicate=True)
                o = self.parse_term()
                self.skip_ws()
                if self.accept("~"):
                    self.skip_ws()
                    r = self.parse_term(as_subject=True)
                    self.skip_ws()
                else:
                    r = self.fresh_bnode()
                self.expect(">>")
                self.emit(r, iri(RDF_REIFIES), triple_term(s, p, o))
                self._reified_stmt = True
                return r
            t = self.parse_iriref()
            if t is None:
                self.err("bad IRI")
            return iri(t)
        if as_predicate:
            if c == "a" and _A_KEYWORD.match(self.text, self.pos):
                self.pos += 1
                return iri(RDF_TYPE)
            name = self.parse_prefixed_name()
            if name is not None:
                return iri(name)
            self.err("expected predicate")
        if c == "_":
            m = _BNODE_LABEL.match(self.text, self.pos)
            if not m:
                self.err("bad blank node label")
            self.pos = m.end()
            return bnode(m.group(1) + self.bnode_suffix)
        if c == "[":
            m = _ANON.match(self.text, self.pos)
            if m:
                self.pos = m.end()
                return self.fresh_bnode()
            # blank node property list
            self.expect("[")
            node = self.fresh_bnode()
            self.parse_predicate_object_list(node)
            self.skip_ws()
            self.expect("]")
            return node
        if c == "(":
            self.expect("(")
            items = []
            while True:
                self.skip_ws()
                if self.accept(")"):
                    break
                if self.eof():
                    self.err("unterminated collection")
                items.append(self.parse_term())
            return self.emit_collection(items)
        lit = self.parse_literal()
        if lit is not None:
            return lit
        m = _NUMBER.match(self.text, self.pos)
        if m:
            txt = m.group(0)
            self.pos = m.end()
            if "e" in txt or "E" in txt:
                return literal(txt, XSD_DOUBLE)
            if "." in txt:
                return literal(txt, XSD_DECIMAL)
            return literal(txt, XSD_INTEGER)
        m = _BOOL_KEYWORD.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return literal(m.group(0), XSD_BOOLEAN)
        name = self.parse_prefixed_name()
        if name is not None:
            return iri(name)
        self.err(f"unexpected character {c!r}")

    def emit_collection(self, items: List[Term]) -> Term:
        if not items:
            return iri(RDF_NIL)
        head = self.fresh_bnode()
        node = head
        for i, item in enumerate(items):
            self.emit(node, iri(RDF_FIRST), item)
            nxt = self.fresh_bnode() if i + 1 < len(items) else iri(RDF_NIL)
            self.emit(node, iri(RDF_REST), nxt)
            node = nxt
        return head

    # -- statements --------------------------------------------------------
    def parse_predicate_object_list(self, subject: Term):
        while True:
            p = self.parse_term(as_predicate=True)
            while True:
                o = self.parse_term()
                self.emit(subject, p, o)
                self.skip_ws()
                self._parse_annotation(subject, p, o)
                if not self.accept(","):
                    break
            if not self.accept(";"):
                return
            # permit repeated / trailing ';' before '.' / ']'
            self.skip_ws()
            while self.accept(";"):
                self.skip_ws()
            if self.peek() in ("]", ".", ""):
                return

    def _parse_annotation(self, s: Term, p: Term, o: Term):
        """``annotation ::= (reifier | annotationBlock)*`` after an
        object (rdf12-turtle; reference _tx_source.rs:516-534): ``~ r``
        names a reifier for the asserted triple, ``{| … |}`` attaches a
        predicate-object list to the (current or fresh) reifier."""
        reifier = None
        while True:
            if self.peek() == "~":
                self.pos += 1
                self.skip_ws()
                nxt = self.peek()
                if nxt in (",", ";", ".", "]", "|", "{", "~", ""):
                    reifier = self.fresh_bnode()  # bare '~'
                else:
                    reifier = self.parse_term(as_subject=True)
                self.emit(reifier, iri(RDF_REIFIES), triple_term(s, p, o))
                self.skip_ws()
            elif self.text.startswith("{|", self.pos):
                self.pos += 2
                if reifier is None:
                    reifier = self.fresh_bnode()
                    self.emit(reifier, iri(RDF_REIFIES),
                              triple_term(s, p, o))
                self.skip_ws()
                self.parse_predicate_object_list(reifier)
                self.skip_ws()
                self.expect("|}")
                self.skip_ws()
                # a later block gets its own fresh reifier unless a new
                # '~' names one
                reifier = None
            else:
                return

    def parse_directive(self) -> bool:
        if self.accept("@prefix"):
            sparql = False
        elif self.accept_keyword("PREFIX"):
            sparql = True
        else:
            if self.accept("@base"):
                sparql = False
            elif self.accept_keyword("BASE"):
                sparql = True
            else:
                m = _VERSION_DIRECTIVE.match(self.text, self.pos)
                if m:
                    self.pos = m.end()
                    return True
                return False
            self.skip_ws()
            b = self.parse_iriref()
            if b is None:
                self.err("expected IRI after @base")
            self.base = BaseIri(b)
            self.skip_ws()
            if not sparql:
                self.expect(".")
            return True
        self.skip_ws()
        m = _PNAME_NS.match(self.text, self.pos)
        if not m:
            self.err("expected prefix name")
        self.pos = m.end()
        ns = m.group(1) or ""
        self.skip_ws()
        piri = self.parse_iriref()
        if piri is None:
            self.err("expected IRI after prefix")
        self.prefixes[ns] = piri
        self.skip_ws()
        if not sparql:
            self.expect(".")
        return True

    def parse(self) -> List[Tuple[Term, Term, Term]]:
        while True:
            self.skip_ws()
            if self.eof():
                break
            if self.parse_directive():
                continue
            self._reified_stmt = False
            s = self.parse_term(as_subject=True)
            self.skip_ws()
            # a bare property-list bnode or reified triple may be a
            # statement on its own (`<< :s :p :o ~ :r >> .`)
            if self.peek() == "." and (s[0] == KIND_BNODE
                                       or self._reified_stmt):
                self.expect(".")
                continue
            self.parse_predicate_object_list(s)
            self.skip_ws()
            self.expect(".")
        return self.triples


def parse_turtle(text: str, base: Optional[str] = None,
                 bnode_suffix: str = "", strict: bool = True
                 ) -> List[Tuple[Term, Term, Term]]:
    return TurtleParser(text, base=base, bnode_suffix=bnode_suffix,
                        strict=strict).parse()


class TriGParser(TurtleParser):
    """TriG = Turtle + graph blocks (``turtle/src/parser/trig.rs:33``):
    ``GRAPH <g> { … }``, bare ``<g> { … }`` / ``_:g { … }``, and default-
    graph statements (wrapped in ``{ }`` or bare)."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.graph: Optional[Term] = None
        self.quads: List[Tuple[Term, Term, Term, Optional[Term]]] = []

    def emit(self, s: Term, p: Term, o: Term):
        self.quads.append((s, p, o, self.graph))

    def parse_block(self):
        self.expect("{")
        while True:
            self.skip_ws()
            if self.accept("}"):
                return
            if self.eof():
                self.err("unterminated graph block")
            s = self.parse_term(as_subject=True)
            self.parse_predicate_object_list(s)
            self.skip_ws()
            if not self.accept("."):
                self.skip_ws()  # final statement may omit '.'

    def parse(self):  # type: ignore[override]
        while True:
            self.skip_ws()
            if self.eof():
                break
            if self.parse_directive():
                continue
            if self.accept_keyword("GRAPH"):
                self.skip_ws()
                self.graph = self.parse_term(as_subject=True)
                self.skip_ws()
                self.parse_block()
                self.graph = None
                continue
            if self.peek() == "{":
                self.parse_block()
                continue
            self._reified_stmt = False
            s = self.parse_term(as_subject=True)
            self.skip_ws()
            if self.peek() == "{":
                # bare graph-name block
                self.graph = s
                self.parse_block()
                self.graph = None
                continue
            if self.peek() == "." and (s[0] == KIND_BNODE
                                       or self._reified_stmt):
                self.expect(".")
                continue
            self.parse_predicate_object_list(s)
            self.skip_ws()
            self.expect(".")
        return self.quads


def parse_trig(text: str, base: Optional[str] = None,
               bnode_suffix: str = "", strict: bool = True
               ) -> List[Tuple[Term, Term, Term, Optional[Term]]]:
    return TriGParser(text, base=base, bnode_suffix=bnode_suffix,
                      strict=strict).parse()


def serialize_trig(quads, prefixes: Optional[Dict[str, str]] = None,
                   emit_prefixes: bool = True, indent: str = "  ") -> str:
    """Quads → TriG: default-graph statements bare, named graphs in
    ``GRAPH g { … }`` blocks (``turtle/src/serializer/trig.rs:36``).
    Sort upstream by (g, s) for deterministic grouping."""
    prefixes = dict(prefixes if prefixes is not None else DEFAULT_PREFIXES)
    by_graph: List[Tuple[Optional[Term], List]] = []
    for q in quads:
        s, p, o = q[0], q[1], q[2]
        g = q[3] if len(q) > 3 else None
        if not by_graph or _gkey(by_graph[-1][0]) != _gkey(g):
            by_graph.append((g, []))
        by_graph[-1][1].append((s, p, o))
    out = []
    if emit_prefixes:
        for pfx, ns in prefixes.items():
            out.append(f"@prefix {pfx}: <{ns}> .")
        if prefixes:
            out.append("")
    for g, triples in by_graph:
        body = serialize_turtle(triples, prefixes=prefixes,
                                emit_prefixes=False, indent=indent)
        if g is None:
            out.append(body.rstrip("\n"))
        else:
            gt = format_term_turtle(g, prefixes)
            inner = "\n".join(indent + ln if ln else ln
                              for ln in body.rstrip("\n").split("\n"))
            out.append(f"GRAPH {gt} {{\n{inner}\n}}")
    return "\n".join(out) + ("\n" if out else "")


def _gkey(g: Optional[Term]) -> str:
    return "" if g is None else format_term(g)


# ---------------------------------------------------------------------------
# serializer
# ---------------------------------------------------------------------------

#: number/boolean sugar patterns (turtle/src/serializer/_common.rs:145-152)
_INTEGER_RE = re.compile(r"^[+-]?\d+$")
_DECIMAL_RE = re.compile(r"^[+-]?\d*\.\d+$")
_DOUBLE_RE = re.compile(
    r"^[+-]?(\d+\.\d*|\.?\d+)[eE][+-]?\d+$")
_BOOLEAN_RE = re.compile(r"^(true|false)$")
_PN_LOCAL_FULL = re.compile(rf"^{_PN_LOCAL.pattern}$")

DEFAULT_PREFIXES = {
    "rdf": RDF,
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "schema": "https://schema.org/",
}


def _abbrev(iri_text: str, prefixes: Dict[str, str]) -> Optional[str]:
    for pfx, ns in prefixes.items():
        if iri_text.startswith(ns):
            local = iri_text[len(ns):]
            if local == "" or _PN_LOCAL_FULL.match(local):
                return f"{pfx}:{local}"
    return None


def format_term_turtle(t: Term, prefixes: Dict[str, str],
                       relativizer=None) -> str:
    kind, lex, dt, lang, _direction = t
    if kind == KIND_IRI:
        if lex == RDF_TYPE:
            return "a"
        ab = _abbrev(lex, prefixes)
        if ab is not None:
            return ab
        if relativizer is not None:
            rel = relativizer.relativize(lex)
            if rel is not None:
                return f"<{rel}>"
        return format_term(t)
    if kind == KIND_LITERAL and not lang:
        if dt == XSD_INTEGER and _INTEGER_RE.match(lex):
            return lex
        if dt == XSD_DECIMAL and _DECIMAL_RE.match(lex):
            return lex
        if dt == XSD_DOUBLE and _DOUBLE_RE.match(lex):
            return lex
        if dt == XSD_BOOLEAN and _BOOLEAN_RE.match(lex):
            return lex
        if dt and dt != XSD_STRING:
            ab = _abbrev(dt, prefixes)
            if ab:
                from .terms import escape_literal
                return f'"{escape_literal(lex)}"^^{ab}'
    if kind == 3:  # KIND_TRIPLE — compact inside the triple term too,
        # like the reference pretty engine (_pretty.rs triple-term arm)
        from .ntriples import _LineParser

        try:
            lp = _LineParser(lex)
            lp.pos = 3
            inner = []
            for _ in range(3):
                lp.skip_ws()
                inner.append(format_term_turtle(
                    lp.parse_term(), prefixes, relativizer))
            return "<<( " + " ".join(inner) + " )>>"
        except Exception:
            return format_term(t)
    return format_term(t)


_RDF_FIRST_NT = f"<{RDF_FIRST}>"
_RDF_REST_NT = f"<{RDF_REST}>"
_RDF_NIL_NT = f"<{RDF_NIL}>"


def _tt_bnode_labels(t: Term, out: set) -> None:
    """Collect bnode keys nested inside RDF 1.2 triple terms — those
    labels can't be rewritten, so they disqualify inlining."""
    if t[0] == KIND_BNODE:
        out.add(format_term(t))
    elif t[0] == 3:  # KIND_TRIPLE
        from .ntriples import _LineParser

        lp = _LineParser(t[1])
        lp.pos = 3
        for _ in range(3):
            lp.skip_ws()
            _tt_bnode_labels(lp.parse_term(), out)


def serialize_turtle(triples, prefixes: Optional[Dict[str, str]] = None,
                     emit_prefixes: bool = True, indent: str = "  ",
                     base: Optional[str] = None,
                     inline: bool = True) -> str:
    """Triples → pretty Turtle: subject grouping with ';'/',', prefix
    abbreviation, sugar literals; with ``inline`` (default, mirroring
    the reference pretty engine ``turtle/src/serializer/_pretty.rs``)
    single-reference bnodes render as anonymous ``[ … ]`` property
    lists, well-formed rdf:first/rest chains as ``( … )`` collections,
    unreferenced bnode subjects as ``[]``, and cycles fall back to
    labels.  Input order defines subject order (sort upstream for
    deterministic output).  With ``base``, IRIs are relativized against
    it (@base emitted first; reference iri/src/relativize.rs)."""
    prefixes = dict(prefixes if prefixes is not None else DEFAULT_PREFIXES)
    relativizer = None
    if base is not None:
        from .iri import Relativizer

        relativizer = Relativizer(base)
    out = []
    if emit_prefixes:
        if base is not None:
            out.append(f"@base <{base}> .")
        for pfx, ns in prefixes.items():
            out.append(f"@prefix {pfx}: <{ns}> .")
        if prefixes or base is not None:
            out.append("")

    def fmt(t: Term) -> str:
        return format_term_turtle(t, prefixes, relativizer)

    triples = list(triples)
    if not inline:
        # plain path: group consecutive same-subject / same-predicate
        groups: List[Tuple[str, List[Tuple[str, List[str]]]]] = []
        for (s, p, o) in triples:
            st, pt, ot = fmt(s), fmt(p), fmt(o)
            if not groups or groups[-1][0] != st:
                groups.append((st, []))
            plist = groups[-1][1]
            if not plist or plist[-1][0] != pt:
                plist.append((pt, []))
            plist[-1][1].append(ot)
        for st, plist in groups:
            lines = [st]
            for i, (pt, objs) in enumerate(plist):
                sep = ";" if i + 1 < len(plist) else "."
                lines.append(f"{indent}{pt} {', '.join(objs)} {sep}")
            out.append("\n".join(lines))
        return "\n".join(out) + ("\n" if out else "")

    # --- pretty-inline path (reference _pretty.rs semantics) ---------
    key = format_term
    subj_map: Dict[str, List[Tuple[Term, Term]]] = {}
    subj_term: Dict[str, Term] = {}
    subj_order: List[str] = []
    obj_refs: Dict[str, int] = {}
    no_inline: set = set()
    for (s, p, o) in triples:
        sk = key(s)
        if sk not in subj_map:
            subj_map[sk] = []
            subj_term[sk] = s
            subj_order.append(sk)
        subj_map[sk].append((p, o))
        if o[0] == KIND_BNODE:
            obj_refs[key(o)] = obj_refs.get(key(o), 0) + 1
        for t in (s, o):
            if t[0] == 3:
                _tt_bnode_labels(t, no_inline)

    def inlinable(k: str) -> bool:
        return obj_refs.get(k, 0) == 1 and k not in no_inline

    def list_chain(head: str):
        """[(elem terms)], {consumed node keys} for a well-formed
        rdf:first/rest chain from ``head`` (interior nodes: exactly one
        first + one rest, referenced once), else None."""
        elems: List[Term] = []
        nodes: set = set()
        cur = head
        while True:
            if cur in nodes:
                return None                       # cycle
            props = subj_map.get(cur)
            if props is None or len(props) != 2:
                return None
            firsts = [o for (p, o) in props if key(p) == _RDF_FIRST_NT]
            rests = [o for (p, o) in props if key(p) == _RDF_REST_NT]
            if len(firsts) != 1 or len(rests) != 1:
                return None
            nodes.add(cur)
            elems.append(firsts[0])
            nxt = rests[0]
            nk = key(nxt)
            if nk == _RDF_NIL_NT:
                return elems, nodes
            if nxt[0] != KIND_BNODE or not inlinable(nk) \
                    or nk not in subj_map:
                return None
            cur = nk

    rendered: set = set()

    def fmt_obj(o: Term, visiting: frozenset) -> str:
        k = key(o)
        if o[0] != KIND_BNODE or not inlinable(k) or k in visiting \
                or k in rendered:
            return fmt(o)
        chain = list_chain(k)
        if chain is not None:
            elems, nodes = chain
            rendered.update(nodes)
            inner = visiting | nodes
            return "(" + "".join(
                " " + fmt_obj(e, inner) for e in elems) + " )" \
                if elems else "()"
        props = subj_map.get(k)
        if props is None:
            rendered.add(k)
            return "[]"
        rendered.add(k)
        return "[ " + render_props(props, visiting | {k}) + " ]"

    def render_props(props: List[Tuple[Term, Term]],
                     visiting: frozenset) -> str:
        by_pred: List[Tuple[str, List[str]]] = []
        for (p, o) in props:
            pt = fmt(p)
            ot = fmt_obj(o, visiting)
            if not by_pred or by_pred[-1][0] != pt:
                by_pred.append((pt, []))
            by_pred[-1][1].append(ot)
        return " ; ".join(f"{pt} {', '.join(objs)}"
                          for pt, objs in by_pred)

    def emit_subject(sk: str) -> None:
        s = subj_term[sk]
        props = subj_map[sk]
        rendered.add(sk)
        visiting = frozenset([sk])
        st = None
        if s[0] == KIND_BNODE and obj_refs.get(sk, 0) == 0 \
                and sk not in no_inline:
            # subject-list sugar: render the chain as the subject and
            # keep any EXTRA predicates as the statement body
            firsts = [(p, o) for (p, o) in props
                      if key(p) == _RDF_FIRST_NT]
            rests = [(p, o) for (p, o) in props if key(p) == _RDF_REST_NT]
            extra = [(p, o) for (p, o) in props
                     if key(p) not in (_RDF_FIRST_NT, _RDF_REST_NT)]
            if len(firsts) == 1 and len(rests) == 1 and extra:
                saved = dict(subj_map)
                subj_map[sk] = firsts + rests
                chain = list_chain(sk)
                subj_map[sk] = saved[sk]
                if chain is not None:
                    elems, nodes = chain
                    rendered.update(nodes)
                    inner = visiting | nodes
                    st = "(" + "".join(
                        " " + fmt_obj(e, inner) for e in elems) + " )"
                    props = extra
            if st is None:
                st = "[]"
        if st is None:
            st = fmt(s)
        lines = [st]
        by_pred: List[Tuple[str, List[str]]] = []
        for (p, o) in props:
            pt = fmt(p)
            ot = fmt_obj(o, visiting)
            if not by_pred or by_pred[-1][0] != pt:
                by_pred.append((pt, []))
            by_pred[-1][1].append(ot)
        for i, (pt, objs) in enumerate(by_pred):
            sep = ";" if i + 1 < len(by_pred) else "."
            lines.append(f"{indent}{pt} {', '.join(objs)} {sep}")
        out.append("\n".join(lines))

    for sk in subj_order:
        if not (subj_term[sk][0] == KIND_BNODE and inlinable(sk)):
            emit_subject(sk)
    # leftovers: inline-candidates never consumed (cycle components)
    for sk in subj_order:
        if sk not in rendered:
            emit_subject(sk)
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# batch adapters (map_batches bodies)
# ---------------------------------------------------------------------------

def format_turtle_batch(batch, prefixes: Optional[Dict[str, str]] = None,
                        emit_prefixes: bool = False):
    """NT-text triple rows → one Turtle chunk per batch (use after
    ``sort('s')`` so subject grouping is partition-local)."""
    import pyarrow as pa

    triples = [(parse_term_text(s), parse_term_text(p), parse_term_text(o))
               for s, p, o in zip(batch["s"].to_pylist(),
                                  batch["p"].to_pylist(),
                                  batch["o"].to_pylist())]
    text = serialize_turtle(triples, prefixes=prefixes,
                            emit_prefixes=emit_prefixes)
    return pa.table({"turtle": [text]})
