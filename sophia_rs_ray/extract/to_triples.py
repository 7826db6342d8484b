"""Microdata / RDFa-Lite → RDF triples (deterministic subset).

Follows the shape of the W3C microdata-to-RDF and RDFa-Lite mappings,
restricted to what occurs in web-page markup; the term-level semantics
(IRI resolution, literals, bnode scoping) are the reference's
(``api/src/term.rs``; bnode-scope warning ``api/src/graph.rs:438-447``).

Bnode labels continue the document-scoped ``b{n}`` sequence started by
the JSON-LD expander so that one page never reuses a label across
extractors before skolemization.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..iri import BaseIri, is_absolute_iri
from ..terms import RDF_TYPE, Term, bnode, iri, literal
from .html_page import _MicroItem, _RdfaNode


class _Alloc:
    def __init__(self, start: int = 0):
        self.n = start

    def fresh(self) -> Term:
        t = bnode(f"b{self.n}")
        self.n += 1
        return t


_RDF_TYPE = iri(RDF_TYPE)


def _resolve_or_none(base: Optional[BaseIri], ref: str) -> Optional[str]:
    if is_absolute_iri(ref):
        return ref
    if base is not None:
        try:
            return base.resolve(ref)
        except ValueError:
            return None
    return None


def _vocab_of(itemtype: str) -> str:
    """The first itemtype's vocabulary: up to its last '#' or '/'."""
    for sep in ("#", "/"):
        i = itemtype.rfind(sep)
        if i > 0:
            return itemtype[: i + 1]
    return itemtype + "/"


def microdata_to_triples(
    items: List[_MicroItem], base: Optional[BaseIri], alloc: _Alloc
) -> List[Tuple[Term, Term, Term]]:
    """Microdata items → triples. itemtype's base vocabulary (the IRI up to
    the last '/' or '#') resolves bare itemprop names."""
    out: List[Tuple[Term, Term, Term]] = []
    append = out.append

    def emit(item: _MicroItem) -> Term:
        if item.itemid:
            rid = _resolve_or_none(base, item.itemid)
            subj = iri(rid) if rid else alloc.fresh()
        else:
            subj = alloc.fresh()
        types = item.types
        vocab = _vocab_of(types[0]) if types else None
        for t in types:
            if is_absolute_iri(t):
                append((subj, _RDF_TYPE, iri(t)))
        for name, value in item.props:
            if is_absolute_iri(name):
                pred = iri(name)
            elif vocab:
                pred = iri(vocab + name)
            else:
                continue
            if type(value) is str:
                append((subj, pred, literal(value)))
            elif isinstance(value, _MicroItem):
                append((subj, pred, emit(value)))
            elif isinstance(value, tuple) and value and value[0] == "@iri":
                rid = _resolve_or_none(base, value[1])
                if rid:
                    append((subj, pred, iri(rid)))
            else:
                append((subj, pred, literal(str(value))))
        return subj

    for item in items:
        emit(item)
    return out


def rdfa_to_triples(
    roots: List[_RdfaNode], base: Optional[BaseIri], alloc: _Alloc
) -> List[Tuple[Term, Term, Term]]:
    out: List[Tuple[Term, Term, Term]] = []
    append = out.append

    def emit(node: _RdfaNode) -> Term:
        if node.about:
            rid = _resolve_or_none(base, node.about)
            subj = iri(rid) if rid else alloc.fresh()
        else:
            subj = alloc.fresh()
        vocab = node.vocab
        for t in node.types:
            ti = t if is_absolute_iri(t) else vocab + t if vocab else None
            if ti:
                append((subj, _RDF_TYPE, iri(ti)))
        for name, kind, value in node.props:
            pi = name if is_absolute_iri(name) \
                else vocab + name if vocab else None
            if not pi:
                continue
            pred = iri(pi)
            if kind == "literal":
                append((subj, pred, literal(str(value))))
            elif kind == "iri":
                rid = _resolve_or_none(base, str(value))
                if rid:
                    append((subj, pred, iri(rid)))
            elif kind == "node":
                append((subj, pred, emit(value)))
        return subj

    for root in roots:
        emit(root)
    return out
