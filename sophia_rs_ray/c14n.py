"""RDFC-1.0 blank-node canonicalization (W3C rdf-canon) + isomorphism.

Re-implements the reference's semantics exactly (``c14n/src/rdfc10.rs``):

- first-degree hash: per-bnode N-Quads lines with self → ``_:a``, other
  bnodes → ``_:z``, sorted, hashed (``rdfc10.rs:546-585``);
- unique hashes issued canonical ids ``c14n0…`` in hash order
  (``rdfc10.rs:224-237``);
- n-degree disambiguation with Heap's-algorithm permutations and the
  ``depth_factor`` / ``permutation_limit`` poison guards
  (``rdfc10.rs:396-505``, guards at ``:403-407,439-445``);
- canonical N-Quads term writer (``c14n/src/_cnq.rs``): lowercased lang
  tags, no U+FFFE/U+FFFF escapes — our ``format_term(cnq=True)``;
- output quads sorted by component-wise codepoint order of their
  canonical N-Quads serialization (``rdfc10.rs:76-88``).

Strict mode rejects bnode predicates / variables / triple terms
(``rdfc10.rs:193-207``); generalized (Sophia-C14N, ``c14n/src/sophia.rs``)
accepts bnode predicates via the generalized related-hash
(``rdfc10.rs:354-394``).

Pure, single-component Python — the distributed decomposition lives in
``stages/c14n_stage.py`` and calls into this module per bnode component.
"""

from __future__ import annotations

import hashlib
from itertools import permutations as _permutations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .terms import (
    KIND_BNODE,
    KIND_IRI,
    KIND_LITERAL,
    KIND_TRIPLE,
    KIND_VARIABLE,
    Term,
    format_term,
)

#: A quad: (s, p, o, g) with g=None meaning the default graph.
Quad = Tuple[Term, Term, Term, Optional[Term]]

DEFAULT_DEPTH_FACTOR = 1.0
DEFAULT_PERMUTATION_LIMIT = 6


class C14nError(ValueError):
    pass


class ToxicGraphError(C14nError):
    """Graph requires more recursion/permutations than the configured
    guards allow (reference ``C14nError::ToxicGraph``)."""


class UnsupportedError(C14nError):
    pass


def nq_term(t: Term) -> str:
    """Canonical N-Quads text of one term (``c14n/src/_cnq.rs``)."""
    return format_term(t, canonical=True, cnq=True)


def nq_line(q: Quad) -> str:
    parts = [nq_term(q[0]), nq_term(q[1]), nq_term(q[2])]
    if q[3] is not None:
        parts.append(nq_term(q[3]))
    return " ".join(parts) + " .\n"


def _quad_sort_key(q: Quad) -> tuple:
    """Component-wise codepoint order (``rdfc10.rs:76-88`` compares terms
    by their NQ serialization; absent graph sorts first like
    ``Option::None``)."""
    g = q[3]
    return (nq_term(q[0]), nq_term(q[1]), nq_term(q[2]),
            0 if g is None else 1, "" if g is None else nq_term(g))


def _iter_spog(q: Quad):
    yield q[0], "s"
    yield q[1], "p"
    yield q[2], "o"
    if q[3] is not None:
        yield q[3], "g"


def _check_term(t: Term, position: str, strict: bool):
    k = t[0]
    if k == KIND_TRIPLE:
        raise UnsupportedError(
            "RDFC-1.0 does not support triple terms"
            if strict else
            "Sophia-C14N expects triple-terms encoded as singleton named graph")
    if strict and k == KIND_VARIABLE:
        raise UnsupportedError("RDFC-1.0 does not support variables")
    if strict and position == "p" and k == KIND_BNODE:
        raise UnsupportedError("RDFC-1.0 does not support blank node as predicate")


def hash_first_degree(bnid: str, quads: Sequence[Quad],
                      hash_name: str = "sha256") -> str:
    """<https://www.w3.org/TR/rdf-canon/#hash-1d-quads> — hex digest.
    (``rdfc10.rs:546-585``: self → ``_:a``, other bnode → ``_:z``.)"""
    lines = []
    for q in quads:
        buf = []
        for t, _pos in _iter_spog(q):
            if t[0] == KIND_BNODE:
                buf.append("_:a " if t[1] == bnid else "_:z ")
            else:
                buf.append(nq_term(t) + " ")
        lines.append("".join(buf) + ".\n")
    lines.sort()
    h = hashlib.new(hash_name)
    for line in lines:
        h.update(line.encode())
    return h.hexdigest()


class _Issuer:
    """<https://www.w3.org/TR/rdf-canon/#issue-identifier> with issue
    order kept (reference ``BnodeIssuer``, ``rdfc10.rs:508-541``)."""

    __slots__ = ("prefix", "issued", "issued_order", "start")

    def __init__(self, prefix: str, start: int = 0):
        self.prefix = prefix
        self.issued: Dict[str, str] = {}
        self.issued_order: List[str] = []
        self.start = start

    def issue(self, bnid: str) -> Tuple[str, bool]:
        got = self.issued.get(bnid)
        if got is not None:
            return got, False
        label = f"{self.prefix}{self.start + len(self.issued_order)}"
        self.issued[bnid] = label
        self.issued_order.append(bnid)
        return label, True

    def copy(self) -> "_Issuer":
        c = _Issuer(self.prefix, self.start)
        c.issued = dict(self.issued)
        c.issued_order = list(self.issued_order)
        return c


def _smaller_path(p1: str, p2: str) -> bool:
    """Shorter-then-lexicographic (``rdfc10.rs:595-603``)."""
    if len(p1) != len(p2):
        return len(p1) < len(p2)
    return p1 < p2


class C14nState:
    """Mutable state of one canonicalization run (``C14nState``,
    ``rdfc10.rs:292-310``). ``canonical_start`` pre-positions the global
    counter for the distributed decomposition (step-5-only replays)."""

    def __init__(self, quads: Sequence[Quad], *, strict: bool = True,
                 depth_factor: float = DEFAULT_DEPTH_FACTOR,
                 permutation_limit: int = DEFAULT_PERMUTATION_LIMIT,
                 hash_name: str = "sha256"):
        self.quads = list(quads)
        self.strict = strict
        self.depth_factor = depth_factor
        self.permutation_limit = permutation_limit
        self.hash_name = hash_name
        self.b2q: Dict[str, List[Quad]] = {}
        self.b2h: Dict[str, str] = {}
        self.h2b: Dict[str, List[str]] = {}
        self.canonical = _Issuer("c14n")
        #: step-5 issue bursts for the distributed path:
        #: (group_hash, seq_in_burst, bnid)
        self.bursts: List[Tuple[str, int, str]] = []

    # -- step 2: bnode → mentioning quads ---------------------------------
    def build_b2q(self):
        for q in self.quads:
            for t, pos in _iter_spog(q):
                _check_term(t, pos, self.strict)
                if t[0] == KIND_BNODE:
                    self.b2q.setdefault(t[1], []).append(q)

    # -- step 3: first-degree hashes --------------------------------------
    def build_first_degree(self):
        for bnid, quads in self.b2q.items():
            h = hash_first_degree(bnid, quads, self.hash_name)
            self.b2h[bnid] = h
            self.h2b.setdefault(h, []).append(bnid)

    # -- hash-related-blank-node ------------------------------------------
    def _hash_related(self, related: str, quad: Quad, issuer: _Issuer,
                      position: str) -> str:
        h = hashlib.new(self.hash_name)
        h.update(position.encode())
        p = quad[1]
        if self.strict:
            if position != "g":
                h.update(b"<" + p[1].encode() + b">")
        else:
            # generalized step 2 (rdfc10.rs:354-394)
            if position not in ("g", "p"):
                k = p[0]
                if k == KIND_IRI:
                    h.update(b"<" + p[1].encode() + b">")
                elif k == KIND_BNODE:
                    self._related_steps_3_4(p[1], issuer, h)
                elif k == KIND_LITERAL:
                    if p[3]:  # language-tagged
                        h.update(b'"' + p[1].encode() + b'"@' + p[3].encode())
                        h.update({0: b" ", 1: b"--ltr ", 2: b"--rtl "}[p[4]])
                    else:
                        h.update(b'"' + p[1].encode() + b'"^^<' + p[2].encode() + b">")
                elif k == KIND_VARIABLE:
                    h.update(b"?" + p[1].encode() + b" ")
        self._related_steps_3_4(related, issuer, h)
        return h.hexdigest()

    def _related_steps_3_4(self, related: str, issuer: _Issuer, h):
        canon = self.canonical.issued.get(related)
        if canon is not None:
            h.update(b"_:" + canon.encode())
        elif related in issuer.issued:
            h.update(b"_:" + issuer.issued[related].encode())
        else:
            h.update(self.b2h[related].encode())

    # -- hash-n-degree-quads (rdfc10.rs:396-505) --------------------------
    def hash_n_degree(self, identifier: str, issuer: _Issuer,
                      depth: int) -> Tuple[str, _Issuer]:
        if depth > self.depth_factor * len(self.b2q):
            raise ToxicGraphError(
                f"too many recursions (limit={self.depth_factor} per bnode)")
        hn: Dict[str, List[str]] = {}
        for quad in self.b2q[identifier]:
            for t, pos in _iter_spog(quad):
                if t[0] == KIND_BNODE and t[1] != identifier:
                    hch = self._hash_related(t[1], quad, issuer, pos)
                    v = hn.setdefault(hch, [])
                    if t[1] not in v:
                        v.append(t[1])
        data = hashlib.new(self.hash_name)
        ret_issuer: Optional[_Issuer] = None
        for related_hash in sorted(hn):
            data.update(related_hash.encode())
            blank_nodes = hn[related_hash]
            if len(blank_nodes) > self.permutation_limit:
                raise ToxicGraphError(
                    f"Too many permutations ({len(blank_nodes)} nodes, "
                    f"limit set to {self.permutation_limit})")
            chosen_path = ""
            chosen_issuer: Optional[_Issuer] = None
            for perm in _permutations(blank_nodes):
                issuer_copy = (ret_issuer or issuer).copy()
                path_parts: List[str] = []
                path_len = 0
                recursion_list: List[str] = []
                skip = False
                for related in perm:
                    canon = self.canonical.issued.get(related)
                    if canon is not None:
                        path_parts.append("_:" + canon)
                    else:
                        rid, new = issuer_copy.issue(related)
                        if new:
                            recursion_list.append(related)
                        path_parts.append("_:" + rid)
                path = "".join(path_parts)
                if chosen_path and _smaller_path(chosen_path, path):
                    continue
                for related in recursion_list:
                    rhash, rissuer = self.hash_n_degree(
                        related, issuer_copy, depth + 1)
                    rid, _ = rissuer.issue(related)
                    path += "_:" + rid + "<" + rhash + ">"
                    issuer_copy = rissuer
                    if chosen_path and _smaller_path(chosen_path, path):
                        skip = True
                        break
                if skip:
                    continue
                if not chosen_path or path < chosen_path:
                    chosen_path = path
                    chosen_issuer = issuer_copy
            data.update(chosen_path.encode())
            ret_issuer = chosen_issuer
        return data.hexdigest(), (ret_issuer if ret_issuer is not None
                                  else issuer.copy())

    # -- steps 4 + 5 -------------------------------------------------------
    def issue_unique(self):
        """Step 4: canonical ids for unique first-degree hashes, in hash
        order; shared hashes stay in ``h2b``."""
        next_h2b = {}
        for h in sorted(self.h2b):
            bnids = self.h2b[h]
            if len(bnids) > 1:
                next_h2b[h] = bnids
            else:
                self.canonical.issue(bnids[0])
        self.h2b = next_h2b

    def issue_shared(self):
        """Step 5: n-degree disambiguation for shared-hash groups, in
        group-hash order; records issue bursts for the distributed path."""
        for h in sorted(self.h2b):
            identifier_list = self.h2b[h]
            hash_path_list = []
            for i in identifier_list:
                issuer = _Issuer("b")
                issuer.issue(i)
                hash_path_list.append(self.hash_n_degree(i, issuer, 0))
            hash_path_list.sort(key=lambda pr: pr[0])
            seq = 0
            for _hash, issuer in hash_path_list:
                for bnid in issuer.issued_order:
                    _, new = self.canonical.issue(bnid)
                    if new:
                        self.bursts.append((h, seq, bnid))
                        seq += 1

    def run(self) -> Dict[str, str]:
        """Full algorithm; returns bnode label → canonical label map."""
        self.build_b2q()
        self.build_first_degree()
        self.issue_unique()
        self.issue_shared()
        return dict(self.canonical.issued)


def _encode_triple_terms(quads: Sequence[Quad]) -> List[Quad]:
    """Sophia-C14N triple-term encoding (``c14n/src/sophia.rs:1-42``):
    each distinct RDF 1.2 triple term becomes a fresh blank node whose
    SINGLETON NAMED GRAPH holds the (recursively encoded) inner triple;
    occurrences of the term are replaced by that bnode.  Canonicalizing
    the encoded dataset then labels bnodes inside triple terms
    correctly — including isomorphism over them."""
    labels: set = set()

    def collect(t: Term) -> None:
        if t is None:
            return
        if t[0] == KIND_BNODE:
            labels.add(t[1])
        elif t[0] == KIND_TRIPLE:
            # bnodes nested inside the triple-term lexical form must
            # also guard the fresh prefix, or a user bnode like _:tt0
            # collides with the generated encoding bnodes
            from .ntriples import _LineParser
            lp = _LineParser(t[1])
            lp.pos = 3
            for _ in range(3):
                lp.skip_ws()
                collect(lp.parse_term())

    for q in quads:
        for t in q:
            collect(t)
    prefix = "tt"
    while any(lb.startswith(prefix) for lb in labels):
        prefix += "x"

    extra: List[Quad] = []
    mapping: Dict[str, Term] = {}

    def enc(t: Term) -> Term:
        if t[0] != KIND_TRIPLE:
            return t
        hit = mapping.get(t[1])
        if hit is not None:
            return hit
        b: Term = (KIND_BNODE, f"{prefix}{len(mapping)}", "", "", 0)
        mapping[t[1]] = b
        # inner triple from the canonical-NT lex "<<( s p o )>>"
        from .ntriples import _LineParser
        lp = _LineParser(t[1])
        lp.pos = 3
        parts = []
        for _ in range(3):
            lp.skip_ws()
            parts.append(enc(lp.parse_term()))
        extra.append((parts[0], parts[1], parts[2], b))
        return b

    out = [(enc(s), enc(p), enc(o), g) for (s, p, o, g) in quads]
    return out + extra


def relabel_quads(quads: Sequence[Quad], *, strict: bool = True,
                  depth_factor: float = DEFAULT_DEPTH_FACTOR,
                  permutation_limit: int = DEFAULT_PERMUTATION_LIMIT,
                  hash_name: str = "sha256",
                  ) -> Tuple[List[Quad], Dict[str, str]]:
    """RDFC-1.0 relabel (``rdfc10.rs:164-274``): returns (quads with
    canonical bnode labels, original-label → canonical-label map).
    Generalized mode first encodes RDF 1.2 triple terms as singleton
    named graphs (``c14n/src/sophia.rs``)."""
    if not strict and any(
            t is not None and t[0] == KIND_TRIPLE
            for q in quads for t in q):
        quads = _encode_triple_terms(quads)
    state = C14nState(quads, strict=strict, depth_factor=depth_factor,
                      permutation_limit=permutation_limit, hash_name=hash_name)
    issued = state.run()

    def conv(t: Term) -> Term:
        if t[0] == KIND_BNODE:
            return (KIND_BNODE, issued[t[1]], "", "", 0)
        return t

    out = [(conv(s), conv(p), conv(o), None if g is None else conv(g))
           for (s, p, o, g) in quads]
    return out, issued


def normalize_quads(quads: Sequence[Quad], *, strict: bool = True,
                    depth_factor: float = DEFAULT_DEPTH_FACTOR,
                    permutation_limit: int = DEFAULT_PERMUTATION_LIMIT,
                    hash_name: str = "sha256") -> str:
    """Canonical N-Quads text: relabel + sort + serialize
    (``rdfc10.rs:28-105``)."""
    relabeled, _ = relabel_quads(
        quads, strict=strict, depth_factor=depth_factor,
        permutation_limit=permutation_limit, hash_name=hash_name)
    relabeled.sort(key=_quad_sort_key)
    return "".join(nq_line(q) for q in relabeled)


def c14n_digest(quads: Sequence[Quad], **kw) -> str:
    return hashlib.sha256(normalize_quads(quads, **kw).encode()).hexdigest()


def isomorphic(quads_a: Iterable[Quad], quads_b: Iterable[Quad], **kw) -> bool:
    """Dataset isomorphism (``isomorphism/src/dataset.rs:24-63``): dedup
    to sets, size compare, then compare canonical digests.  Like the
    reference (which canonicalizes with the GENERALIZED Sophia-C14N,
    ``c14n/src/sophia.rs``), defaults to strict=False so triple terms,
    bnode predicates and bnode graph names are supported; pass
    ``strict=True`` for RDFC-1.0-only semantics."""
    kw.setdefault("strict", False)
    def key(q: Quad):
        return (nq_term(q[0]), nq_term(q[1]), nq_term(q[2]),
                None if q[3] is None else nq_term(q[3]))

    sa = {key(q): q for q in quads_a}
    sb = {key(q): q for q in quads_b}
    if len(sa) != len(sb):
        return False
    return (c14n_digest(list(sa.values()), **kw)
            == c14n_digest(list(sb.values()), **kw))
