"""RDF / RDFS forward-chaining entailment (reference ``reasoner/src/``).

The reference saturates an in-memory graph to fixpoint under a
``RuleSet`` (``reasoner/src/ruleset.rs``, the loop at
``reasoner/src/ruleset/_rdfs.rs:35-97``).  Here a ruleset is a
frozenset of rule ids and :func:`saturate` is the one driver for every
ruleset.  Schema triples are a vanishingly small slice of a web-scale
graph, so the fixpoint is *split*:

1. with ``rdf1``, one hash exchange lists the used predicates;
2. with a schema rule, a filtered pass pulls the schema-relevant
   triples and :class:`ClosedSchema` closes them on the DRIVER; derived
   schema feeds back into the next pass (predicates whose sup-chain
   reaches ``rdfs:subPropertyOf`` & co. are schema too — the
   reference's interleaved rdfs5/rdfs7 case) until a pass adds nothing;
3. ONE broadcast ``map_batches`` pass expands every triple against the
   closed schema — no iterative shuffle over the big table, because
   the instance-derived triples are ``rdf:type`` atoms the class
   closure already saturates, or rdfs7 copies whose super-properties
   the same step expands;
4. exact dedup (SetGraph semantics) of input ∪ expansion ∪ closed schema.

Both pulls go through the broadcast gate; every expansion task holds
the closed schema, so a schema above the gate is an error, not a
fallback.  Ill-typed literals and datatype range clashes become error
ROWS (``with_errors=True``), never job failures.

Rule ids (W3C RDF 1.1 Semantics, generalized RDF):

- ``rdf1``: a used predicate is an ``rdf:Property``; a used ``rdf:_n``
  is also an ``rdfs:ContainerMembershipProperty``;
- ``rdfD1``: a literal of a recognized datatype (``d_entailment.rs``)
  has its normalized datatype and every wider one as types; ill-typed
  literals and datatype range clashes are error rows; rdfs3 types
  literal objects only under it;
- ``rdf-axioms`` / ``rdfs-axioms``: the finite axiomatic triples of
  :data:`_AXIOMS` — the ``rdf:type`` ones about ``rdf:`` terms / the rest;
- ``rdfs2`` domain and ``rdfs3`` range typing, ``rdfs4``
  ``rdfs:Resource`` typing, ``rdfs5`` / ``rdfs11`` ``subPropertyOf`` /
  ``subClassOf`` transitivity, ``rdfs6`` / ``rdfs10`` their reflexivity
  on properties / classes, ``rdfs7`` super-property copies, ``rdfs8``
  classes under ``rdfs:Resource``, ``rdfs9`` super-class typing,
  ``rdfs12`` membership properties under ``rdfs:member`` (with the
  domain and range axioms of each ``rdf:_n``), ``rdfs13`` datatypes
  under ``rdfs:Literal``, ``rdfs14`` triple terms as
  ``rdfs:Proposition``.

Rulesets: :data:`SIMPLE` (none: the deduplicated input, reference
``Simple``), :data:`RDF` (reference ``Rdf``), :data:`RHO_DF` (the ρdf
core rdfs2/3/5/7/9/11) and :data:`RDFS` (every id, reference ``Rdfs``).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

import pyarrow as pa
import pyarrow.compute as pc

from .dtypes import IllTypedLiteral, datatypes_for, is_recognized, normalize
from .functions.components import reach
from .ntriples import NtParseError, parse_term_text

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"


def _i(ns: str, local: str) -> str:
    return f"<{ns}{local}>"


TYPE = _i(RDF_NS, "type")
SC = _i(RDFS_NS, "subClassOf")
SP = _i(RDFS_NS, "subPropertyOf")
DOM = _i(RDFS_NS, "domain")
RNG = _i(RDFS_NS, "range")
PROPERTY = _i(RDF_NS, "Property")
RESOURCE = _i(RDFS_NS, "Resource")
CLASS = _i(RDFS_NS, "Class")
LITERAL_C = _i(RDFS_NS, "Literal")
DATATYPE_C = _i(RDFS_NS, "Datatype")
CMP = _i(RDFS_NS, "ContainerMembershipProperty")
MEMBER = _i(RDFS_NS, "member")
CONTAINER = _i(RDFS_NS, "Container")
PROPOSITION = _i(RDFS_NS, "Proposition")
_MEMBER_RE = re.compile(f"^<{RDF_NS}_[0-9]+>$")

SIMPLE: frozenset = frozenset()
RDF = frozenset({"rdf1", "rdfD1", "rdf-axioms"})
RHO_DF = frozenset({"rdfs2", "rdfs3", "rdfs5", "rdfs7", "rdfs9", "rdfs11"})
RDFS = RDF | RHO_DF | {"rdfs-axioms", "rdfs4", "rdfs6", "rdfs8", "rdfs10",
                       "rdfs12", "rdfs13", "rdfs14"}

#: rules that fire on ``x rdf:type C`` for a core class C:
#: (rule, C, predicate, object — None for x itself)
_TYPE_RULES = (("rdfs6", PROPERTY, SP, None),
               ("rdfs8", CLASS, SC, RESOURCE),
               ("rdfs10", CLASS, SC, None),
               ("rdfs12", CMP, SP, MEMBER),
               ("rdfs13", DATATYPE_C, SC, LITERAL_C))
#: rules that read the closed schema; any of them makes saturate pull it
_SCHEMA_RULES = RHO_DF | {r for r, *_ in _TYPE_RULES}
#: schema feedback passes before saturate gives up
_SCHEMA_ROUNDS = 5

#: RDF + RDFS axiomatic triples (W3C RDF 1.2 Semantics §9.1/§10.1, as
#: materialized by the reference's prepare_rdf_vocab/prepare_rdfs_vocab)
_AXIOMS: List[Tuple[str, str, str]] = [
    # rdf axioms
    (TYPE, TYPE, PROPERTY),
    (_i(RDF_NS, "subject"), TYPE, PROPERTY),
    (_i(RDF_NS, "predicate"), TYPE, PROPERTY),
    (_i(RDF_NS, "object"), TYPE, PROPERTY),
    (_i(RDF_NS, "reifies"), TYPE, PROPERTY),
    (_i(RDF_NS, "first"), TYPE, PROPERTY),
    (_i(RDF_NS, "rest"), TYPE, PROPERTY),
    (_i(RDF_NS, "value"), TYPE, PROPERTY),
    (_i(RDF_NS, "nil"), TYPE, _i(RDF_NS, "List")),
    (_i(RDF_NS, "_1"), TYPE, PROPERTY),
    # rdfs domain axioms
    (TYPE, DOM, RESOURCE),
    (_i(RDF_NS, "reifies"), DOM, RESOURCE),
    (DOM, DOM, PROPERTY),
    (RNG, DOM, PROPERTY),
    (SP, DOM, PROPERTY),
    (SC, DOM, CLASS),
    (_i(RDF_NS, "subject"), DOM, _i(RDF_NS, "Statement")),
    (_i(RDF_NS, "predicate"), DOM, _i(RDF_NS, "Statement")),
    (_i(RDF_NS, "object"), DOM, _i(RDF_NS, "Statement")),
    (MEMBER, DOM, RESOURCE),
    (_i(RDF_NS, "first"), DOM, _i(RDF_NS, "List")),
    (_i(RDF_NS, "rest"), DOM, _i(RDF_NS, "List")),
    (_i(RDFS_NS, "seeAlso"), DOM, RESOURCE),
    (_i(RDFS_NS, "isDefinedBy"), DOM, RESOURCE),
    (_i(RDFS_NS, "comment"), DOM, RESOURCE),
    (_i(RDFS_NS, "label"), DOM, RESOURCE),
    (_i(RDF_NS, "value"), DOM, RESOURCE),
    # rdfs range axioms
    (TYPE, RNG, CLASS),
    (_i(RDF_NS, "reifies"), RNG, PROPOSITION),
    (DOM, RNG, CLASS),
    (RNG, RNG, CLASS),
    (SP, RNG, PROPERTY),
    (SC, RNG, CLASS),
    (_i(RDF_NS, "subject"), RNG, RESOURCE),
    (_i(RDF_NS, "predicate"), RNG, RESOURCE),
    (_i(RDF_NS, "object"), RNG, RESOURCE),
    (MEMBER, RNG, RESOURCE),
    (_i(RDF_NS, "first"), RNG, RESOURCE),
    (_i(RDF_NS, "rest"), RNG, _i(RDF_NS, "List")),
    (_i(RDFS_NS, "seeAlso"), RNG, RESOURCE),
    (_i(RDFS_NS, "isDefinedBy"), RNG, RESOURCE),
    (_i(RDFS_NS, "comment"), RNG, LITERAL_C),
    (_i(RDFS_NS, "label"), RNG, LITERAL_C),
    (_i(RDF_NS, "value"), RNG, RESOURCE),
    # rdfs subclass axioms
    (_i(RDF_NS, "Alt"), SC, CONTAINER),
    (_i(RDF_NS, "Bag"), SC, CONTAINER),
    (_i(RDF_NS, "Seq"), SC, CONTAINER),
    (CMP, SC, PROPERTY),
    (DATATYPE_C, SC, CLASS),
    (_i(RDFS_NS, "isDefinedBy"), SP, _i(RDFS_NS, "seeAlso")),
    (_i(RDF_NS, "_1"), TYPE, CMP),
    (_i(RDF_NS, "_1"), DOM, RESOURCE),
    (_i(RDF_NS, "_1"), RNG, RESOURCE),
]


def _rows_table(rows, names=("s", "p", "o")) -> pa.Table:
    """Tuples of terms → a large_string table with columns ``names``."""
    cols = list(zip(*rows)) if rows else [()] * len(names)
    return pa.table({n: pa.array(c, pa.large_string())
                     for n, c in zip(names, cols)})


def _literal_values(lits) -> Dict[str, Optional[Tuple[str, str]]]:
    """Each distinct literal term of the string array ``lits`` → its
    normalized ``(lexical, datatype)`` (an unrecognized datatype passes
    through), or None when it is ill-typed for its recognized datatype
    (``d_entailment.rs`` try_normalize).  The one D-literal parse:
    Python work per distinct literal, not per row."""
    out: Dict[str, Optional[Tuple[str, str]]] = {}
    for o in pc.unique(lits).to_pylist():
        try:
            t = parse_term_text(o)
        except NtParseError:
            continue
        if t[0] != 2:
            continue
        try:
            out[o] = normalize(t[1], t[2])
        except IllTypedLiteral:
            out[o] = None
    return out


def _clashes(value: Optional[Tuple[str, str]], cls: str) -> bool:
    """Is a literal of normalized ``value`` (None: ill-typed) outside
    the value space of the range class ``cls``?"""
    dt = cls[1:-1]
    if not is_recognized(dt):
        return False
    return value is None or (value[1] != dt
                             and dt not in (datatypes_for(*value) or []))


class ClosedSchema:
    """Driver-side fixpoint of ``rules`` over the (small) schema-relevant
    triple set.  ``closed`` ships with the result; the lookup maps are
    what :meth:`expand` reads in every task."""

    def __init__(self, triples, rules):
        self.rules = rules = frozenset(rules)
        S: Set[Tuple[str, str, str]] = set(triples)
        # axioms for every membership property rdf:_n the schema names
        for m in {t for tr in S for t in tr if _MEMBER_RE.match(t)}:
            if "rdf1" in rules:
                S.add((m, TYPE, CMP))
            if "rdfs12" in rules:
                S |= {(m, DOM, RESOURCE), (m, RNG, RESOURCE)}
        on_type: Dict[str, list] = {}
        for rule, c, p, o in _TYPE_RULES:
            if rule in rules:
                on_type.setdefault(c, []).append((p, o))
        while True:
            by_pred: Dict[str, List[Tuple[str, str]]] = {}
            for s, p, o in S:
                by_pred.setdefault(p, []).append((s, o))
            # on a cycle every member is its own super-class / -property
            sup_c = reach(by_pred.get(SC, ()))
            sup_p = reach(by_pred.get(SP, ()))
            ty = by_pred.get(TYPE, ())
            add: Set[Tuple[str, str, str]] = set()
            if "rdfs2" in rules:
                add |= {(s, TYPE, c) for p, c in by_pred.get(DOM, ())
                        for s, _o in by_pred.get(p, ())}
            if "rdfs3" in rules:
                add |= {(o, TYPE, c) for p, c in by_pred.get(RNG, ())
                        for _s, o in by_pred.get(p, ())}
            if "rdfs5" in rules:
                add |= {(a, SP, b) for a, bs in sup_p.items() for b in bs}
            if "rdfs7" in rules:
                add |= {(s, b, o) for a, bs in sup_p.items() for b in bs
                        if b != a for s, o in by_pred.get(a, ())}
            if "rdfs9" in rules:
                add |= {(x, TYPE, d) for x, c in ty
                        for d in sup_c.get(c, ())}
            if "rdfs11" in rules:
                add |= {(a, SC, b) for a, bs in sup_c.items() for b in bs}
            add |= {(x, p, x if o is None else o) for x, c in ty
                    for p, o in on_type.get(c, ())}
            add -= S
            if not add:
                break
            S |= add
        self.closed = S

        def up(sups, rule):
            return {a: sorted(bs - {a}) for a, bs in sups.items()
                    if rule in rules and bs - {a}}

        def objects(pred, rule):
            out: Dict[str, Set[str]] = {}
            if rule in rules:
                for s, o in by_pred.get(pred, ()):
                    out.setdefault(s, set()).add(o)
            return {k: sorted(v) for k, v in out.items()}

        self.sup_prop = up(sup_p, "rdfs7")
        self.sup_class = up(sup_c, "rdfs9")
        self.domain = objects(DOM, "rdfs2")
        self.range = objects(RNG, "rdfs3")
        # vectorized prefilter: only rows whose predicate carries schema
        # (rdfs2/3/7) or rdf:type rows of a super-classed class (rdfs9)
        # enter the Python loop
        self._p_fire = pa.array(sorted(set(self.sup_prop) | set(self.domain)
                                       | set(self.range)), pa.string())
        self._cls_keys = pa.array(sorted(self.sup_class), pa.string())

    def schema_preds(self) -> Set[str]:
        """Predicates whose triples are schema-relevant: the four base
        predicates + rdf:type + anything whose sup-chain reaches one."""
        base = {SC, SP, DOM, RNG, TYPE}
        return base | {p for p, sups in self.sup_prop.items()
                       if base & set(sups)}

    def significant_classes(self) -> Set[str]:
        """Classes whose instances are schema entities (their typing
        feeds rdfs6/8/10/12/13): the core classes + subclasses."""
        base = {c for _r, c, _p, _o in _TYPE_RULES}
        return base | {c for c, sups in self.sup_class.items()
                       if base & set(sups)}

    def expand(self, b: pa.Table) -> pa.Table:
        """One block of (s, p, o) → the block and every triple it
        entails (``__err`` ''), then its error rows (``__err`` the
        message).  rdfs4, rdfs14 and literal typing are Arrow kernels
        (rdfs4 fires on every row); Python runs per distinct literal and
        per row that fires a hierarchy rule."""
        rules = self.rules
        LS = pa.large_string()
        base = pa.table({c: pc.cast(b[c], LS) for c in ("s", "p", "o")})
        s_c, o_c = base["s"], base["o"]
        p_str = pc.cast(base["p"], pa.string())
        o_str = pc.cast(o_c, pa.string())
        is_lit = pc.starts_with(o_str, '"')

        def typed(col, cls):
            return pa.table({"s": col,
                             "p": pa.repeat(pa.scalar(TYPE, LS), len(col)),
                             "o": pa.repeat(pa.scalar(cls, LS), len(col))})

        pieces = [base]
        err_pieces = []
        rows: List[Tuple[str, str, str]] = []
        errs: List[Tuple[str, str, str, str]] = []
        if "rdfs4" in rules:
            o_nl = o_c.filter(pc.invert(is_lit))
            for c in [RESOURCE] + self.sup_class.get(RESOURCE, []):
                pieces += [typed(s_c, c), typed(o_nl, c)]
        if "rdfs14" in rules:
            for col in (s_c, o_c):
                pieces.append(typed(col.filter(pc.starts_with(
                    pc.cast(col, pa.string()), "<<(")), PROPOSITION))
        lits: Dict[str, Optional[Tuple[str, str]]] = {}
        if "rdfD1" in rules:
            lits = _literal_values(o_str.filter(is_lit))
            for o, v in lits.items():
                if v is not None and is_recognized(v[1]):
                    rows += [(o, TYPE, f"<{d}>")
                             for d in [v[1]] + datatypes_for(*v)]
            bad = [o for o, v in lits.items() if v is None]
            if bad:
                brows = base.filter(pc.is_in(
                    o_str, value_set=pa.array(bad, pa.string())))
                err_pieces.append(brows.append_column(
                    "__err", pc.binary_join_element_wise(
                        pa.scalar("ill-typed literal ", LS), brows["o"],
                        pa.scalar("", LS))))

        fire = pc.is_in(p_str, value_set=self._p_fire)
        if len(self._cls_keys):
            fire = pc.or_(fire, pc.and_(
                pc.equal(p_str, pa.scalar(TYPE)),
                pc.is_in(o_str, value_set=self._cls_keys)))
        cand = base.filter(fire)
        for s, p, o in zip(cand["s"].to_pylist(), cand["p"].to_pylist(),
                           cand["o"].to_pylist()):
            types_s: Set[str] = set()
            types_o: Set[str] = set()
            if p == TYPE:
                types_s.update(self.sup_class.get(o, ()))   # rdfs9
            for q in [p] + self.sup_prop.get(p, []):
                if q != p:
                    rows.append((s, q, o))                   # rdfs7
                types_s.update(self.domain.get(q, ()))       # rdfs2
                for c in self.range.get(q, ()):              # rdfs3
                    if not o.startswith('"'):
                        types_o.add(c)
                    elif "rdfD1" in rules:               # literal subject
                        if _clashes(lits.get(o), c):
                            errs.append((s, p, o, f"range clash: {o} not "
                                                  f"in value space of {c}"))
                        else:
                            rows.append((o, TYPE, c))
            # class-close the collected types (rdfs9); on a subClassOf
            # cycle that reaches the input's own class, which is left out
            for subj, tys in ((s, types_s), (o, types_o)):
                full = set(tys)
                for t in tys:
                    full.update(self.sup_class.get(t, ()))
                rows += [(subj, TYPE, t) for t in full
                         if (subj, TYPE, t) != (s, p, o)]
        pieces.append(_rows_table(rows))
        out = pa.concat_tables(pieces)
        out = out.append_column("__err", pa.repeat(pa.scalar("", LS),
                                                   out.num_rows))
        err_pieces.append(_rows_table(errs, ("s", "p", "o", "__err")))
        return pa.concat_tables([out] + err_pieces)


def _pull(ds, what: str) -> pa.Table:
    """A materialized small-side Dataset on the driver, through the
    broadcast gate.  Every expansion task holds the closed schema, so
    above the gate there is no fallback: raise, naming the size."""
    from .functions import broadcast

    small = broadcast.gated_gather(ds, broadcast.BROADCAST_ROWS)
    if small is None:
        raise ValueError(
            f"saturate: {ds.count()} {what} exceed the broadcast limit of "
            f"{broadcast.BROADCAST_ROWS} rows that the expansion ships "
            "into every task")
    return small


def _used_predicates(nt_ds) -> List[str]:
    """The distinct predicates: one hash exchange, one gated pull."""
    from .functions.exchange import hash_aggregate

    def distinct(t: pa.Table) -> pa.Table:
        return pa.table({"p": pc.unique(pc.cast(t["p"], pa.string()))})

    t = _pull(hash_aggregate(nt_ds, ["p"], distinct, distinct,
                             num_partitions=4).materialize(),
              "distinct predicates")
    return t["p"].to_pylist() if t.num_rows else []


def _schema_triples(nt_ds, schema: ClosedSchema) -> Set[Tuple[str, str, str]]:
    """One filtered pass: the triples whose predicate is schema-relevant
    (rdf:type rows only with a schema-significant class)."""
    preds = pa.array(sorted(schema.schema_preds()), pa.string())
    sig = pa.array(sorted(schema.significant_classes()), pa.string())

    def pick(b: pa.Table) -> pa.Table:
        p = pc.cast(b["p"], pa.string())
        keep = pc.and_(pc.is_in(p, value_set=preds), pc.or_(
            pc.not_equal(p, pa.scalar(TYPE)),
            pc.is_in(pc.cast(b["o"], pa.string()), value_set=sig)))
        f = b.filter(keep)
        return pa.table({c: pc.cast(f[c], pa.string())
                         for c in ("s", "p", "o")})

    t = _pull(nt_ds.map_batches(pick, batch_format="pyarrow").materialize(),
              "schema triples")
    if not t.num_rows:
        return set()
    return set(zip(t["s"].to_pylist(), t["p"].to_pylist(),
                   t["o"].to_pylist()))


def _split_errors(both, with_errors: bool):
    """(rows whose ``__err`` is '' without that column, the error rows
    or None) of one expansion."""
    if with_errors:
        both = both.materialize()
    ok = both.map_batches(
        lambda t: t.filter(pc.equal(t["__err"], pa.scalar("")))
        .drop_columns(["__err"]),
        batch_format="pyarrow")
    if not with_errors:
        return ok, None
    return ok, both.map_batches(
        lambda t: t.filter(pc.not_equal(t["__err"], pa.scalar(""))),
        batch_format="pyarrow")


def saturate(nt_ds, rules=RDFS, *, with_errors: bool = False):
    """Dataset of NT (s, p, o) rows → its saturation under the rule ids
    ``rules`` (input ∪ entailed, distinct).  With ``with_errors`` also
    the error rows, as a second Dataset (s, p, o, error).  Raises
    ValueError on an unknown rule id, and before any expansion when the
    used predicates or the schema triples exceed
    ``broadcast.BROADCAST_ROWS``."""
    import ray.data as rd

    from .stages.dedup import dedup_triples

    rules = frozenset(rules)
    if rules - RDFS:
        raise ValueError(f"unknown rule ids {sorted(rules - RDFS)}")
    nt_ds = nt_ds.materialize()
    seed = {t for t in _AXIOMS
            if ("rdf-axioms" if t[1] == TYPE and t[0].startswith(f"<{RDF_NS}")
                else "rdfs-axioms") in rules}
    if "rdf1" in rules:
        seed |= {(p, TYPE, PROPERTY) for p in _used_predicates(nt_ds)}
    schema = ClosedSchema(seed, rules)
    if rules & _SCHEMA_RULES:
        for _ in range(_SCHEMA_ROUNDS):
            pulled = _schema_triples(nt_ds, schema)
            if pulled <= schema.closed:
                break
            schema = ClosedSchema(seed | pulled, rules)
        else:
            raise RuntimeError(f"schema feedback did not stabilize in "
                               f"{_SCHEMA_ROUNDS} passes")

    out, errors = _split_errors(
        nt_ds.map_batches(schema.expand, batch_format="pyarrow"),
        with_errors)
    # the closure table also keeps the (s, p, o) schema on an empty input
    out = dedup_triples(
        out.union(rd.from_arrow(_rows_table(sorted(schema.closed)))),
        carry_min=())
    if with_errors:
        return out, errors.map_batches(
            lambda t: t.rename_columns(["s", "p", "o", "error"]),
            batch_format="pyarrow")
    return out


def normalize_literals(nt_ds, *, with_errors: bool = False):
    """D-entailment literal normalization pass: canonicalize the
    lexical form of every recognized-datatype literal object
    (``d_entailment.rs`` NormalizeTriples); ill-typed literals become
    error rows (second dataset with ``with_errors=True``)."""
    from .terms import format_term

    def body(b: pa.Table) -> pa.Table:
        LS = pa.large_string()
        o_c = pc.cast(b["o"], LS)
        o_str = pc.cast(o_c, pa.string())
        lits = _literal_values(o_str.filter(pc.and_(
            pc.starts_with(o_str, '"'), pc.match_substring(o_str, "^^"))))
        repl: Dict[str, str] = {}
        for o, v in lits.items():
            if v is not None and is_recognized(v[1]):
                canon = format_term((2, v[0], v[1], "", 0))
                if canon != o:
                    repl[o] = canon
        bad = [o for o, v in lits.items() if v is None]
        # the corpus columns are rebuilt with vectorized
        # index_in/take/coalesce
        new_o = o_c
        if repl:
            idx = pc.index_in(o_c, value_set=pa.array(list(repl), LS))
            new_o = pc.coalesce(
                pc.take(pa.array(list(repl.values()), LS), idx), o_c)
        if bad:
            bmask = pc.is_in(o_c, value_set=pa.array(bad, LS))
            errs = pc.if_else(
                bmask,
                pc.binary_join_element_wise(
                    pa.scalar("ill-typed literal ", LS), o_c,
                    pa.scalar("", LS)),
                pa.scalar("", LS))
        else:
            errs = pa.repeat(pa.scalar("", LS), b.num_rows)
        cols = {c: b[c] for c in b.column_names if c != "o"}
        cols["o"] = new_o
        cols["__err"] = errs
        return pa.table(cols)

    ok, errors = _split_errors(
        nt_ds.map_batches(body, batch_format="pyarrow"), with_errors)
    return (ok, errors) if with_errors else ok
