"""RDFS forward-chaining entailment (reference ``reasoner/src/``).

The reference saturates an in-memory graph to fixpoint with rayon-
parallel rule application (``reasoner/src/ruleset/_rdfs.rs:35-97``).
Distributed shape: RDF schema triples are a vanishingly small slice of
a web-scale graph, so the fixpoint is *split*:

1. collect the schema triples (one filtered pass, small side);
2. close them on the DRIVER (transitive closures of rdfs:subClassOf /
   rdfs:subPropertyOf — rules rdfs11 / rdfs5 — plus inherited
   domain/range maps);
3. ONE broadcast ``map_batches`` pass expands every instance triple
   against the closed schema (rdfs7 super-properties, rdfs2 domain
   types, rdfs3 range types, rdfs9 super-classes) — no iterative
   shuffle over the big table, because instance-derived triples are
   all ``rdf:type`` atoms that the class closure already saturates;
4. exact dedup (SetGraph semantics) of original ∪ inferred.

``rdfs_saturate`` implements rdfs2, rdfs3, rdfs5, rdfs7, rdfs9, rdfs11
(the ρdf core) — the cheap default for KG pipelines.

``rdfs_saturate_full`` (r2) implements the FULL ruleset of the
reference (``_rdfs.rs:35-97,236-385``): rdfs1/4/6/8/10/12/13,
container-membership properties, axiomatic triples, rdfs14
(Proposition typing of triple terms), plus D-entailment over the
SPARQL-recognized datatypes (``d_entailment.rs``): literal
normalization, value-space typing and ill-typed / range-clash
inconsistency detection as per-row ERROR RECORDS (never job failure).
Schema-relevant triples feed back through an outer loop (predicates
that reach rdfs:subPropertyOf & co. through sup-chains are themselves
schema — the reference's interleaved rdfs5/rdfs7 case).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import pyarrow as pa
import pyarrow.compute as pc

from .functions.components import reach

RDF_TYPE_NT = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
SUBCLASS_NT = f"<{RDFS}subClassOf>"
SUBPROP_NT = f"<{RDFS}subPropertyOf>"
DOMAIN_NT = f"<{RDFS}domain>"
RANGE_NT = f"<{RDFS}range>"

_SCHEMA_PREDS = (SUBCLASS_NT, SUBPROP_NT, DOMAIN_NT, RANGE_NT)


class RdfsSchema:
    """Closed schema: the broadcastable small side."""

    def __init__(self, schema_rows: List[Tuple[str, str, str]]):
        sc = [(s, o) for s, p, o in schema_rows if p == SUBCLASS_NT]
        sp = [(s, o) for s, p, o in schema_rows if p == SUBPROP_NT]
        # on a cycle every member is its own super-class / -property
        self.sup_class = reach(sc)
        self.sup_prop = reach(sp)
        self.domain: Dict[str, Set[str]] = {}
        self.range: Dict[str, Set[str]] = {}
        for s, p, o in schema_rows:
            if p == DOMAIN_NT:
                self.domain.setdefault(s, set()).add(o)
            elif p == RANGE_NT:
                self.range.setdefault(s, set()).add(o)

    def class_up(self, c: str) -> Set[str]:
        return self.sup_class.get(c, set())

    def closure_triples(self) -> List[Tuple[str, str, str]]:
        """rdfs11 / rdfs5: the closed subClassOf / subPropertyOf edges."""
        out = []
        for c, sups in self.sup_class.items():
            out += [(c, SUBCLASS_NT, d) for d in sups]
        for p, sups in self.sup_prop.items():
            out += [(p, SUBPROP_NT, q) for q in sups]
        return out

    def expand_row(self, s: str, p: str, o: str) -> List[Tuple[str, str, str]]:
        """All triples entailed by one instance triple (excl. itself)."""
        out: List[Tuple[str, str, str]] = []
        types: Set[str] = set()
        if p == RDF_TYPE_NT:
            types |= self.class_up(o)
        preds = {p} | self.sup_prop.get(p, set())
        for q in preds:
            if q != p:
                out.append((s, q, o))  # rdfs7
            for c in self.domain.get(q, ()):          # rdfs2
                types.add(c)
                types |= self.class_up(c)
            if o.startswith("<"):                     # rdfs3 (IRI objects)
                for c in self.range.get(q, ()):
                    out.append((o, RDF_TYPE_NT, c))
                    out += [(o, RDF_TYPE_NT, d) for d in self.class_up(c)]
        out += [(s, RDF_TYPE_NT, c) for c in types]
        # on a subClassOf cycle a class is its own super-class: rdfs9
        # would re-derive the input itself
        me = (s, p, o)
        return [t for t in out if t != me]


def collect_schema(nt_ds) -> RdfsSchema:
    """One filtered pass → driver-side closed schema (small side)."""
    preds = pa.array(list(_SCHEMA_PREDS))
    small = nt_ds.map_batches(
        lambda b: b.filter(pc.is_in(b["p"], value_set=preds))
        .select(["s", "p", "o"]),
        batch_format="pyarrow")
    rows = [(r["s"], r["p"], r["o"]) for r in small.take_all()]
    return RdfsSchema(rows)


def rdfs_saturate(nt_ds, *, dedup: bool = True):
    """Dataset of NT (s,p,o) rows → RDFS-entailed rows (orig ∪ inferred,
    distinct).  The schema is collected once and shipped inside the
    batch closure (small, static)."""
    import ray.data as rd

    schema = collect_schema(nt_ds)
    # vectorized prefilter: a row can fire a rule only when its
    # predicate carries schema (subPropertyOf/domain/range) or it is an
    # rdf:type row whose class has superclasses — every other row is
    # pure pass-through and never enters Python
    p_fire = pa.array(sorted(set(schema.sup_prop) | set(schema.domain)
                             | set(schema.range)), pa.string())
    cls_keys = pa.array(sorted(schema.sup_class), pa.string())

    def expand(b: pa.Table) -> pa.Table:
        base = pa.table({"s": pc.cast(b["s"], pa.large_string()),
                         "p": pc.cast(b["p"], pa.large_string()),
                         "o": pc.cast(b["o"], pa.large_string())})
        p_str = pc.cast(base["p"], pa.string())
        mask = pc.is_in(p_str, value_set=p_fire)
        if len(cls_keys):
            mask = pc.or_(mask, pc.and_(
                pc.equal(p_str, pa.scalar(RDF_TYPE_NT)),
                pc.is_in(pc.cast(base["o"], pa.string()),
                         value_set=cls_keys)))
        cand = base.filter(mask)
        if cand.num_rows == 0:
            return base
        out_s: List[str] = []
        out_p: List[str] = []
        out_o: List[str] = []
        for s, p, o in zip(cand["s"].to_pylist(), cand["p"].to_pylist(),
                           cand["o"].to_pylist()):
            for ns, np_, no in schema.expand_row(s, p, o):
                out_s.append(ns)
                out_p.append(np_)
                out_o.append(no)
        derived = pa.table({"s": pa.array(out_s, pa.large_string()),
                            "p": pa.array(out_p, pa.large_string()),
                            "o": pa.array(out_o, pa.large_string())})
        return pa.concat_tables([base, derived])

    expanded = nt_ds.map_batches(expand, batch_format="pyarrow")
    closure = schema.closure_triples()
    if closure:
        extra = pa.table({
            "s": pa.array([t[0] for t in closure], pa.large_string()),
            "p": pa.array([t[1] for t in closure], pa.large_string()),
            "o": pa.array([t[2] for t in closure], pa.large_string())})
        expanded = expanded.union(rd.from_arrow(extra))
    if dedup:
        from .stages.dedup import dedup_triples
        expanded = dedup_triples(expanded, carry_min=())
    return expanded


# ---------------------------------------------------------------------------
# full RDFS (r2) — complete ruleset + axioms + D-entailment
# ---------------------------------------------------------------------------

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"


def _i(ns: str, local: str) -> str:
    return f"<{ns}{local}>"


TYPE = RDF_TYPE_NT
SC, SP, DOM, RNG = SUBCLASS_NT, SUBPROP_NT, DOMAIN_NT, RANGE_NT
PROPERTY = _i(RDF_NS, "Property")
RESOURCE = _i(RDFS, "Resource")
CLASS = _i(RDFS, "Class")
LITERAL_C = _i(RDFS, "Literal")
DATATYPE_C = _i(RDFS, "Datatype")
CMP = _i(RDFS, "ContainerMembershipProperty")
MEMBER = _i(RDFS, "member")
CONTAINER = _i(RDFS, "Container")
PROPOSITION = _i(RDFS, "Proposition")
_MEMBER_RE_TXT = f"^<{RDF_NS}_[0-9]+>$"

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
    (_i(RDFS, "seeAlso"), DOM, RESOURCE),
    (_i(RDFS, "isDefinedBy"), DOM, RESOURCE),
    (_i(RDFS, "comment"), DOM, RESOURCE),
    (_i(RDFS, "label"), DOM, RESOURCE),
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
    (_i(RDFS, "seeAlso"), RNG, RESOURCE),
    (_i(RDFS, "isDefinedBy"), RNG, RESOURCE),
    (_i(RDFS, "comment"), RNG, LITERAL_C),
    (_i(RDFS, "label"), RNG, LITERAL_C),
    (_i(RDF_NS, "value"), RNG, RESOURCE),
    # rdfs subclass axioms
    (_i(RDF_NS, "Alt"), SC, CONTAINER),
    (_i(RDF_NS, "Bag"), SC, CONTAINER),
    (_i(RDF_NS, "Seq"), SC, CONTAINER),
    (CMP, SC, PROPERTY),
    (DATATYPE_C, SC, CLASS),
    (_i(RDFS, "isDefinedBy"), SP, _i(RDFS, "seeAlso")),
    (_i(RDF_NS, "_1"), TYPE, CMP),
    (_i(RDF_NS, "_1"), DOM, RESOURCE),
    (_i(RDF_NS, "_1"), RNG, RESOURCE),
]


class FullRdfsSchema:
    """Driver-side fixpoint over the (small) schema-relevant triple set
    applying the COMPLETE rule set; exposes the closed lookup maps the
    distributed expansion pass broadcasts."""

    def __init__(self, triples: Set[Tuple[str, str, str]],
                 axiomatic: bool = True):
        import re as _re

        S: Set[Tuple[str, str, str]] = set(triples)
        if axiomatic:
            S |= set(_AXIOMS)
        member_re = _re.compile(_MEMBER_RE_TXT)
        # axioms for every used membership property rdf:_N
        for s, p, o in list(S):
            for t in (s, p, o):
                if member_re.match(t):
                    S.add((t, TYPE, CMP))
                    S.add((t, DOM, RESOURCE))
                    S.add((t, RNG, RESOURCE))
        changed = True
        while changed:
            changed = False
            add: Set[Tuple[str, str, str]] = set()
            sc = [(s, o) for s, p, o in S if p == SC]
            sp = [(s, o) for s, p, o in S if p == SP]
            dom = [(s, o) for s, p, o in S if p == DOM]
            rng = [(s, o) for s, p, o in S if p == RNG]
            ty = [(s, o) for s, p, o in S if p == TYPE]
            by_pred: Dict[str, List[Tuple[str, str]]] = {}
            for s, p, o in S:
                by_pred.setdefault(p, []).append((s, o))
            # rdfs2 / rdfs3 within the schema set
            for p, c in dom:
                for s, o in by_pred.get(p, ()):
                    add.add((s, TYPE, c))
            for p, c in rng:
                for s, o in by_pred.get(p, ()):
                    add.add((o, TYPE, c))
            # rdfs5 / rdfs11 transitivity
            sp_map: Dict[str, Set[str]] = {}
            for a, b in sp:
                sp_map.setdefault(a, set()).add(b)
            for a, bs in sp_map.items():
                for b in list(bs):
                    for c in sp_map.get(b, ()):
                        add.add((a, SP, c))
            sc_map: Dict[str, Set[str]] = {}
            for a, b in sc:
                sc_map.setdefault(a, set()).add(b)
            for a, bs in sc_map.items():
                for b in list(bs):
                    for c in sc_map.get(b, ()):
                        add.add((a, SC, c))
            # rdfs6 / rdfs8+10 / rdfs12 / rdfs13
            for x, c in ty:
                if c == PROPERTY:
                    add.add((x, SP, x))
                elif c == CLASS:
                    add.add((x, SC, x))
                    add.add((x, SC, RESOURCE))
                elif c == CMP:
                    add.add((x, SP, MEMBER))
                elif c == DATATYPE_C:
                    add.add((x, SC, LITERAL_C))
            # rdfs7 within the schema set
            for p1, p2 in sp:
                if p1 == p2:
                    continue
                for s, o in by_pred.get(p1, ()):
                    add.add((s, p2, o))
            # rdfs9 within the schema set
            for x, c in ty:
                for c2 in sc_map.get(c, ()):
                    add.add((x, TYPE, c2))
            add -= S
            if add:
                S |= add
                changed = True
        self.closed = S
        self.sup_prop: Dict[str, Set[str]] = {}
        self.sup_class: Dict[str, Set[str]] = {}
        self.domain: Dict[str, Set[str]] = {}
        self.range: Dict[str, Set[str]] = {}
        for s, p, o in S:
            if p == SP and s != o:
                self.sup_prop.setdefault(s, set()).add(o)
            elif p == SC and s != o:
                self.sup_class.setdefault(s, set()).add(o)
            elif p == DOM:
                self.domain.setdefault(s, set()).add(o)
            elif p == RNG:
                self.range.setdefault(s, set()).add(o)

    def class_up(self, c: str) -> Set[str]:
        return self.sup_class.get(c, set())

    def schema_preds(self) -> Set[str]:
        """Predicates whose triples are schema-relevant: the four base
        predicates + rdf:type + anything whose sup-chain reaches one."""
        base = {SC, SP, DOM, RNG, TYPE}
        out = set(base)
        for p, sups in self.sup_prop.items():
            if sups & base:
                out.add(p)
        return out

    def significant_classes(self) -> Set[str]:
        """Classes whose instances are schema entities (typing feeds
        rules 6/8/10/12/13): the four core classes + subclasses."""
        base = {PROPERTY, CLASS, CMP, DATATYPE_C}
        out = set(base)
        for c, sups in self.sup_class.items():
            if sups & base:
                out.add(c)
        return out


def _collect_schema_full(nt_ds, schema_preds: Set[str],
                         significant: Set[str]) -> Set[Tuple[str, str, str]]:
    """One filtered pass: triples whose predicate is schema-relevant
    (rdf:type rows only with schema-significant objects), plus the
    distinct predicate / membership-property inventory."""
    preds_arr = pa.array(sorted(schema_preds))
    sig_arr = pa.array(sorted(significant))

    def pick(b: pa.Table) -> pa.Table:
        p = pc.cast(b["p"], pa.string())
        keep = pc.is_in(p, value_set=preds_arr)
        is_type = pc.equal(p, pa.scalar(TYPE))
        sig = pc.is_in(pc.cast(b["o"], pa.string()), value_set=sig_arr)
        keep = pc.and_(keep, pc.or_(pc.invert(is_type), sig))
        f = b.filter(keep)
        return pa.table({"s": pc.cast(f["s"], pa.string()),
                         "p": pc.cast(f["p"], pa.string()),
                         "o": pc.cast(f["o"], pa.string())})

    small = nt_ds.map_batches(pick, batch_format="pyarrow")
    return {(r["s"], r["p"], r["o"]) for r in small.take_all()}


def _used_inventory(nt_ds):
    """Distinct predicates and membership-property IRIs (small sides)."""
    import re as _re

    member_re = _re.compile(_MEMBER_RE_TXT)

    def preds(b: pa.Table) -> pa.Table:
        return pa.table({"p": pc.unique(pc.cast(b["p"], pa.string()))})

    from .functions.exchange import hash_aggregate

    distinct = hash_aggregate(
        nt_ds, ["p"], preds,
        lambda t: pa.table({"p": pc.unique(t["p"])}), num_partitions=4)
    out = [r["p"] for r in distinct.take_all()]
    members = [p for p in out if member_re.match(p)]
    return out, members


def rdfs_saturate_full(nt_ds, *, axiomatic: bool = True,
                       resource_types: bool = True,
                       proposition_types: bool = True,
                       literal_types: bool = True,
                       d_entailment: bool = True,
                       dedup: bool = True,
                       max_schema_rounds: int = 5,
                       with_errors: bool = False):
    """Full-RDFS saturation (reference parity: ``_rdfs.rs`` saturate +
    D-entailment).  Schema closes on the driver (small side) with an
    outer feedback loop for derived schema; ONE broadcast map_batches
    pass expands the instance triples.  Ill-typed literals and
    datatype range clashes become error ROWS (returned as a second
    dataset with ``with_errors=True``), never job failures.

    Toggles: ``axiomatic`` (include the finite axiomatic triples),
    ``resource_types`` (rdfs4 rdf:type rdfs:Resource rows),
    ``proposition_types`` (rdfs14), ``literal_types`` (generalized
    ``"lex"^^dt a dt`` rows for recognized datatypes)."""
    import ray.data as rd

    from .dtypes import (IllTypedLiteral, datatypes_for, is_recognized,
                         normalize)
    from .ntriples import parse_term_text

    nt_ds = nt_ds.materialize()
    used_preds, members = _used_inventory(nt_ds)

    seed: Set[Tuple[str, str, str]] = set()
    for p in used_preds:
        seed.add((p, TYPE, PROPERTY))           # rdf1
    for m in members:
        seed.add((m, TYPE, CMP))
        seed.add((m, DOM, RESOURCE))
        seed.add((m, RNG, RESOURCE))

    schema = FullRdfsSchema(seed, axiomatic=axiomatic)
    for _ in range(max_schema_rounds):
        collected = _collect_schema_full(
            nt_ds, schema.schema_preds(), schema.significant_classes())
        if collected <= schema.closed:
            break
        schema = FullRdfsSchema(seed | collected, axiomatic=axiomatic)
    else:
        raise RuntimeError(
            f"schema feedback did not stabilize in {max_schema_rounds} "
            "rounds")

    sup_prop = {k: sorted(v) for k, v in schema.sup_prop.items()}
    sup_class = {k: sorted(v) for k, v in schema.sup_class.items()}
    dom_map = {k: sorted(v) for k, v in schema.domain.items()}
    rng_map = {k: sorted(v) for k, v in schema.range.items()}

    # vectorized prefilter: only rows whose predicate carries schema
    # (rdfs2/3/7) or rdf:type rows with a super-classed class (rdfs9)
    # ever enter Python; rdfs4/rdfs14/D-literal-typing run as Arrow
    # kernels (rdfs4 fires on EVERY row, so it must not be a row loop)
    p_fire = pa.array(sorted(set(sup_prop) | set(dom_map) | set(rng_map)),
                      pa.string())
    cls_keys = pa.array(sorted(sup_class), pa.string())
    # rdfs4 emits rdfs:Resource class-closed over any declared supers
    res_closure = [RESOURCE] + sup_class.get(RESOURCE, [])

    def _literal_types(o: str) -> Tuple[List[str], bool]:
        """(entailed datatype IRIs, ill-typed?) for ONE distinct
        literal — memoized per batch so Python cost scales with
        |distinct literals|, not rows."""
        t = parse_term_text(o)
        if t[0] != 2 or t[3] or not is_recognized(t[2]):
            return [], False
        try:
            lex, dt = normalize(t[1], t[2])
        except IllTypedLiteral:
            return [], True
        return ([f"<{dt}>"]
                + [f"<{d2}>" for d2 in (datatypes_for(lex, dt) or [])],
                False)

    def expand(b: pa.Table) -> pa.Table:
        base = pa.table({"s": pc.cast(b["s"], pa.large_string()),
                         "p": pc.cast(b["p"], pa.large_string()),
                         "o": pc.cast(b["o"], pa.large_string())})
        n = base.num_rows
        s_c, p_c, o_c = base["s"], base["p"], base["o"]
        p_str = pc.cast(p_c, pa.string())
        o_str = pc.cast(o_c, pa.string())
        is_lit = pc.starts_with(o_str, '"')
        LS = pa.large_string()

        def rep(txt: str, k: int):
            return pa.repeat(pa.scalar(txt, LS), k)

        pieces = [base]
        err_pieces = []

        if resource_types:                              # rdfs4
            o_nl = o_c.filter(pc.invert(is_lit))
            for c in res_closure:
                pieces.append(pa.table(
                    {"s": s_c, "p": rep(TYPE, n), "o": rep(c, n)}))
                pieces.append(pa.table(
                    {"s": o_nl, "p": rep(TYPE, len(o_nl)),
                     "o": rep(c, len(o_nl))}))

        if proposition_types:                           # rdfs14
            for col, col_str in ((s_c, pc.cast(s_c, pa.string())),
                                 (o_c, o_str)):
                tt = col.filter(pc.starts_with(col_str, "<<("))
                pieces.append(pa.table(
                    {"s": tt, "p": rep(TYPE, len(tt)),
                     "o": rep(PROPOSITION, len(tt))}))

        if d_entailment and literal_types:              # D-typing
            em_s: List[str] = []
            em_o: List[str] = []
            bad: List[str] = []
            for o in pc.unique(o_str.filter(is_lit)).to_pylist():
                dts, is_bad = _literal_types(o)
                if is_bad:
                    bad.append(o)
                for d in dts:
                    em_s.append(o)
                    em_o.append(d)
            pieces.append(pa.table(
                {"s": pa.array(em_s, LS), "p": rep(TYPE, len(em_s)),
                 "o": pa.array(em_o, LS)}))
            if bad:
                bmask = pc.is_in(o_str, value_set=pa.array(bad, pa.string()))
                brows = base.filter(bmask)
                msg = pc.binary_join_element_wise(
                    pa.scalar("ill-typed literal ", LS),
                    pc.cast(brows["o"], LS), pa.scalar("", LS))
                err_pieces.append(pa.table(
                    {"s": brows["s"], "p": brows["p"], "o": brows["o"],
                     "error": msg}))

        # hierarchy rules (rdfs2/3/7/9 + range clashes): Python loop
        # over FIRING rows only
        fire = pc.is_in(p_str, value_set=p_fire)
        if len(cls_keys):
            fire = pc.or_(fire, pc.and_(
                pc.equal(p_str, pa.scalar(TYPE)),
                pc.is_in(o_str, value_set=cls_keys)))
        cand = base.filter(fire)
        out_s: List[str] = []
        out_p: List[str] = []
        out_o: List[str] = []
        err_s, err_p, err_o, err_msg = [], [], [], []

        def emit(s, p, o):
            out_s.append(s)
            out_p.append(p)
            out_o.append(o)

        for s, p, o in zip(cand["s"].to_pylist(), cand["p"].to_pylist(),
                           cand["o"].to_pylist()):
            types_s: Set[str] = set()
            types_o: Set[str] = set()
            is_lit_o = o.startswith('"')
            preds = [p] + sup_prop.get(p, [])
            for q in preds:
                if q != p:
                    emit(s, q, o)                       # rdfs7
                types_s.update(dom_map.get(q, ()))      # rdfs2
                for c in rng_map.get(q, ()):            # rdfs3
                    if is_lit_o:
                        if d_entailment and c.startswith(f"<{XSD_NS}"):
                            # datatype range: check membership (clash)
                            t = parse_term_text(o)
                            dt = t[2]
                            lex = t[1]
                            cdt = c[1:-1]
                            try:
                                nlex, ndt = normalize(lex, dt)
                                ok = is_recognized(cdt) and (
                                    ndt == cdt
                                    or cdt in (datatypes_for(nlex, ndt)
                                               or []))
                            except IllTypedLiteral:
                                ok = False
                            if is_recognized(cdt) and not ok:
                                err_s.append(s)
                                err_p.append(p)
                                err_o.append(o)
                                err_msg.append(
                                    f"range clash: {o} not in value "
                                    f"space of {c}")
                                continue
                        if literal_types:
                            emit(o, TYPE, c)
                    else:
                        types_o.add(c)
            if p == TYPE:
                types_s.update(sup_class.get(o, ()))    # rdfs9
            # class-close and emit the collected types (rdfs4 resource
            # rows were already emitted vectorized above)
            for base_types, subj in ((types_s, s), (types_o, o)):
                full: Set[str] = set()
                for t in base_types:
                    full.add(t)
                    full.update(sup_class.get(t, ()))
                for t in sorted(full):
                    emit(subj, TYPE, t)
        pieces.append(pa.table({"s": pa.array(out_s, LS),
                                "p": pa.array(out_p, LS),
                                "o": pa.array(out_o, LS)}))
        err_pieces.append(pa.table(
            {"s": pa.array(err_s, LS), "p": pa.array(err_p, LS),
             "o": pa.array(err_o, LS),
             "error": pa.array(err_msg, LS)}))
        return {"main": pa.concat_tables(pieces),
                "err": pa.concat_tables(err_pieces)}

    # run expansion once, splitting normal rows from error rows
    both = nt_ds.map_batches(
        lambda b: (lambda r: r["main"].append_column(
            "__err", pa.array([""] * r["main"].num_rows, pa.large_string()))
            .select(["s", "p", "o", "__err"])
            if r["err"].num_rows == 0 else
            pa.concat_tables([
                r["main"].append_column(
                    "__err",
                    pa.array([""] * r["main"].num_rows, pa.large_string()))
                .select(["s", "p", "o", "__err"]),
                r["err"].rename_columns(["s", "p", "o", "__err"]),
            ]))(expand(b)),
        batch_format="pyarrow").materialize()

    errors = both.map_batches(
        lambda t: t.filter(pc.not_equal(t["__err"], pa.scalar("")))
        .rename_columns(["s", "p", "o", "error"]),
        batch_format="pyarrow")
    expanded = both.map_batches(
        lambda t: t.filter(pc.equal(t["__err"], pa.scalar("")))
        .drop_columns(["__err"]),
        batch_format="pyarrow")

    closure = sorted(schema.closed)
    if closure:
        extra = pa.table({
            "s": pa.array([t[0] for t in closure], pa.large_string()),
            "p": pa.array([t[1] for t in closure], pa.large_string()),
            "o": pa.array([t[2] for t in closure], pa.large_string())})
        expanded = expanded.union(rd.from_arrow(extra))
    if dedup:
        from .stages.dedup import dedup_triples

        expanded = dedup_triples(expanded, carry_min=())
    if with_errors:
        return expanded, errors
    return expanded


def normalize_literals(nt_ds, *, with_errors: bool = False):
    """D-entailment literal normalization pass: canonicalize the
    lexical form of every recognized-datatype literal object
    (``d_entailment.rs`` NormalizeTriples); ill-typed literals become
    error rows (second dataset with ``with_errors=True``)."""
    from .dtypes import IllTypedLiteral, is_recognized, normalize
    from .ntriples import parse_term_text
    from .terms import format_term

    def body(b: pa.Table) -> pa.Table:
        LS = pa.large_string()
        o_c = pc.cast(b["o"], LS)
        o_str = pc.cast(o_c, pa.string())
        cand = pc.and_(pc.starts_with(o_str, '"'),
                       pc.match_substring(o_str, "^^"))
        # per-distinct-literal memo; the corpus columns are rebuilt
        # with vectorized index_in/take/coalesce
        repl_k, repl_v, bad = [], [], []
        for o in pc.unique(o_str.filter(cand)).to_pylist():
            try:
                t = parse_term_text(o)
            except Exception:
                continue
            if t[0] != 2 or t[3] or not is_recognized(t[2]):
                continue
            try:
                lex, dt = normalize(t[1], t[2])
                canon = format_term((2, lex, dt, "", 0))
                if canon != o:
                    repl_k.append(o)
                    repl_v.append(canon)
            except IllTypedLiteral:
                bad.append(o)
        new_o = o_c
        if repl_k:
            idx = pc.index_in(o_c, value_set=pa.array(repl_k, LS))
            new_o = pc.coalesce(pc.take(pa.array(repl_v, LS), idx), o_c)
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

    both = nt_ds.map_batches(body, batch_format="pyarrow")
    if not with_errors:
        return both.map_batches(
            lambda t: t.filter(pc.equal(t["__err"], pa.scalar("")))
            .drop_columns(["__err"]),
            batch_format="pyarrow")
    both = both.materialize()
    ok = both.map_batches(
        lambda t: t.filter(pc.equal(t["__err"], pa.scalar("")))
        .drop_columns(["__err"]),
        batch_format="pyarrow")
    errors = both.map_batches(
        lambda t: t.filter(pc.not_equal(t["__err"], pa.scalar(""))),
        batch_format="pyarrow")
    return ok, errors


def rdf_saturate(nt_ds, *, d_entailment: bool = True, dedup: bool = True):
    """RDF-entailment-only saturation (reference parity: the ``Rdf``
    ruleset struct, ``reasoner/src/ruleset/_rdf.rs:37``): rule rdf1
    (every used predicate is an rdf:Property), membership-property
    typing for used ``rdf:_N``, the finite RDF axiomatic triples, and
    (with ``d_entailment``) recognized-datatype literal typing
    ``"lex"^^dt rdf:type dt`` — WITHOUT any RDFS class/property
    hierarchy rules.  Same distributed shape as the full ruleset: one
    inventory exchange, one broadcast expansion pass."""
    import ray.data as rd

    from .dtypes import IllTypedLiteral, datatypes_for, is_recognized, normalize
    from .ntriples import parse_term_text

    nt_ds = nt_ds.materialize()
    used_preds, members = _used_inventory(nt_ds)

    extra: Set[Tuple[str, str, str]] = set()
    for p in used_preds:
        extra.add((p, TYPE, PROPERTY))                    # rdf1
    for m in members:
        extra.add((m, TYPE, CMP))
    # RDF-namespace axioms only (the rdfs dom/range/subclass axioms
    # belong to the Rdfs ruleset)
    for s, p, o in _AXIOMS:
        if p == TYPE and s.startswith(f"<{RDF_NS}"):
            extra.add((s, p, o))

    def expand(b: pa.Table) -> pa.Table:
        base = pa.table({"s": pc.cast(b["s"], pa.large_string()),
                         "p": pc.cast(b["p"], pa.large_string()),
                         "o": pc.cast(b["o"], pa.large_string())})
        if not d_entailment:
            return base
        # Python cost scales with |distinct ^^-typed literals|, not
        # rows: vectorized candidate filter + per-batch unique
        o_str = pc.cast(base["o"], pa.string())
        cand = pc.and_(pc.starts_with(o_str, '"'),
                       pc.match_substring(o_str, "^^"))
        add_s, add_o = [], []
        for o in pc.unique(o_str.filter(cand)).to_pylist():
            try:
                t = parse_term_text(o)
            except Exception:
                continue
            if t[0] == 2 and not t[3] and is_recognized(t[2]):
                try:
                    lex, dt = normalize(t[1], t[2])
                except IllTypedLiteral:
                    continue
                add_s.append(o)
                add_o.append(f"<{dt}>")
                for d2 in (datatypes_for(lex, dt) or []):
                    add_s.append(o)
                    add_o.append(f"<{d2}>")
        derived = pa.table({
            "s": pa.array(add_s, pa.large_string()),
            "p": pa.array([TYPE] * len(add_s), pa.large_string()),
            "o": pa.array(add_o, pa.large_string())})
        return pa.concat_tables([base, derived])

    out = nt_ds.map_batches(expand, batch_format="pyarrow")
    if extra:
        closure = sorted(extra)
        et = pa.table({
            "s": pa.array([t[0] for t in closure], pa.large_string()),
            "p": pa.array([t[1] for t in closure], pa.large_string()),
            "o": pa.array([t[2] for t in closure], pa.large_string())})
        out = out.union(rd.from_arrow(et))
    if dedup:
        from .stages.dedup import dedup_triples

        out = dedup_triples(out, carry_min=())
    return out


def simple_saturate(nt_ds, *, dedup: bool = True):
    """Simple-entailment ruleset (reference ``Simple`` struct,
    ``_simple.rs:4``): no inference rules at all — the saturation is
    the (optionally deduplicated) input graph itself."""
    if dedup:
        from .stages.dedup import dedup_triples

        return dedup_triples(nt_ds, carry_min=())
    return nt_ds


def saturate(nt_ds, ruleset: str = "rdfs", **kw):
    """Ruleset selector mirroring the reference's three RuleSet structs
    (Simple / Rdf / Rdfs, ``reasoner/src/ruleset/``)."""
    if ruleset == "simple":
        return simple_saturate(nt_ds, **kw)
    if ruleset == "rdf":
        return rdf_saturate(nt_ds, **kw)
    if ruleset == "rdfs":
        return rdfs_saturate_full(nt_ds, **kw)
    raise ValueError(f"unknown ruleset {ruleset!r} "
                     "(expected simple | rdf | rdfs)")
