"""Execute SPARQL query text over an NT triples Dataset.

The user-facing equivalent of the reference's
``SparqlWrapper(&dataset).query(text)`` (`api/src/sparql.rs:39-70`,
`sophia/examples/sparql.rs:13-52`): parse → algebra → Dataset DAG.

- ``select()``  → Dataset of bindings (one column per projected var)
- ``ask()``     → bool (LIMIT-1 probe, driver-side)
- ``construct()`` → Dataset of canonical-NT (s, p, o) rows built from
  the template; template bnodes get per-solution deterministic labels
  (hash of the binding row — reproducible, unlike the reference's
  UUID-suffixed labels, per SURVEY §7.0 determinism invariant).
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

import pyarrow as pa

from ..terms import KIND_BNODE, KIND_IRI, format_term
from .algebra import evaluate
from .expr import Var
from .parser import (
    AskQuery, ConstructQuery, DescribeQuery, SelectQuery, SparqlParseError,
    parse_query,
)

__all__ = ["select", "ask", "construct", "describe", "sparql"]


def _apply_dataset_clause(triples_ds, dataset):
    """FROM / FROM NAMED (SPARQL 1.1 §13.2) over a quad table: rows of
    the FROM graphs merge into the query's default graph (g → ''),
    rows of the FROM NAMED graphs stay named, everything else drops."""
    froms, named = dataset
    if not froms and not named:
        return triples_ds
    f_set, n_set = set(froms), set(named)

    def body(b: pa.Table) -> pa.Table:
        if "g" not in b.column_names:
            raise ValueError("FROM/FROM NAMED need a quad table (g column)")
        import pyarrow.compute as pc

        g = b["g"]
        keep_default = pc.is_in(g, value_set=pa.array(sorted(f_set),
                                                      g.type)) \
            if f_set else pa.array([False] * b.num_rows)
        keep_named = pc.is_in(g, value_set=pa.array(sorted(n_set),
                                                    g.type)) \
            if n_set else pa.array([False] * b.num_rows)
        dflt = b.filter(keep_default)
        gi = dflt.column_names.index("g")
        dflt = dflt.set_column(gi, "g", pa.array([""] * dflt.num_rows,
                                                 g.type))
        return pa.concat_tables([dflt, b.filter(keep_named)])

    return triples_ds.map_batches(body, batch_format="pyarrow")


def select(text: str, triples_ds, *, num_partitions: int = 8):
    q = parse_query(text)
    if not isinstance(q, SelectQuery):
        raise SparqlParseError("not a SELECT query")
    triples_ds = _apply_dataset_clause(triples_ds, q.dataset)
    out = evaluate(q.node, triples_ds, num_partitions=num_partitions,
                   named_graphs=tuple(q.dataset[1]) or None)

    def drop_internal(b: pa.Table) -> pa.Table:
        # SELECT * must not expose path chain vars (_path_N) or the
        # empty-group unit column (_unit) — but a zero-column Arrow
        # table cannot carry rows, so when _unit is the ONLY column the
        # solution rows keep it (empty solutions still count)
        drop = [c for c in b.column_names
                if c.startswith("_path_") or c == "_unit"]
        if len(drop) == len(b.column_names):
            drop = [c for c in drop if c != "_unit"]
        return b.drop_columns(drop) if drop else b

    return out.map_batches(drop_internal, batch_format="pyarrow")


def ask(text: str, triples_ds, *, num_partitions: int = 8) -> bool:
    q = parse_query(text)
    if not isinstance(q, AskQuery):
        raise SparqlParseError("not an ASK query")
    triples_ds = _apply_dataset_clause(triples_ds, q.dataset)
    out = evaluate(q.node, triples_ds, num_partitions=num_partitions,
                   named_graphs=tuple(q.dataset[1]) or None)
    # stream + early-exit rather than take(1): Ray 2.49's limit
    # push-down over a Union logical op trips a planner assertion
    # (plan_union_op children<2), and iter_batches stops execution as
    # soon as the first non-empty batch arrives anyway
    for b in out.iter_batches(batch_size=64, batch_format="pyarrow"):
        if b.num_rows:
            return True
    return False


def construct(text: str, triples_ds, *, num_partitions: int = 8):
    q = parse_query(text)
    if not isinstance(q, ConstructQuery):
        raise SparqlParseError("not a CONSTRUCT query")
    triples_ds = _apply_dataset_clause(triples_ds, q.dataset)
    bindings = evaluate(q.node, triples_ds,
                        num_partitions=num_partitions,
                        named_graphs=tuple(q.dataset[1]) or None)

    # pre-compile the template: each position is a fixed NT string, a
    # variable name, a bnode label to freshen per solution, or a
    # triple-term with variable parts
    def compile_item(t):
        if isinstance(t, Var):
            return ("var", t.name)
        if isinstance(t, tuple) and t and t[0] == "tt":
            return ("tt", [compile_item(x) for x in t[1]])
        if t[0] == KIND_BNODE:
            return ("bnode", t[1])
        return ("const", format_term(t))

    tmpl = [tuple(compile_item(t) for t in triple)
            for triple in q.template]

    def nt_kind(txt: str) -> str:
        if txt.startswith("<<("):
            return "triple"
        if txt.startswith("<"):
            return "iri"
        if txt.startswith("_:"):
            return "bnode"
        return "literal"

    def instantiate(b: pa.Table) -> pa.Table:
        cols = {c: b[c].to_pylist() for c in b.column_names}
        n = b.num_rows
        s_out: List[str] = []
        p_out: List[str] = []
        o_out: List[str] = []
        for i in range(n):
            # deterministic per-solution bnode scope: hash the binding row
            key = None

            def resolve(item):
                nonlocal key
                kind, val = item
                if kind == "const":
                    return val
                if kind == "var":
                    return cols.get(val, [None] * n)[i]
                if kind == "tt":
                    parts = [resolve(x) for x in val]
                    if any(p_ is None for p_ in parts):
                        return None
                    # generalized triple terms are dropped: inner
                    # subject must be IRI/bnode, inner predicate an IRI
                    # (test.rs test_construct "filter generalized")
                    if nt_kind(parts[0]) not in ("iri", "bnode") \
                            or nt_kind(parts[1]) != "iri":
                        return None
                    return f"<<( {parts[0]} {parts[1]} {parts[2]} )>>"
                # bnode — freshen per solution
                if key is None:
                    key = zlib.crc32("\x1f".join(
                        str(cols[c][i]) for c in sorted(cols)
                    ).encode())
                return f"_:{val}_{key:08x}"

            for row in tmpl:
                vals = [resolve(item) for item in row]
                if any(v is None for v in vals):
                    continue
                # only valid RDF triples are emitted: IRI/bnode
                # subject, IRI predicate (generalized ones dropped)
                if nt_kind(vals[0]) not in ("iri", "bnode") \
                        or nt_kind(vals[1]) != "iri":
                    continue
                s_out.append(vals[0])
                p_out.append(vals[1])
                o_out.append(vals[2])
        return pa.table({"s": pa.array(s_out, pa.large_string()),
                         "p": pa.array(p_out, pa.large_string()),
                         "o": pa.array(o_out, pa.large_string())})

    out = bindings.map_batches(instantiate, batch_format="pyarrow")
    from ..stages.dedup import dedup_triples
    return dedup_triples(out, carry_min=())


def describe(text: str, triples_ds, *, num_partitions: int = 8):
    """DESCRIBE as the reference computes it: a SYMMETRIC bounded
    description (resource/src/resource/_struct.rs:232-383 semantics;
    test.rs test_describe) — all triples where a described resource is
    subject OR object, closed over (a) blank nodes reached in either
    position, (b) blank nodes inside included triple TERMS, and (c)
    reifications: once a triple is included, triples about its triple
    term (e.g. ``?r rdf:reifies <<(t)>>``) join too; bnode reifiers
    keep the closure going, named ones stop it.

    Each round is one distributed scan with the (small) frontier and
    included-term sets broadcast; the matched triples — the description
    itself, bounded by construction — come back to the driver, which
    seeds the next round (same driver-fixpoint shape as the reasoner)."""
    import ray.data as rd

    q = parse_query(text)
    if not isinstance(q, DescribeQuery):
        raise SparqlParseError("not a DESCRIBE query")
    triples_ds = _apply_dataset_clause(triples_ds, q.dataset)
    resources = {format_term(t) for t in q.terms}
    if q.node is not None and q.vars:
        # materialized: the schema probe below must not run (and then
        # cancel) the plan that take_all() runs again
        bindings = evaluate(q.node, triples_ds,
                            num_partitions=num_partitions).materialize()
        cols = [v for v in q.vars if v in bindings.schema().names]
        for r in bindings.select_columns(cols).take_all():
            for v in cols:
                if r[v] is not None:
                    resources.add(r[v])

    from ..ntriples import parse_term_text
    from .expr import _triple_parts

    def tt_bnodes(txt: str):
        try:
            t = parse_term_text(txt)
        except ValueError:
            return []
        parts = _triple_parts(t)
        return [format_term(p) for p in (parts or [])
                if p[0] == 0]  # KIND_BNODE

    included: dict = {}     # (s, p, o) -> True, insertion-ordered
    to_scan = set(resources)
    scanned: set = set()

    while to_scan:
        fr = frozenset(to_scan)
        scanned |= to_scan
        to_scan = set()

        def match(b):
            import pyarrow as _pa
            import pyarrow.compute as _pc

            vs = _pa.array(sorted(fr), b["s"].type)
            m = _pc.or_(_pc.is_in(b["s"], value_set=vs),
                        _pc.is_in(b["o"], value_set=vs))
            if "g" in b.column_names:
                # null g is tolerated as the default graph, same as
                # _scan/_scan_neg/_graph_terms
                g = b["g"]
                m = _pc.and_(m, _pc.or_kleene(
                    _pc.equal(g, _pa.scalar("")), _pc.is_null(g)))
            return b.filter(m).select(["s", "p", "o"])

        got = triples_ds.map_batches(match,
                                     batch_format="pyarrow").take_all()
        for r in got:
            key = (r["s"], r["p"], r["o"])
            if key in included:
                continue
            included[key] = True
            # the included triple's term joins the scan set (reified
            # statements about it belong to the description)
            cands = [f"<<( {r['s']} {r['p']} {r['o']} )>>"]
            for txt in (r["s"], r["o"]):
                if txt.startswith("_:"):
                    cands.append(txt)
                elif txt.startswith("<<("):
                    cands.extend(tt_bnodes(txt))
            for c in cands:
                if c not in scanned:
                    to_scan.add(c)

    cols = {"s": [], "p": [], "o": []}
    for (s, p, o) in included:
        cols["s"].append(s)
        cols["p"].append(p)
        cols["o"].append(o)
    import pyarrow as pa_

    return rd.from_arrow(pa_.table(
        {k: pa_.array(v, pa_.large_string()) for k, v in cols.items()}))


def sparql(text: str, triples_ds, *, num_partitions: int = 8):
    """Dispatch on query form (SELECT → Dataset, ASK → bool,
    CONSTRUCT/DESCRIBE → triples Dataset)."""
    q = parse_query(text)
    if isinstance(q, SelectQuery):
        return select(text, triples_ds, num_partitions=num_partitions)
    if isinstance(q, AskQuery):
        return ask(text, triples_ds, num_partitions=num_partitions)
    if isinstance(q, DescribeQuery):
        return describe(text, triples_ds, num_partitions=num_partitions)
    return construct(text, triples_ds, num_partitions=num_partitions)
