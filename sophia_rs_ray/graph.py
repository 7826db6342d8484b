"""Distributed Graph / Dataset API over NT-text triple Datasets.

The reference exposes these as trait methods on `Graph` / `Dataset`
(`api/src/graph.rs`, `api/src/dataset.rs`); here each is a Dataset
transformation over rows of canonical-NT term text columns
(s, p, o[, g]) — `g == ''` means the default graph, mirroring
`GraphName = Option<T>` (`api/src/quad.rs:13-20`).

Matchers (`api/src/term/matcher.rs:49-61`): a position matcher is
  None            — Any
  str             — that exact canonical-NT term
  iterable of str — any of these terms
  callable        — Python predicate on the NT text (closure matchers)
Constant / set matchers compile to vectorized pyarrow kernels;
callables fall back to a per-row map (documented slow path).

Term-kind tests use the canonical NT text prefix, which is injective
over kinds: IRI `<`, bnode `_:`, literal `"`, variable `?`,
triple term `<<(`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

import pyarrow as pa
import pyarrow.compute as pc

from .functions.exchange import grouped

Matcher = Union[None, str, Iterable[str], Callable[[str], bool]]

_POSITIONS = ("s", "p", "o")


def _mask(col: pa.ChunkedArray, m: Matcher):
    if m is None:
        return None
    if isinstance(m, str):
        return pc.equal(col, pa.scalar(m))
    if callable(m):
        return pa.array([bool(m(x)) for x in col.to_pylist()], pa.bool_())
    values = list(m)
    return pc.is_in(col, value_set=pa.array(values, col.type))


def _combine(masks):
    out = None
    for mk in masks:
        if mk is None:
            continue
        out = mk if out is None else pc.and_(out, mk)
    return out


def triples_matching(ds, s: Matcher = None, p: Matcher = None,
                     o: Matcher = None, g: Matcher = None):
    """`Graph::triples_matching(sm, pm, om)` (api/src/graph.rs:160-174)
    as a filtered scan.  For constant-bound patterns over materialized
    sorted layouts use stages.materialize.pattern_scan, which prunes
    partitions (the distributed FastGraph 9-way dispatch)."""

    def body(b: pa.Table) -> pa.Table:
        masks = [_mask(b[c], m) for c, m in
                 (("s", s), ("p", p), ("o", o)) if c in b.column_names]
        if g is not None and "g" in b.column_names:
            masks.append(_mask(b["g"], g))
        mk = _combine(masks)
        return b if mk is None else b.filter(mk)

    return ds.map_batches(body, batch_format="pyarrow")


def remove_matching(ds, s: Matcher = None, p: Matcher = None,
                    o: Matcher = None):
    """`MutableGraph::remove_matching` (api/src/graph.rs:512-530):
    keep rows NOT matching the pattern (all-None removes everything)."""

    def body(b: pa.Table) -> pa.Table:
        mk = _combine([_mask(b[c], m) for c, m in
                       (("s", s), ("p", p), ("o", o))])
        if mk is None:
            return b.slice(0, 0)
        return b.filter(pc.invert(mk))

    return ds.map_batches(body, batch_format="pyarrow")


def retain_matching(ds, s: Matcher = None, p: Matcher = None,
                    o: Matcher = None):
    """`MutableGraph::retain_matching` (api/src/graph.rs:532-553)."""
    return triples_matching(ds, s, p, o)


def contains(ds, s: str, p: str, o: str) -> bool:
    """`Graph::contains` (api/src/graph.rs:177-187) — LIMIT-1 probe."""
    return len(triples_matching(ds, s, p, o).take(1)) > 0


# ---------------------------------------------------------------------------
# projections (api/src/graph.rs:193-312)
# ---------------------------------------------------------------------------

def _project(ds, col: str, out: str, distinct: bool):
    proj = ds.map_batches(
        lambda b: pa.table({out: pc.cast(b[col], pa.large_string())}),
        batch_format="pyarrow")
    return grouped(proj, [out]) if distinct else proj


def subjects(ds, distinct: bool = True):
    return _project(ds, "s", "term", distinct)


def predicates(ds, distinct: bool = True):
    return _project(ds, "p", "term", distinct)


def objects(ds, distinct: bool = True):
    return _project(ds, "o", "term", distinct)


def graph_names(ds, distinct: bool = True):
    """`Dataset::graph_names` — named graphs only (default graph has no
    name: api/src/dataset.rs:207-233)."""
    named = ds.map_batches(
        lambda b: pa.table({"term": pc.cast(b["g"], pa.large_string())})
        .filter(pc.not_equal(b["g"], pa.scalar(""))),
        batch_format="pyarrow")
    return grouped(named, ["term"]) if distinct else named


def _terms_of_kind(ds, prefix_ok: Callable[[str], bool], distinct: bool):
    def explode(b: pa.Table) -> pa.Table:
        vals = []
        for c in _POSITIONS:
            if c in b.column_names:
                vals.extend(x for x in b[c].to_pylist() if prefix_ok(x))
        if "g" in b.column_names:
            vals.extend(x for x in b["g"].to_pylist() if x and prefix_ok(x))
        return pa.table({"term": pa.array(vals, pa.large_string())})

    out = ds.map_batches(explode, batch_format="pyarrow")
    return grouped(out, ["term"]) if distinct else out


def iris(ds, distinct: bool = True):
    """All IRI terms in any position (api/src/graph.rs:249-265)."""
    return _terms_of_kind(
        ds, lambda x: x.startswith("<") and not x.startswith("<<("),
        distinct)


def blank_nodes(ds, distinct: bool = True):
    return _terms_of_kind(ds, lambda x: x.startswith("_:"), distinct)


def literals(ds, distinct: bool = True):
    return _terms_of_kind(ds, lambda x: x.startswith('"'), distinct)


def variables(ds, distinct: bool = True):
    return _terms_of_kind(ds, lambda x: x.startswith("?"), distinct)


def triple_terms(ds, distinct: bool = True):
    return _terms_of_kind(ds, lambda x: x.startswith("<<("), distinct)


# ---------------------------------------------------------------------------
# triple ↔ quad adapters (api/src/source/convert.rs; dataset adapters
# api/src/dataset.rs:349-376, api/src/graph/adapter.rs)
# ---------------------------------------------------------------------------

def to_quads(ds, graph_name: str = ""):
    """Triples → quads in the given graph ('' = default graph)."""

    def add_g(b: pa.Table) -> pa.Table:
        if "g" in b.column_names:
            return b
        return b.append_column(
            "g", pa.array([graph_name] * b.num_rows, pa.large_string()))

    return ds.map_batches(add_g, batch_format="pyarrow")


def graph(ds, name: str = ""):
    """One graph of a quad Dataset as a triple Dataset
    (`Dataset::graph(name)`; '' = default graph)."""

    def body(b: pa.Table) -> pa.Table:
        f = b.filter(pc.equal(b["g"], pa.scalar(name)))
        return f.drop_columns(["g"])

    return ds.map_batches(body, batch_format="pyarrow")


def union_graph(ds, dedup: bool = True):
    """All graphs flattened to triples (`Dataset::union_graph`,
    api/src/dataset.rs:349-376); dedup gives set semantics."""
    out = ds.map_batches(lambda b: b.drop_columns(["g"]),
                         batch_format="pyarrow")
    if dedup:
        from .stages.dedup import dedup_triples

        out = dedup_triples(out, carry_min=())
    return out
