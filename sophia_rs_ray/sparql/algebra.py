"""SPARQL algebra nodes → Ray Data operator DAGs.

The reference compiles a spargebra tree into nested lazy iterators over
FastDataset index scans (``sparql/src/exec.rs:125-181``).  Here the same
algebra compiles bottom-up into Dataset transformations (SURVEY §2.5-2.7
mapping table):

    BGP          pattern scans (filtered map_batches) + chained hash
                 joins on shared variables          (exec.rs:484-518)
    LeftJoin     left_outer join                    (exec.rs:520-551)
    Minus        anti join via marker               (exec.rs:754-790)
    Union        aligned union (bag)                (exec.rs:627-650)
    Filter/Extend expression map_batches            (expression.rs)
    Distinct     full-row dedup shuffle             (exec.rs:553-573)
    OrderBy      sort on encoded term-order key     (exec.rs:826-893)
    Slice        LIMIT/OFFSET                       (exec.rs:916-941)
    Group        groupby + aggregate state machine  (aggregate_iter.rs)
    PathPattern  property paths; p+ / p* closures through
                 functions.components.transitive_closure
                                                    (exec.rs:274-482)

Bindings = Dataset with one large_string column per variable (canonical
NT text; null = unbound).  Algebra nodes are the spargebra-equivalent
IR: ``sparql/parser.py`` compiles query text into them (the reference
delegates that step to the external spargebra crate), and callers may
also build them programmatically.

Scale notes: every join/groupby/sort below is an explicit shuffle whose
key is the shared-variable tuple; pattern scans push constant positions
into Arrow filters (and can be served by the materialized shard layouts
via stages/materialize.triples_matching for bound leading terms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union as U

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.components import transitive_closure
from ..terms import XSD, XSD_DOUBLE, XSD_INTEGER, Term, format_term
from ..util import safe_join
from .expr import (Const, Expr, FnCall, Var, _fmt_decimal, _fmt_double,
                   _order_key, _parse, ebv,
                   eval_expr_batch, order_key_batch, value_of)

TermOrVar = U[Term, Var]


@dataclass
class BGP:
    patterns: Sequence[Tuple[TermOrVar, TermOrVar, TermOrVar]]


@dataclass
class Join:
    left: "Node"
    right: "Node"


@dataclass
class LeftJoin:
    left: "Node"
    right: "Node"
    # NB: an OPTIONAL-internal FILTER expression guard is not supported;
    # apply Filter inside `right` when it only references right-side vars.


@dataclass
class Union:
    left: "Node"
    right: "Node"


@dataclass
class Minus:
    left: "Node"
    right: "Node"


@dataclass
class Filter:
    expr: Expr
    child: "Node"


@dataclass
class Extend:
    var: str
    expr: Expr
    child: "Node"


@dataclass
class Project:
    vars: Sequence[str]
    child: "Node"


@dataclass
class Distinct:
    child: "Node"


@dataclass
class Reduced:
    """SELECT REDUCED — eliminates ADJACENT duplicate solutions only
    (exec.rs:575-595), block-locally: a streaming dedup with no
    shuffle, unlike Distinct's exchange.  Spec-legal (REDUCED may drop
    any subset of duplicates) and matches the reference's cardinality
    on sorted inputs."""
    child: "Node"


@dataclass
class OrderBy:
    keys: Sequence[Tuple[Expr, bool]]  # (expr, ascending)
    child: "Node"


@dataclass
class Slice:
    child: "Node"
    offset: int = 0
    limit: Optional[int] = None


@dataclass
class Agg:
    """COUNT/SUM/AVG/MIN/MAX/GROUP_CONCAT/SAMPLE over an expression
    (None = COUNT(*)) — reference aggregate_iter.rs:80-190."""
    fn: str
    expr: Optional[Expr] = None
    alias: str = "agg"
    distinct: bool = False
    separator: str = " "


@dataclass
class Group:
    group_vars: Sequence[str]
    aggs: Sequence[Agg]
    child: "Node"


@dataclass
class PathPattern:
    """General property-path pattern ``subject path object`` — negated
    property sets ``!(p|^q)`` and ``+``/``*``/``?`` closures over
    arbitrary sub-paths with free endpoints (reference
    ``sparql/src/exec.rs:274-482`` + ``exec/path_or_more.rs``).

    The path AST is the parser's: ("term", Term) | ("inv", p) |
    ("seq", [p…]) | ("alt", [p…]) | ("plus", p) | ("star", p) |
    ("opt", p) | ("neg", fwd_iris, inv_iris).

    Closures run through ``functions.components.transitive_closure``:
    one driver reach at or under the broadcast gate, else distributed
    semi-naive rounds of join + exchange-dedup."""
    subject: TermOrVar
    path: tuple
    object: TermOrVar
    max_rounds: int = 64


@dataclass
class Exists:
    """Semi-join: keep left rows with ≥1 compatible right row — the
    EXISTS expression probe (sparql/src/expression.rs:60)."""
    left: "Node"
    right: "Node"
    negated: bool = False


@dataclass
class InlineData:
    """VALUES — inline binding table.  Single-var form: ``var`` +
    ``rows`` of Terms.  Multi-var form: ``var`` is a list of names and
    ``rows`` holds same-length tuples (None = UNDEF)."""
    var: U[str, Sequence[str]]
    rows: Sequence


@dataclass
class Service:
    """SERVICE (SILENT)? <endpoint> { … } — federation probe
    (sparql/src/exec.rs SERVICE via ``sparql_client/src/lib.rs:58-98``).

    The child group is forwarded VERBATIM (token-reconstructed) as
    ``SELECT * WHERE { … }`` to a pluggable resolver —
    ``set_service_resolver(fn)`` with ``fn(endpoint_iri, query_text)
    -> results-document str`` (JSON/XML/TSV auto-detected, parsed by
    ``sparql.results``).  No network stack ships with this engine; the
    resolver IS the transport (tests inject a local one, a deployment
    would plug an HTTP client).  The fetch is one driver-side call per
    SERVICE clause — same blocking-client shape as the reference — and
    the returned bindings join distributed like any other operand.

    ``silent``: on resolver failure the clause evaluates to one
    all-null solution over ``vars`` (spec: the empty solution mapping),
    which the compatible-mapping join treats as identity."""
    endpoint: Term
    query_text: str
    vars: Tuple[str, ...]
    silent: bool = False


_SERVICE_RESOLVER = None


def set_service_resolver(fn) -> None:
    """Register the SERVICE transport: ``fn(endpoint_iri, query_text)
    -> str`` (a SPARQL results document).  Pass None to clear."""
    global _SERVICE_RESOLVER
    _SERVICE_RESOLVER = fn


@dataclass
class TripleTermPattern:
    """SPARQL 1.2 triple-term pattern with variables inside the term
    (``<<( ?s ?p ?o )>>`` in a subject/object position): ``var`` is the
    fresh variable standing for the whole term in the surrounding
    pattern; once the child binds it, each row's term text is
    destructured and unified against ``parts`` (3 × Var | constant
    Term) — binding fresh component variables, checking already-bound
    ones, dropping rows that are not triple terms (exec.rs triple-term
    matching; test.rs ppath reified cases)."""
    child: "Node"
    var: str
    parts: Sequence


@dataclass
class GraphPattern:
    """GRAPH ?g { … } / GRAPH <iri> { … } (exec.rs:652-707).

    Dataset semantics over a quad table (g column, '' = default graph):
    plain BGPs match ONLY the default graph; GraphPattern scopes its
    child to one named graph (constant) or iterates all named graphs
    binding the name (variable — threaded through every scan as an
    extra binding column so joins unify on it)."""
    name: U["Var", Term]
    child: "Node"


Node = U[BGP, Join, LeftJoin, Union, Minus, Filter, Extend, Project,
         Distinct, OrderBy, Slice, Group, PathPattern, Exists, InlineData,
         GraphPattern, Service, TripleTermPattern]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _cols_of(ds) -> List[str]:
    sch = ds.schema()
    return [] if sch is None else list(sch.names)


def _with_vars(ds):
    """``(ds.materialize(), its binding variables)``.  ``schema()`` on a
    lazy plan runs it only up to its first block and then cancels the
    tasks still running; the caller then runs the whole plan again.
    Materializing first runs it once, and never interrupts a task
    (a worker interrupted mid-task can leave its next task hanging)."""
    ds = ds.materialize()
    sch = ds.schema()
    if sch is None:  # Ray loses the schema of empty datasets
        return ds, []
    return ds, [c for c in sch.names if not c.startswith("__")]


def _empty_bindings(names: Sequence[str]):
    """1-block empty bindings table — every bindings column is a string
    (module invariant), so a lost schema is reconstructible by name."""
    import ray.data as rd

    return rd.from_arrow(pa.table(
        {c: pa.array([], pa.string()) for c in names}))


def _shared_has_nulls(ds, cols) -> bool:
    """Any null (unbound) value in the given binding columns?  Cheap
    block scan over a materialized Dataset (reads Arrow null counts)."""
    if not cols:
        return False

    def cnt(b: pa.Table) -> pa.Table:
        n = sum(b[c].null_count for c in cols if c in b.column_names)
        return pa.table({"__n": pa.array([n], pa.int64())})

    tot = ds.map_batches(cnt, batch_format="pyarrow").sum("__n")
    return bool(tot)


def _join_bindings(a, b, how: str, num_partitions: int, on):
    """Join two bindings Datasets with SPARQL compatible-mapping
    semantics and the empty-side handling Ray's join operator lacks (a
    side with NO non-empty blocks never broadcasts its schema, so the
    hash-shuffle aggregators crash — see util.safe_join).

    SPARQL compatibility (exec.rs join semantics): a shared variable
    that is UNBOUND (null) on one side is compatible with any binding
    on the other side, and the merged row takes the bound value.  SQL
    joins drop such rows.  Fast path: when neither side has nulls in
    the shared columns (the overwhelmingly common case — nulls only
    arise from UNION alignment, OPTIONAL padding, VALUES UNDEF and
    errored BINDs), the plain hash join IS compatible-mapping join.
    Otherwise dispatch to the bound-mask pair enumeration of
    ``_compat_join_general``.

    Bindings semantics let us short-circuit: inner/empty ⇒ empty;
    left_outer with empty right ⇒ left + null columns.  Inputs and
    output are materialized (joins are barriers; this also serializes
    nested joins, avoiding actor-pool deadlock)."""
    a, b = a.materialize(), b.materialize()
    an, bn = _cols_of(a), _cols_of(b)
    union = list(dict.fromkeys(an + bn))
    if a.count() == 0:
        return _empty_bindings(union)
    if b.count() == 0:
        if how == "left_outer":
            extra = [c for c in bn if c not in an]

            def pad(t: pa.Table) -> pa.Table:
                for c in extra:
                    t = t.append_column(
                        c, pa.array([None] * t.num_rows, pa.string()))
                return t

            return a.map_batches(pad, batch_format="pyarrow")
        return _empty_bindings(union)
    shared = list(on)
    if _shared_has_nulls(a, shared) or _shared_has_nulls(b, shared):
        return _compat_join_general(a, b, how, num_partitions, shared)
    out = safe_join(a, b, how, num_partitions, on=tuple(on)).materialize()
    if out.schema() is None:  # empty join result lost its schema
        return _empty_bindings(union)
    return out


# ---------------------------------------------------------------------------
# compatible-mapping join over partially-bound rows (mask enumeration)
# ---------------------------------------------------------------------------

def _bound_masks(ds, shared) -> List[Tuple[bool, ...]]:
    """Distinct is-bound masks of the shared columns (tiny result: one
    mask per upstream UNION/OPTIONAL branch in practice)."""
    import numpy as np

    from ..functions.exchange import _iter_block_refs, map_partitions

    def mb(b: pa.Table) -> set:
        if b.num_rows == 0:
            return set()
        flags = np.stack(
            [pc.is_valid(b[c]).to_numpy(zero_copy_only=False)
             if c in b.column_names else np.zeros(b.num_rows, dtype=bool)
             for c in shared], axis=1)
        return set(map(tuple, np.unique(flags, axis=0).tolist()))

    return sorted(set().union(
        *map_partitions(list(_iter_block_refs(ds)), mb)))


def _filter_mask(ds, shared, mask):
    """Rows whose shared-column boundness equals ``mask``; drops the
    all-null shared columns so pair joins never collide on names."""
    drop = [c for c, bnd in zip(shared, mask) if not bnd]

    def body(b: pa.Table) -> pa.Table:
        cond = None
        for c, bnd in zip(shared, mask):
            if c in b.column_names:
                m = pc.is_valid(b[c]) if bnd else pc.is_null(b[c])
            else:
                m = pa.array([not bnd] * b.num_rows, pa.bool_())
            cond = m if cond is None else pc.and_(cond, m)
        if cond is not None:
            b = b.filter(cond)
        return b.drop_columns([c for c in drop if c in b.column_names])

    return ds.map_batches(body, batch_format="pyarrow")


def _align_columns(ds, cols, keep=("__lid",)):
    """Project/pad to exactly ``cols`` (missing → null string column);
    ``keep`` columns pass through unchanged (preserving their type)."""
    def body(b: pa.Table) -> pa.Table:
        out = {}
        for c in cols:
            out[c] = pc.cast(b[c], pa.string()) if c in b.column_names \
                else pa.array([None] * b.num_rows, pa.string())
        for c in keep:
            if c in b.column_names and c not in out:
                out[c] = b[c]
        return pa.table(out)

    return ds.map_batches(body, batch_format="pyarrow")


def _with_row_ids(mat_ds, col="__lid"):
    """Append a globally-unique int64 row id (block offset + row index)
    without leaving the cluster: per-block counts are fetched as tiny
    objects, ids are added block-parallel."""
    import numpy as np
    import ray
    import ray.data as rd

    refs = mat_ds.to_arrow_refs()
    if not refs:
        return mat_ds

    nrows = ray.get([_nrows_task.remote(r) for r in refs])
    offs = np.concatenate([[0], np.cumsum(nrows)])
    out = [_add_id_task.remote(r, int(o), col)
           for r, o in zip(refs, offs)]
    return rd.from_arrow_refs(out)


import ray as _ray  # noqa: E402  (module-level task defs for _with_row_ids)


@_ray.remote
def _nrows_task(t: pa.Table) -> int:
    return t.num_rows


@_ray.remote
def _add_id_task(t: pa.Table, off: int, col: str) -> pa.Table:
    return t.append_column(
        col, pa.array(range(off, off + t.num_rows), pa.int64()))


_CROSS_SIDE_LIMIT = 100_000


def _small_cross(a, b_mat):
    """Cross product with a driver-pulled small right side (only used
    for empty-key mask pairs, which arise from degenerate UNION
    shapes; capped to keep the driver out of the data path)."""
    from ..functions.broadcast import gated_gather

    bt = gated_gather(b_mat, _CROSS_SIDE_LIMIT)
    if bt is None:
        raise ValueError(
            "compatible-mapping join degenerated to a cross product over "
            f">{_CROSS_SIDE_LIMIT} rows — rewrite the query")
    bt = _norm_cols(bt)

    def cross(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or bt.num_rows == 0:
            cols = {c: pa.array([], pa.string())
                    for c in list(batch.column_names) + list(bt.column_names)}
            return pa.table(cols)
        left = batch.take(pa.array([i for i in range(batch.num_rows)
                                    for _ in range(bt.num_rows)]))
        right = pa.concat_tables([bt] * batch.num_rows)
        for name in right.column_names:
            left = left.append_column(name, right[name])
        return left

    return a.map_batches(cross, batch_format="pyarrow")


def _compat_join_general(a, b, how: str, num_partitions: int, shared,
                         *, require_overlap: bool = False):
    """Compatible-mapping join when shared columns contain unbound
    (null) values: enumerate the distinct (left-mask, right-mask)
    boundness pairs — each row belongs to exactly ONE mask, so each
    compatible row pair is produced exactly once (bag semantics) — and
    join every pair on the variables bound on BOTH sides, merging the
    one-sided columns by union alignment.

    ``how``: inner | left_outer | left_semi | left_anti.
    ``require_overlap`` (MINUS semantics): a pair whose both-bound key
    set is empty does not relate any rows."""
    import ray.data as rd

    an, bn = _cols_of(a), _cols_of(b)
    union_cols = list(dict.fromkeys(an + bn))
    lmasks = _bound_masks(a, shared)
    rmasks = _bound_masks(b, shared)
    semi = how in ("left_semi", "left_anti")
    a_id = _with_row_ids(a).materialize()

    pieces = []          # inner-match results (aligned), carrying __lid
    for lm in lmasks:
        la = _filter_mask(a_id, shared, lm).materialize()
        if la.count() == 0:
            continue
        for rm in rmasks:
            key = [c for c, lb, rb in zip(shared, lm, rm) if lb and rb]
            if not key and require_overlap:
                continue
            rb_ds = _filter_mask(b, shared, rm).materialize()
            if rb_ds.count() == 0:
                continue
            if not key:
                if semi:
                    # unconditional compatibility: every la row matches
                    piece = la.select_columns(["__lid"])
                    pieces.append(piece)
                    continue
                piece = _small_cross(la, rb_ds)
            else:
                piece = safe_join(la, rb_ds, "inner", num_partitions,
                                  on=tuple(key)).materialize()
                if piece.schema() is None:
                    continue
            pieces.append(piece.select_columns(["__lid"]) if semi
                          else _align_columns(piece, union_cols))

    if semi:
        matched = pieces[0].union(*pieces[1:]) if len(pieces) > 1 else \
            (pieces[0] if pieces else None)
        anti = how == "left_anti"
        if matched is None or matched.count() == 0:
            return a if anti else _empty_bindings(an)
        marker = _distinct_on(matched, ["__lid"], num_partitions)
        marker = marker.map_batches(
            lambda t: t.append_column(
                "__m", pa.array([1] * t.num_rows, pa.int64())),
            batch_format="pyarrow")
        joined = safe_join(a_id, marker, "left_outer", num_partitions,
                           on=("__lid",))
        pred = pc.is_null if anti else pc.is_valid
        return joined.map_batches(
            lambda t: t.filter(pred(t["__m"]))
            .drop_columns([c for c in ("__m", "__lid")
                           if c in t.column_names]),
            batch_format="pyarrow")

    inner = pieces[0].union(*pieces[1:]) if len(pieces) > 1 else \
        (pieces[0] if pieces else _empty_bindings(union_cols))
    if how == "inner":
        return inner.map_batches(
            lambda t: t.drop_columns(
                [c for c in ("__lid",) if c in t.column_names]),
            batch_format="pyarrow")

    # left_outer: add unmatched left rows padded with nulls
    if not pieces:
        return _align_columns(a, union_cols, keep=())
    inner = inner.materialize()
    if inner.count() == 0:
        return _align_columns(a, union_cols, keep=())
    matched = inner.select_columns(["__lid"])
    marker = _distinct_on(matched, ["__lid"], num_partitions)
    marker = marker.map_batches(
        lambda t: t.append_column(
            "__m", pa.array([1] * t.num_rows, pa.int64())),
        batch_format="pyarrow")
    la_all = safe_join(a_id, marker, "left_outer", num_partitions,
                       on=("__lid",))
    unmatched = la_all.map_batches(
        lambda t: t.filter(pc.is_null(t["__m"]))
        .drop_columns([c for c in ("__m",) if c in t.column_names]),
        batch_format="pyarrow")
    unmatched = _align_columns(unmatched, union_cols)
    both = inner.union(unmatched)
    return both.map_batches(
        lambda t: t.drop_columns(
            [c for c in ("__lid",) if c in t.column_names]),
        batch_format="pyarrow")


def _norm_cols(b: pa.Table) -> pa.Table:
    """Pin binding columns to plain string for join-key compatibility."""
    for i, c in enumerate(b.column_names):
        if pa.types.is_large_string(b.schema.field(i).type):
            b = b.set_column(i, c, pc.cast(b[c], pa.string()))
    return b


def _scan(triples_ds, pattern, graph_var: Optional[str] = None
          ) -> "ray.data.Dataset":
    """One triple pattern → bindings: constant positions filter, variable
    positions project+rename; repeated variables add equality filters.

    Quad-table semantics: with a ``g`` column present, plain scans match
    only the default graph (``g == ''``); with ``graph_var`` set, scans
    match only NAMED graphs and emit the graph name as that variable."""
    pos_cols = ("s", "p", "o")
    consts: List[Tuple[str, str]] = []
    var_pos: Dict[str, List[str]] = {}
    for col, item in zip(pos_cols, pattern):
        if isinstance(item, Var):
            var_pos.setdefault(item.name, []).append(col)
        else:
            consts.append((col, format_term(item)))

    def body(b: pa.Table) -> pa.Table:
        mask = None
        for col, txt in consts:
            m = pc.equal(b[col], pa.scalar(txt))
            mask = m if mask is None else pc.and_(mask, m)
        for name, cols in var_pos.items():
            for extra in cols[1:]:
                m = pc.equal(b[cols[0]], b[extra])
                mask = m if mask is None else pc.and_(mask, m)
        if "g" in b.column_names:
            if graph_var is None:
                # null g ≡ '' ≡ default graph (tolerate either encoding)
                m = pc.or_kleene(pc.equal(b["g"], pa.scalar("")),
                                 pc.is_null(b["g"]))
            else:
                m = pc.not_equal(b["g"], pa.scalar(""))
                if graph_var in var_pos:  # GRAPH ?g { ?g … }
                    m = pc.and_(m, pc.equal(
                        b["g"], b[var_pos[graph_var][0]]))
            mask = m if mask is None else pc.and_(mask, m)
        if mask is not None:
            b = b.filter(mask)
        out = {name: pc.cast(b[cols[0]], pa.string())
               for name, cols in var_pos.items()}
        if graph_var is not None and graph_var not in out \
                and "g" in b.column_names:
            out[graph_var] = pc.cast(b["g"], pa.string())
        if not out:  # all-constant pattern: emit a marker row per match
            return pa.table({"__match": pa.array([1] * b.num_rows, pa.int64())})
        return pa.table(out)

    if hasattr(triples_ds, "scan"):
        # MaterializedGraph backend: constant positions prune to one
        # shard + pushed-down parquet filter before the scan body runs
        kw = dict(consts)
        src = triples_ds.scan(**{k: v for k, v in kw.items()
                                 if k in ("s", "p", "o")})
        return src.map_batches(body, batch_format="pyarrow")
    return triples_ds.map_batches(body, batch_format="pyarrow")


def _eval_order_by(node: "OrderBy", child, *, limit: Optional[int]):
    """Sort bindings on order-preserving encoded keys; with ``limit``,
    each block is pruned to its local top-``limit`` first."""
    keys = list(node.keys)

    def add_keys(b: pa.Table) -> pa.Table:
        cols = {c: b[c].to_pylist() for c in b.column_names}
        for i, (e, _asc) in enumerate(keys):
            kb = order_key_batch(e, cols, b.num_rows)
            b = b.append_column(f"__o{i}",
                                pa.array([k.hex() for k in kb], pa.string()))
        return b

    sort_cols = [f"__o{i}" for i in range(len(keys))]
    desc = [not asc for (_e, asc) in keys]
    keyed = child.map_batches(add_keys, batch_format="pyarrow")
    if limit is not None:
        order = [(c, "descending" if d else "ascending")
                 for c, d in zip(sort_cols, desc)]

        def local(b: pa.Table) -> pa.Table:
            if b.num_rows <= limit:
                return b
            return b.sort_by(order).slice(0, limit)

        keyed = keyed.map_batches(local, batch_format="pyarrow")
    out = keyed.sort(sort_cols, descending=desc)
    return out.map_batches(lambda b: b.drop_columns(sort_cols),
                           batch_format="pyarrow")


def _cross_or_join(a, b, *, how: str = "inner", num_partitions: int = 8):
    """Hash join on shared vars; no shared vars → small-side cross
    product (only sensible when one side is tiny, e.g. a VALUES row)."""
    (a, av), (b, bv) = _with_vars(a), _with_vars(b)
    shared = sorted(set(av) & set(bv))
    if shared:
        return _join_bindings(a, b, how, num_partitions, tuple(shared))
    from ..functions.broadcast import gated_gather

    bt = gated_gather(b, _CROSS_SIDE_LIMIT)
    if bt is None:
        raise ValueError(
            "join with no shared variables degenerated to a cross product "
            f"over >{_CROSS_SIDE_LIMIT} rows — rewrite the query")
    bt = _norm_cols(bt)

    def cross(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or bt.num_rows == 0:
            cols = {c: pa.array([], pa.string()) for c in
                    list(batch.column_names) + list(bt.column_names)}
            return pa.table(cols)
        left = batch.take(pa.array([i for i in range(batch.num_rows)
                                    for _ in range(bt.num_rows)]))
        right = pa.concat_tables([bt] * batch.num_rows)
        for name in right.column_names:
            left = left.append_column(name, right[name])
        return left

    return a.map_batches(cross, batch_format="pyarrow")


def _expr_batch_eval(e: Expr, b: pa.Table) -> List[Optional[str]]:
    cols = {c: b[c].to_pylist() for c in b.column_names
            if not c.startswith("__")}
    return eval_expr_batch(e, cols, b.num_rows)


def _row_key_array(b: pa.Table, cols) -> pa.Array:
    """Vectorized null-safe row key: per column ``coalesce(text, \\x00)``
    joined with \\x1e — both separators are impossible in canonical NT
    text (control chars are escaped), so the key is injective."""
    parts = []
    for c in cols:
        col = pc.cast(b[c], pa.string()) if c in b.column_names else \
            pa.nulls(b.num_rows, pa.string())
        parts.append(pc.coalesce(col, pa.scalar("\x00")))
    if len(parts) == 1:
        return parts[0]
    return pc.binary_join_element_wise(*parts, pa.scalar("\x1e"))


def _first_per_key(b: pa.Table, keycol: str) -> pa.Table:
    """Keep the first row per distinct key (vectorized np.unique)."""
    import numpy as np

    if b.num_rows == 0:
        return b
    k = b[keycol].to_numpy(zero_copy_only=False)
    _, idx = np.unique(k, return_index=True)
    idx.sort()
    return b.take(pa.array(idx))


def _distinct_on(ds, cols, num_partitions: int = 8):
    """Exact distinct of a Dataset on ``cols`` via the two-stage hash
    exchange (per-block combiner first — a hub key contributes at most
    one row per block to the shuffle), replacing the measured-slow
    Ray sort-groupby + per-row-Python path (VERDICT r1 item 3)."""
    from ..functions.exchange import hash_aggregate

    def combine(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b.append_column("__k", pa.array([], pa.string()))
        b = b.append_column("__k", _row_key_array(b, cols))
        return _first_per_key(b, "__k")

    def finalize(t: pa.Table) -> pa.Table:
        return _first_per_key(t, "__k").drop_columns(["__k"])

    return hash_aggregate(ds, ["__k"], combine, finalize,
                          num_partitions=num_partitions)


def _distinct(ds, num_partitions: int = 8):
    """Exact distinct over all binding columns."""
    ds, cols = _with_vars(ds)
    if not cols:
        return ds.limit(1)
    return _distinct_on(ds, cols, num_partitions)


# ---------------------------------------------------------------------------
# vectorized FILTER fast paths (pyarrow.compute kernels)
# ---------------------------------------------------------------------------
#
# The expression evaluator is deliberately row-wise (expr.py docstring);
# the overwhelmingly common FILTER shapes — Var <op> constant-literal,
# possibly under && — get compiled to Arrow kernels instead (r1 VERDICT
# item 7).  Semantics preserved exactly: comparison errors (unbound,
# non-numeric operand against a numeric constant) DROP the row, matching
# SPARQL error propagation.

_NT_LIT_RE = (r'^"(?P<lex>.*)"'
              r'(?:\^\^<(?P<dt>[^>]*)>|@(?P<lang>[A-Za-z0-9-]+))?$')
_NUM_SYNTAX_RE = r"^[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?$"
_CMP_KERNELS = {
    "=": pc.equal, "!=": pc.not_equal, "<": pc.less,
    "<=": pc.less_equal, ">": pc.greater, ">=": pc.greater_equal,
}


def _numeric_values_arr(col):
    """NT-text column → (valid numeric bool mask, float64 values)."""
    col = pc.cast(col, pa.string())
    ext = pc.extract_regex(col, _NT_LIT_RE)
    matched = pc.is_valid(ext)
    lex = pc.struct_field(ext, "lex")
    dt = pc.struct_field(ext, "dt")
    num_dts = pa.array(sorted(
        XSD + d for d in ("integer", "decimal", "double", "float", "long",
                          "int", "short", "byte", "nonNegativeInteger",
                          "positiveInteger", "negativeInteger",
                          "nonPositiveInteger", "unsignedLong",
                          "unsignedInt", "unsignedShort", "unsignedByte")))
    dt_ok = pc.is_in(dt, value_set=num_dts)
    syn_ok = pc.match_substring_regex(
        pc.coalesce(lex, pa.scalar("")), _NUM_SYNTAX_RE)
    valid = pc.and_kleene(matched, pc.and_(
        pc.fill_null(dt_ok, False), syn_ok))
    valid = pc.fill_null(valid, False)
    vals = pc.cast(pc.if_else(valid, lex, pa.scalar(None, pa.string())),
                   pa.float64())
    return valid, vals


def _compile_fast_filter(e: Expr):
    """Expr → batch→bool-mask function using Arrow kernels, or None
    when the shape isn't supported (falls back to row-wise eval)."""
    if isinstance(e, FnCall) and e.fn == "&&" and len(e.args) == 2:
        fa = _compile_fast_filter(e.args[0])
        fb = _compile_fast_filter(e.args[1])
        if fa is None or fb is None:
            return None
        return lambda b: pc.and_(fa(b), fb(b))
    if not (isinstance(e, FnCall) and e.fn in _CMP_KERNELS
            and len(e.args) == 2):
        return None
    a, c = e.args
    if isinstance(c, Var) and isinstance(a, Const):
        flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}
        a, c = c, a
        e = FnCall(flip.get(e.fn, e.fn), a, c)
    if not (isinstance(a, Var) and isinstance(c, Const)):
        return None
    term = c.term
    op = e.fn
    kern = _CMP_KERNELS[op]
    name = a.name
    v = value_of(term) if term[0] == 2 else None
    if term[0] == 2 and v is not None and v[0] == "num":
        x = float(v[1])

        def num_mask(b: pa.Table):
            if name not in b.column_names:
                return pa.array([False] * b.num_rows)
            col = pc.cast(b[name], pa.string())
            valid, vals = _numeric_values_arr(col)
            cmpres = pc.fill_null(kern(vals, pa.scalar(x)), False)
            out = pc.and_(valid, cmpres)
            if op == "!=":
                # a non-literal term != a literal is plain term
                # inequality → always True (SPARQL = on mixed kinds)
                nonlit = pc.invert(pc.fill_null(pc.match_substring_regex(
                    pc.coalesce(col, pa.scalar("")), _NT_LIT_RE), False))
                nonlit = pc.and_(nonlit, pc.is_valid(col))
                out = pc.or_(out, nonlit)
            return out

        return num_mask
    if op == "=" and (term[0] != 2
                      or (v is not None and v[0] in ("str", "lang"))):
        # text equality is exact here: canonical NT is injective per
        # value for IRIs/bnodes/plain/lang strings, and every
        # cross-type pair either errors or is unequal → dropped on
        # both paths
        txt = format_term(term)

        def eq_mask(b: pa.Table):
            if name not in b.column_names:
                return pa.array([False] * b.num_rows)
            col = pc.cast(b[name], pa.string())
            return pc.fill_null(pc.equal(col, pa.scalar(txt)), False)

        return eq_mask
    if op == "!=" and term[0] != 2:
        # non-literal constant: SPARQL != against ANY term is plain
        # term inequality (no value spaces involved)
        txt = format_term(term)

        def ne_mask(b: pa.Table):
            if name not in b.column_names:
                return pa.array([False] * b.num_rows)
            col = pc.cast(b[name], pa.string())
            return pc.fill_null(pc.not_equal(col, pa.scalar(txt)), False)

        return ne_mask
    return None
#
# Replaces the r1 Ray Data group-walk path (VERDICT items 1-2): each
# block is collapsed to ≤1 partial state per distinct key BEFORE the
# shuffle, so hub group keys (rdf:type-style skew) cost O(blocks) rows,
# and the implicit single group never touches the driver.  States are
# JSON strings; double sums are exact Fractions (order-independent ⇒
# bit-deterministic results regardless of block boundaries).

def _agg_new(a: Agg) -> dict:
    fn = a.fn
    if a.distinct or fn == "GROUP_CONCAT":
        return {"vs": [], "e": False}
    if fn == "COUNT":
        return {"n": 0}
    if fn in ("SUM", "AVG"):
        return {"i": 0, "fr": None, "n": 0, "e": False, "r": 0}
    if fn in ("MIN", "MAX", "SAMPLE"):
        return {"m": None, "e": False}
    raise ValueError(f"unknown aggregate {fn}")


#: numeric promotion ranks for aggregate results (value/_number.rs:5-10)
_AGG_RANK = {XSD_INTEGER: 0, XSD + "decimal": 1, XSD + "float": 2,
             XSD_DOUBLE: 3}


def _num_fold(st: dict, val: Optional[str]):
    """Fold one NT-text value into a SUM/AVG state: exact Fraction
    accumulation + the max promotion rank seen (aggregate_iter.rs
    SUM/AVG promotion over the SparqlNumber tower)."""
    from fractions import Fraction

    t = _parse(val)
    if t is None:
        st["e"] = True
        return
    v = value_of(t)
    if v is None or v[0] != "num":
        st["e"] = True
        return
    x = v[1]
    st["n"] += 1
    st["r"] = max(st["r"], _AGG_RANK.get(t[2], 0) if t[0] == 2 else 0)
    if isinstance(x, int):
        st["i"] += x
    else:
        fr = Fraction(x) if x == x and abs(x) != math.inf else None
        if fr is None:
            st["e"] = True  # NaN/inf sums are errors downstream anyway
            return
        st["fr"] = fr if st["fr"] is None else st["fr"] + fr


def _agg_add(a: Agg, st: dict, val: Optional[str]):
    """One value into a partial state.  ``val is None`` means the
    aggregated expression ERRORED on that solution: COUNT and SAMPLE
    skip it, every other aggregate becomes an error
    (aggregate_iter.rs:80-190 — once an error, always an error)."""
    fn = a.fn
    if "vs" in st:
        if val is None:
            if a.expr is not None and fn not in ("COUNT", "SAMPLE"):
                st["e"] = True
        else:
            st["vs"].append(val)
        return
    if fn == "COUNT":
        if a.expr is None or val is not None:
            st["n"] += 1
        return
    if val is None:
        if fn != "SAMPLE":
            st["e"] = True
        return
    if fn in ("SUM", "AVG"):
        _num_fold(st, val)
        return
    if fn == "SAMPLE":
        st["m"] = val if st["m"] is None else min(st["m"], val)
        return
    # MIN/MAX by the SPARQL ORDER BY comparator (value-aware: numbers
    # numerically, dateTimes by instant — the reference folds through
    # sparql_order_by, aggregate_iter.rs:276-308)
    t = _parse(val)
    if t is None:
        st["e"] = True
        return
    if st["m"] is None:
        st["m"] = val
        return
    cur = _parse(st["m"])
    better = _order_key(t) < _order_key(cur) if fn == "MIN" \
        else _order_key(t) > _order_key(cur)
    if better:
        st["m"] = val


def _agg_ser(st: dict) -> str:
    import json

    if st.get("fr") is not None:
        st = dict(st, fr=[st["fr"].numerator, st["fr"].denominator])
    return json.dumps(st)


def _agg_merge(a: Agg, st: dict, other_json: str):
    import json
    from fractions import Fraction

    o = json.loads(other_json)
    if "vs" in st:
        st["vs"].extend(o["vs"])
        st["e"] = st["e"] or o.get("e", False)
        return
    if a.fn == "COUNT":
        st["n"] += o["n"]
        return
    if a.fn in ("SUM", "AVG"):
        st["i"] += o["i"]
        st["n"] += o["n"]
        st["e"] = st["e"] or o["e"]
        st["r"] = max(st["r"], o.get("r", 0))
        if o.get("fr") is not None:
            fr = Fraction(o["fr"][0], o["fr"][1])
            st["fr"] = fr if st["fr"] is None else st["fr"] + fr
        return
    st["e"] = st["e"] or o.get("e", False)
    if o["m"] is None:
        return
    if a.fn == "SAMPLE":
        st["m"] = o["m"] if st["m"] is None else min(st["m"], o["m"])
        return
    if st["m"] is None:
        st["m"] = o["m"]
        return
    sk_o, sk_c = _order_key(_parse(o["m"])), _order_key(_parse(st["m"]))
    if (a.fn == "MIN" and sk_o < sk_c) or (a.fn == "MAX" and sk_o > sk_c):
        st["m"] = o["m"]


def _agg_final(a: Agg, st: dict) -> Optional[str]:
    """Merged state → final NT text (same semantics as aggregate_iter.rs;
    empty-group defaults per SPARQL 1.1 §18.5: COUNT/SUM/AVG→0,
    GROUP_CONCAT→\"\", MIN/MAX/SAMPLE→error)."""
    fn = a.fn
    if "vs" in st:
        if st.get("e") and fn not in ("COUNT", "SAMPLE"):
            return None
        vals = sorted(set(st["vs"])) if a.distinct else st["vs"]
        if fn == "COUNT":
            return format_term((2, str(len(vals)), XSD_INTEGER, "", 0))
        if fn == "GROUP_CONCAT":
            parts = []
            for v in vals:
                t = _parse(v)
                parts.append(t[1] if t and t[0] == 2 else v)
            return format_term(
                (2, a.separator.join(parts), XSD + "string", "", 0))
        if fn in ("SUM", "AVG"):
            sub = _agg_new(Agg(fn, a.expr, a.alias))
            for v in vals:
                _num_fold(sub, v)
            return _agg_final(Agg(fn, a.expr, a.alias), sub)
        if fn == "SAMPLE":
            return vals[0] if vals else None
        # MIN/MAX over the distinct set
        terms = [t for t in (_parse(v) for v in vals) if t is not None]
        if len(terms) < len(vals):
            return None  # malformed value = error
        if not terms:
            return None
        pick = min(terms, key=_order_key) if fn == "MIN" else \
            max(terms, key=_order_key)
        return format_term(pick)
    if fn == "COUNT":
        return format_term((2, str(st["n"]), XSD_INTEGER, "", 0))
    if fn == "SAMPLE":
        return st["m"]
    if fn in ("MIN", "MAX"):
        return None if st.get("e") else st["m"]
    if fn in ("SUM", "AVG"):
        if st["e"]:
            return None
        if st["n"] == 0:
            return format_term((2, "0", XSD_INTEGER, "", 0))
        from fractions import Fraction

        total = Fraction(st["i"]) + (st["fr"] or Fraction(0))
        if fn == "AVG":
            total = total / st["n"]
        # result datatype = promotion of the inputs; AVG of exact
        # integers is a DECIMAL (aggregate_iter.rs:236-270 via
        # op:numeric-divide)
        rank = st.get("r", 0)
        if fn == "AVG" and rank == 0:
            rank = 1
        if rank == 0:
            return format_term((2, str(st["i"]), XSD_INTEGER, "", 0))
        if rank == 1:
            from decimal import Decimal

            d = Decimal(total.numerator) / Decimal(total.denominator)
            return format_term((2, _fmt_decimal(d), XSD + "decimal",
                                "", 0))
        dt = XSD + "float" if rank == 2 else XSD_DOUBLE
        return format_term((2, _fmt_double(float(total)), dt, "", 0))
    raise ValueError(f"unknown aggregate {fn}")


def _group_by_exchange(child, gv: List[str], aggs: List[Agg],
                       num_partitions: int):
    """GROUP BY via functions.exchange.hash_aggregate with per-block
    partial states (exec.rs:943-1006 semantics, Ray-Data-shaped)."""
    from ..functions.exchange import hash_aggregate

    implicit = not gv
    state_cols = ["__s_" + a.alias for a in aggs]

    def combine(b: pa.Table) -> pa.Table:
        n = b.num_rows
        out: Dict[str, pa.Array] = {}
        if n == 0:
            for c in gv:
                out[c] = pa.array([], pa.string())
            for sc in state_cols:
                out[sc] = pa.array([], pa.string())
            return pa.table(out)
        keys = list(zip(*[b[c].to_pylist() for c in gv])) if gv \
            else [()] * n
        rowkeys = None
        if any(a.expr is None and a.distinct for a in aggs):
            # COUNT(DISTINCT *): the dedup key is the whole solution row
            cs = sorted(c for c in b.column_names)
            rowkeys = ["\x1f".join("" if row[c] is None else str(row[c])
                                   for c in cs)
                       for row in b.to_pylist()]
        vals = [(_expr_batch_eval(a.expr, b) if a.expr is not None
                 else rowkeys if a.distinct else None) for a in aggs]
        groups: Dict[tuple, list] = {}
        order: List[tuple] = []
        for i, k in enumerate(keys):
            st = groups.get(k)
            if st is None:
                st = [_agg_new(a) for a in aggs]
                groups[k] = st
                order.append(k)
            for j, a in enumerate(aggs):
                _agg_add(a, st[j], vals[j][i] if vals[j] is not None
                         else None)
        for idx, c in enumerate(gv):
            out[c] = pa.array([k[idx] for k in order], pa.string())
        for j, sc in enumerate(state_cols):
            out[sc] = pa.array([_agg_ser(groups[k][j]) for k in order],
                               pa.string())
        return pa.table(out)

    def finalize(t: pa.Table) -> pa.Table:
        n = t.num_rows
        keys = list(zip(*[t[c].to_pylist() for c in gv])) if gv and n \
            else [()] * n
        scols = [t[sc].to_pylist() for sc in state_cols]
        groups: Dict[tuple, list] = {}
        order: List[tuple] = []
        for i in range(n):
            k = keys[i]
            st = groups.get(k)
            if st is None:
                st = [_agg_new(a) for a in aggs]
                groups[k] = st
                order.append(k)
            for j, a in enumerate(aggs):
                _agg_merge(a, st[j], scols[j][i])
        if implicit and not order:
            groups[()] = [_agg_new(a) for a in aggs]
            order.append(())
        out: Dict[str, pa.Array] = {}
        for idx, c in enumerate(gv):
            out[c] = pa.array([k[idx] for k in order], pa.string())
        for j, a in enumerate(aggs):
            out[a.alias] = pa.array(
                [_agg_final(a, groups[k][j]) for k in order], pa.string())
        return pa.table(out)

    return hash_aggregate(child, list(gv), combine, finalize,
                          num_partitions=1 if implicit else num_partitions)


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------

def evaluate(node: Node, triples_ds, *, num_partitions: int = 8,
             graph_var: Optional[str] = None,
             named_graphs: Optional[Tuple[str, ...]] = None):
    """Compile-and-run: algebra node → Dataset of bindings.
    ``named_graphs``: the FROM NAMED declaration, when present —
    GRAPH ?g then iterates the DECLARED graphs (even empty ones,
    exec.rs graph_iter over the dataset description)."""
    ev = lambda n: evaluate(n, triples_ds, num_partitions=num_partitions,  # noqa: E731
                            graph_var=graph_var,
                            named_graphs=named_graphs)

    if isinstance(node, GraphPattern) and isinstance(node.name, Var) \
            and named_graphs is not None:
        # FROM NAMED declares the graph list: evaluate the child once
        # per declared graph (a declared-but-empty graph still yields
        # its subquery result, e.g. COUNT(*) = 0; an empty-BGP child is
        # the unit solution, so GRAPH ?g {} binds ?g per declared graph)
        var = node.name.name
        outs = []
        for name_txt in named_graphs:
            scoped = triples_ds.map_batches(
                lambda b, nt=name_txt: b.filter(
                    pc.equal(b["g"], pa.scalar(nt)))
                .drop_columns(["g"]),
                batch_format="pyarrow")
            part = evaluate(node.child, scoped,
                            num_partitions=num_partitions)
            part = part.map_batches(
                lambda b, nt=name_txt: b.append_column(
                    var, pa.array([nt] * b.num_rows, pa.string())),
                batch_format="pyarrow")
            outs.append(part)
        out = outs[0]
        for p_ in outs[1:]:
            out = out.union(p_)
        return out

    if isinstance(node, GraphPattern):
        if isinstance(node.child, BGP) and not node.child.patterns:
            # GRAPH g {} = graph existence (exec.rs graph_iter over an
            # empty group): a constant name yields one empty solution
            # iff that named graph exists in the (FROM-NAMED-scoped)
            # dataset; a variable binds each named-graph name once
            import ray.data as rd

            def names(b: pa.Table) -> pa.Table:
                if "g" not in b.column_names:
                    return pa.table({"g": pa.array([], pa.large_string())})
                col = b["g"].combine_chunks()
                mask = pc.and_(pc.is_valid(col),
                               pc.not_equal(col, pa.scalar("")))
                return pa.table({"g": pc.unique(col.filter(mask))})

            graphs = triples_ds.map_batches(names, batch_format="pyarrow")
            if isinstance(node.name, Var):
                out = _distinct(graphs, num_partitions)
                return out.map_batches(
                    lambda b: pa.table({node.name.name: b["g"]}),
                    batch_format="pyarrow")
            name_txt = format_term(node.name)
            exists = graphs.map_batches(
                lambda b: b.filter(pc.equal(b["g"], pa.scalar(name_txt))),
                batch_format="pyarrow").limit(1).count() > 0
            return rd.from_arrow(pa.table(
                {"_unit": pa.array([""] if exists else [],
                                   pa.large_string())}))
        if isinstance(node.name, Var):
            return evaluate(node.child, triples_ds,
                            num_partitions=num_partitions,
                            graph_var=node.name.name)
        name_txt = format_term(node.name)
        scoped = triples_ds.map_batches(
            lambda b: b.filter(pc.equal(b["g"], pa.scalar(name_txt)))
            .drop_columns(["g"]),
            batch_format="pyarrow")
        return evaluate(node.child, scoped,
                        num_partitions=num_partitions)

    if isinstance(node, Service):
        import ray.data as rd

        from .results import parse_results, rows_to_dataset

        try:
            if _SERVICE_RESOLVER is None:
                raise RuntimeError(
                    "no SPARQL SERVICE resolver registered "
                    "(algebra.set_service_resolver)")
            doc = _SERVICE_RESOLVER(node.endpoint[1], node.query_text)
            head = doc.lstrip()[:1]
            fmt = "json" if head == "{" else ("xml" if head == "<"
                                              else "tsv")
            parsed = parse_results(doc, fmt)
            if isinstance(parsed, bool):
                raise ValueError("SERVICE returned an ASK document")
            vars_, rows = parsed
            return rows_to_dataset(vars_, rows)
        except Exception:
            if not node.silent:
                raise
            # SILENT failure = the empty solution mapping: one all-null
            # row, identity under the compatible-mapping join
            return rd.from_arrow(pa.table(
                {v: pa.array([None], pa.string()) for v in node.vars}))

    if isinstance(node, InlineData):
        import ray.data as rd

        if isinstance(node.var, str):
            return rd.from_arrow(pa.table({
                node.var: pa.array([format_term(t) for t in node.rows],
                                   pa.string())}))
        cols = {v: pa.array(
            [None if row[i] is None else format_term(row[i])
             for row in node.rows], pa.string())
            for i, v in enumerate(node.var)}
        return rd.from_arrow(pa.table(cols))

    if isinstance(node, BGP):
        if not node.patterns:
            # empty group pattern = the unit multiset: exactly one
            # solution binding nothing (exec.rs BGP base case); the
            # `_unit` column is internal and dropped by Project/SELECT
            import ray.data as rd

            return rd.from_arrow(pa.table(
                {"_unit": pa.array([""], pa.large_string())}))
        parts = [_scan(triples_ds, p, graph_var=graph_var)
                 for p in node.patterns]
        out = parts[0]
        for nxt in parts[1:]:
            out = _cross_or_join(out, nxt, num_partitions=num_partitions)
        return out

    if isinstance(node, TripleTermPattern):
        child = ev(node.child)
        var, parts = node.var, list(node.parts)
        part_vars = [p.name for p in parts if isinstance(p, Var)]
        part_consts = [None if isinstance(p, Var) else format_term(p)
                       for p in parts]

        def destruct(b: pa.Table) -> pa.Table:
            from ..terms import KIND_TRIPLE
            from .expr import _triple_parts

            names = list(b.column_names)
            all_names = names + [v_ for v_ in part_vars
                                 if v_ not in names]
            out: Dict[str, list] = {c: [] for c in all_names}
            for row in b.to_pylist():
                t = _parse(row.get(var)) if row.get(var) else None
                if t is None or t[0] != KIND_TRIPLE:
                    continue
                comps = _triple_parts(t)
                if comps is None:
                    continue
                new = dict(row)
                ok = True
                for item, const, comp in zip(parts, part_consts, comps):
                    comp_txt = format_term(comp)
                    if const is not None:
                        if const != comp_txt:
                            ok = False
                            break
                    else:
                        prev = new.get(item.name)
                        if prev is not None and prev != comp_txt:
                            ok = False
                            break
                        new[item.name] = comp_txt
                if not ok:
                    continue
                for c in all_names:
                    out[c].append(new.get(c))
            return pa.table({c: pa.array(v, pa.string())
                             for c, v in out.items()})

        return child.map_batches(destruct, batch_format="pyarrow")

    if isinstance(node, Join):
        return _cross_or_join(ev(node.left), ev(node.right),
                              num_partitions=num_partitions)

    if isinstance(node, LeftJoin):
        (left, lv), (right, rv) = _with_vars(ev(node.left)), \
            _with_vars(ev(node.right))
        shared = sorted(set(lv) & set(rv))
        if not shared:
            if not lv:  # empty left (Ray drops empty schemas): ∅
                return left
            # disjoint OPTIONAL: every right solution is compatible
            # with every left one, so LeftJoin == cross Join when the
            # right side is non-empty; an empty right keeps the left
            # rows with the optional vars unbound
            if not rv or right.count() == 0:
                def add_unbound(b: pa.Table) -> pa.Table:
                    for c in rv:
                        b = b.append_column(
                            c, pa.array([None] * b.num_rows, pa.string()))
                    return b

                return left.map_batches(add_unbound,
                                        batch_format="pyarrow")
            return _cross_or_join(left, right,
                                  num_partitions=num_partitions)
        return _join_bindings(left, right, "left_outer",
                              num_partitions, tuple(shared))

    if isinstance(node, Union):
        (left, lv), (right, rv) = _with_vars(ev(node.left)), \
            _with_vars(ev(node.right))
        allv = sorted(set(lv) | set(rv))

        def align(b: pa.Table, have: List[str]) -> pa.Table:
            cols = {}
            for c in allv:
                cols[c] = b[c] if c in have else \
                    pa.array([None] * b.num_rows, pa.string())
            return pa.table(cols)

        return left.map_batches(lambda b: align(b, lv), batch_format="pyarrow") \
            .union(right.map_batches(lambda b: align(b, rv),
                                     batch_format="pyarrow"))

    if isinstance(node, Minus):
        (left, lv), (right, rv) = _with_vars(ev(node.left)), \
            _with_vars(ev(node.right))
        shared = sorted(set(lv) & set(rv))
        if not shared:
            return left
        return _semi_anti(left, right, shared, anti=True,
                          require_overlap=True,
                          num_partitions=num_partitions)

    if isinstance(node, Filter):
        child = ev(node.child)
        fast = _compile_fast_filter(node.expr)
        if fast is not None:
            return child.map_batches(
                lambda b: b.filter(fast(b)), batch_format="pyarrow")

        def filt(b: pa.Table) -> pa.Table:
            res = _expr_batch_eval(node.expr, b)
            keep = [i for i, r in enumerate(res)
                    if r is not None and ebv(_parse(r)) is True]
            return b.take(pa.array(keep, pa.int64()))

        return child.map_batches(filt, batch_format="pyarrow")

    if isinstance(node, Extend):
        child = ev(node.child)

        def ext(b: pa.Table) -> pa.Table:
            res = _expr_batch_eval(node.expr, b)
            return b.append_column(node.var, pa.array(res, pa.string()))

        return child.map_batches(ext, batch_format="pyarrow")

    if isinstance(node, Project):
        child = ev(node.child)
        keep = list(node.vars)
        if graph_var is not None and graph_var not in keep:
            child, cv = _with_vars(child)
            if graph_var in cv:
                # the graph binding survives subquery projection while
                # inside GRAPH ?g (it is bound outside the subquery)
                keep.append(graph_var)

        def project(b: pa.Table) -> pa.Table:
            # a projected variable the pattern never binds is simply
            # unbound (all-null column), not an error
            return pa.table({
                c: b[c] if c in b.column_names
                else pa.nulls(b.num_rows, pa.string())
                for c in keep})

        return child.map_batches(project, batch_format="pyarrow")

    if isinstance(node, Distinct):
        return _distinct(ev(node.child), num_partitions)

    if isinstance(node, Reduced):
        child, cols = _with_vars(ev(node.child))
        if not cols:
            return child

        def drop_adjacent(b: pa.Table) -> pa.Table:
            import numpy as np

            if b.num_rows <= 1:
                return b
            keys = _row_key_array(b, cols).to_numpy(zero_copy_only=False)
            keep = np.ones(len(keys), dtype=bool)
            keep[1:] = keys[1:] != keys[:-1]
            return b.filter(pa.array(keep))

        return child.map_batches(drop_adjacent, batch_format="pyarrow")

    if isinstance(node, OrderBy):
        return _eval_order_by(node, ev(node.child), limit=None)

    if isinstance(node, Slice):
        # top-k push-down: ORDER BY + LIMIT keeps a per-block local
        # top-k before the sort exchange (exec.rs sorts everything; at
        # scale only k×blocks rows need to move)
        if node.limit is not None and isinstance(node.child, OrderBy):
            inner = ev(node.child.child)
            k = node.offset + node.limit
            child = _eval_order_by(node.child, inner, limit=k)
            if node.offset == 0:
                return child.limit(node.limit)
            # the sort ran every row anyway; materialized, the limit
            # below truncates it without cancelling running tasks
            child = child.materialize()
        else:
            child = ev(node.child)
        if node.offset == 0:
            return child if node.limit is None else child.limit(node.limit)
        # OFFSET: distributed block split at the offset row (no driver
        # materialization — r1 VERDICT item 4)
        if node.limit is not None:
            child = child.limit(node.offset + node.limit)
        _, tail = child.materialize().split_at_indices([node.offset])
        return tail

    if isinstance(node, Group):
        gv = list(node.group_vars)
        child = ev(node.child)
        if graph_var is not None and graph_var not in gv:
            child, cv = _with_vars(child)
            if graph_var in cv:
                # inside GRAPH ?g the subquery evaluates once per named
                # graph (exec.rs:652-707 graph_iter): the graph binding
                # is an implicit grouping key
                gv.append(graph_var)
        return _group_by_exchange(child, gv, list(node.aggs),
                                  num_partitions)

    if isinstance(node, PathPattern):
        return _eval_path_pattern(node, triples_ds, num_partitions,
                                  graph_var)

    if isinstance(node, Exists):
        (left, lv), (right, rv) = _with_vars(ev(node.left)), \
            _with_vars(ev(node.right))
        shared = sorted(set(lv) & set(rv))
        if not shared:
            if not lv:  # empty left (Ray drops empty schemas): ∅
                return left
            # var-disjoint (or empty-right) EXISTS: every inner
            # solution is compatible with every outer row, so the
            # filter is a constant gate on "does the inner pattern
            # match at all" (sparql11-query §8.1.1); bounded one-row
            # driver probe, never a shuffle
            nonempty = right.limit(1).count() > 0
            keep = nonempty != node.negated
            return left if keep else left.limit(0)
        return _semi_anti(left, right, shared, anti=node.negated,
                          require_overlap=False,
                          num_partitions=num_partitions)

    raise TypeError(f"unknown algebra node {type(node)}")


def _semi_anti(left, right, shared, *, anti: bool, require_overlap: bool,
               num_partitions: int):
    """Distributed semi/anti join with SPARQL compatibility semantics
    (Minus = anti with the MINUS domain-overlap rule; EXISTS = semi).
    Fast path: Ray's native left_semi/left_anti when no shared column
    holds an unbound value on either side."""
    left, right = left.materialize(), right.materialize()
    if left.count() == 0:
        return left
    rp = right.map_batches(
        lambda b: pa.table({c: (pc.cast(b[c], pa.string())
                                if c in b.column_names
                                else pa.nulls(b.num_rows, pa.string()))
                            for c in shared}),
        batch_format="pyarrow").materialize()
    if rp.count() == 0:
        return left if anti else left.limit(0)
    how = "left_anti" if anti else "left_semi"
    if _shared_has_nulls(left, shared) or _shared_has_nulls(rp, shared):
        return _compat_join_general(left, rp, how, num_partitions, shared,
                                    require_overlap=require_overlap)
    marker = _distinct_on(rp, shared, num_partitions)
    out = safe_join(left, marker, how, num_partitions,
                    on=tuple(shared)).materialize()
    if out.schema() is None:
        return _empty_bindings(_cols_of(left))
    return out


# ---------------------------------------------------------------------------
# general property paths (PathPattern)
# ---------------------------------------------------------------------------

def _norm_path(path) -> Tuple[bool, Optional[tuple]]:
    """Normalize a path AST to (zero, core): ``zero`` = the path admits
    a zero-length match; ``core`` = an equivalent opt/star-free AST for
    the ≥1-step matches (None if the path is exactly zero-length).
    ``p?``/``p*`` hoist their zero-length part out so pair evaluation
    never needs the term universe mid-sequence: a seq with optional
    parts expands to the alternation over include/skip subsets."""
    k = path[0]
    if k in ("term", "neg"):
        return False, path
    if k == "inv":
        z, c = _norm_path(path[1])
        return z, None if c is None else ("inv", c)
    if k == "alt":
        pairs = [_norm_path(p) for p in path[1]]
        cores = [c for _z, c in pairs if c is not None]
        core = None if not cores else (
            cores[0] if len(cores) == 1 else ("alt", cores))
        return any(z for z, _c in pairs), core
    if k == "seq":
        parts = [_norm_path(p) for p in path[1]]
        branches: List[List[tuple]] = [[]]
        for z, c in parts:
            nxt: List[List[tuple]] = []
            for b in branches:
                if z:
                    nxt.append(list(b))
                if c is not None:
                    nxt.append(b + [c])
            branches = nxt
        zero = any(not b for b in branches)
        seqs: List[tuple] = []
        for b in branches:
            if not b:
                continue
            cand = b[0] if len(b) == 1 else ("seq", b)
            if cand not in seqs:
                seqs.append(cand)
        core = None if not seqs else (
            seqs[0] if len(seqs) == 1 else ("alt", seqs))
        return zero, core
    if k == "plus":
        z, c = _norm_path(path[1])
        return z, None if c is None else ("plus", c)
    if k in ("star", "opt"):
        _z, c = _norm_path(path[1])
        if k == "star" and c is not None:
            c = ("plus", c)
        return True, c
    raise ValueError(f"unknown path node {path!r}")


def _pcast(col) -> pa.ChunkedArray:
    return pc.cast(col, pa.string())


def _scan_neg(triples_ds, fwd, inv):
    """Negated property set → (s, o) pairs: forward triples whose
    predicate is outside ``fwd`` ∪ inverted triples whose predicate is
    outside ``inv`` (SPARQL 1.1 §9.1; directions activate per the set's
    composition)."""
    fwd_txt = sorted(format_term(t) for t in fwd)
    inv_txt = sorted(format_term(t) for t in inv)
    fwd_active = bool(fwd_txt) or not inv_txt

    def body(b: pa.Table) -> pa.Table:
        if "g" in b.column_names:
            b = b.filter(pc.or_kleene(pc.equal(b["g"], pa.scalar("")),
                                      pc.is_null(b["g"])))
        p = _pcast(b["p"])
        outs = []
        if fwd_active:
            fb = b.filter(pc.invert(pc.is_in(
                p, value_set=pa.array(fwd_txt, pa.string())))) \
                if fwd_txt else b
            outs.append(pa.table({"s": _pcast(fb["s"]),
                                  "o": _pcast(fb["o"])}))
        if inv_txt:
            ib = b.filter(pc.invert(pc.is_in(
                p, value_set=pa.array(inv_txt, pa.string()))))
            outs.append(pa.table({"s": _pcast(ib["o"]),
                                  "o": _pcast(ib["s"])}))
        return pa.concat_tables(outs)

    return triples_ds.map_batches(body, batch_format="pyarrow")


def _rename_pairs(ds, s_to: str, o_to: str):
    def body(b: pa.Table) -> pa.Table:
        return pa.table({s_to: b["s"], o_to: b["o"]})

    return ds.map_batches(body, batch_format="pyarrow")


def _path_pairs(path, triples_ds, num_partitions: int, max_rounds: int):
    """Opt-free path AST → Dataset("s", "o") of related term pairs over
    the default graph."""
    k = path[0]
    if k == "term":
        ds = _scan(triples_ds, (Var("s"), path[1], Var("o")))
        return ds
    if k == "neg":
        return _scan_neg(triples_ds, path[1], path[2])
    if k == "inv":
        inner = _path_pairs(path[1], triples_ds, num_partitions, max_rounds)
        return inner.map_batches(
            lambda b: pa.table({"s": b["o"], "o": b["s"]}),
            batch_format="pyarrow")
    if k == "alt":
        parts = [_path_pairs(p, triples_ds, num_partitions, max_rounds)
                 for p in path[1]]
        return parts[0].union(*parts[1:])
    if k == "seq":
        parts = [_path_pairs(p, triples_ds, num_partitions, max_rounds)
                 for p in path[1]]
        cur = parts[0]
        for nxt in parts[1:]:
            left = _rename_pairs(cur, "s", "__m")
            right = _rename_pairs(nxt, "__m", "o")
            left, right = left.materialize(), right.materialize()
            if left.count() == 0 or right.count() == 0:
                return _empty_bindings(["s", "o"])
            cur = safe_join(left, right, "inner", num_partitions,
                            on=("__m",)).materialize()
            if cur.schema() is None:
                return _empty_bindings(["s", "o"])
            cur = cur.map_batches(
                lambda b: pa.table({"s": b["s"], "o": b["o"]}),
                batch_format="pyarrow")
        return cur
    if k == "plus":
        return transitive_closure(
            _path_pairs(path[1], triples_ds, num_partitions, max_rounds),
            num_partitions=num_partitions, max_rounds=max_rounds)
    raise ValueError(f"path core cannot contain {k!r}")


def _graph_terms(triples_ds, num_partitions: int):
    """Distinct terms of the default graph (subjects ∪ objects) — the
    zero-length-path universe (SPARQL 1.1 §9.3 ZeroLengthPath)."""
    def both(b: pa.Table) -> pa.Table:
        if "g" in b.column_names:
            b = b.filter(pc.or_kleene(pc.equal(b["g"], pa.scalar("")),
                                      pc.is_null(b["g"])))
        arr = pa.chunked_array([_pcast(b["s"]), _pcast(b["o"])])
        return pa.table({"t": arr})

    ds = triples_ds.map_batches(both, batch_format="pyarrow")
    return _distinct_on(ds, ["t"], num_partitions)


def _path_contains_plus(path) -> bool:
    k = path[0]
    if k in ("term", "neg"):
        return False
    if k == "plus":
        return True
    if k in ("seq", "alt"):
        return any(_path_contains_plus(p) for p in path[1])
    return _path_contains_plus(path[1])


def _eval_path_pattern(node: PathPattern, triples_ds,
                       num_partitions: int,
                       graph_var: Optional[str] = None):
    """PathPattern → bindings Dataset.  Seeds closures from a constant
    endpoint when possible (frontier iteration instead of the full
    closure); zero-length matches bind the endpoint copy, or enumerate
    the graph-term universe when both endpoints are free."""
    import ray.data as rd

    if graph_var is not None:
        raise ValueError(
            "property paths inside GRAPH ?var are not supported — bind "
            "the graph to a constant first")
    s, o = node.subject, node.object
    svar, ovar = isinstance(s, Var), isinstance(o, Var)
    zero, core = _norm_path(node.path)
    out_cols = [v.name for v, isv in ((s, svar), (o, ovar)) if isv]
    out_cols = list(dict.fromkeys(out_cols)) or ["__match"]
    results = []

    def marker(n_rows: int):
        return rd.from_arrow(pa.table(
            {"__match": pa.array([1] * n_rows, pa.int64())}))

    # zero-length contribution
    if zero:
        if not svar and not ovar:
            if format_term(s) == format_term(o):
                results.append(marker(1))
        elif svar and not ovar:
            results.append(rd.from_arrow(pa.table(
                {s.name: pa.array([format_term(o)], pa.string())})))
        elif ovar and not svar:
            results.append(rd.from_arrow(pa.table(
                {o.name: pa.array([format_term(s)], pa.string())})))
        else:
            nodes_ds = _graph_terms(triples_ds, num_partitions)
            if s.name == o.name:
                results.append(nodes_ds.map_batches(
                    lambda b: pa.table({s.name: b["t"]}),
                    batch_format="pyarrow"))
            else:
                results.append(nodes_ds.map_batches(
                    lambda b: pa.table({s.name: b["t"], o.name: b["t"]}),
                    batch_format="pyarrow"))

    # ≥1-step contribution
    if core is not None:
        if core[0] == "plus" and not svar:
            reach = transitive_closure(
                _path_pairs(core[1], triples_ds, num_partitions,
                            node.max_rounds), format_term(s),
                num_partitions=num_partitions, max_rounds=node.max_rounds)
            if ovar:
                results.append(reach.map_batches(
                    lambda b: pa.table({o.name: b["o"]}),
                    batch_format="pyarrow"))
            else:
                txt = format_term(o)
                results.append(reach.map_batches(
                    lambda b: pa.table({"__match": pa.array(
                        [1] * b.filter(pc.equal(b["o"],
                                                pa.scalar(txt))).num_rows,
                        pa.int64())}),
                    batch_format="pyarrow"))
        elif core[0] == "plus" and not ovar:
            reach = transitive_closure(
                _path_pairs(("inv", core[1]), triples_ds, num_partitions,
                            node.max_rounds), format_term(o),
                num_partitions=num_partitions, max_rounds=node.max_rounds)
            results.append(reach.map_batches(
                lambda b: pa.table({s.name: b["o"]}),
                batch_format="pyarrow"))
        else:
            P = _path_pairs(core, triples_ds, num_partitions,
                            node.max_rounds)

            def bind(b: pa.Table) -> pa.Table:
                mask = None
                if not svar:
                    mask = pc.equal(b["s"], pa.scalar(format_term(s)))
                if not ovar:
                    m = pc.equal(b["o"], pa.scalar(format_term(o)))
                    mask = m if mask is None else pc.and_(mask, m)
                if svar and ovar and s.name == o.name:
                    m = pc.equal(b["s"], b["o"])
                    mask = m if mask is None else pc.and_(mask, m)
                if mask is not None:
                    b = b.filter(mask)
                out = {}
                if svar:
                    out[s.name] = _pcast(b["s"])
                if ovar and (not svar or o.name != s.name):
                    out[o.name] = _pcast(b["o"])
                if not out:
                    return pa.table({"__match": pa.array(
                        [1] * b.num_rows, pa.int64())})
                return pa.table(out)

            results.append(P.map_batches(bind, batch_format="pyarrow"))

    if not results:
        return _empty_bindings(out_cols)
    out = results[0] if len(results) == 1 else \
        results[0].union(*results[1:])
    # closure/zero solutions are set-semantics (ALP, exec.rs
    # path_or_more): dedup when any distinct-producing part is present
    if zero or _path_contains_plus(node.path):
        if out_cols == ["__match"]:
            return out.limit(1)
        out = _distinct_on(out, out_cols, num_partitions)
    return out
