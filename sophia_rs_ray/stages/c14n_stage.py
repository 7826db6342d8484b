"""Distributed RDFC-1.0 canonicalization over triple/quad Datasets.

Two operators (SURVEY §3.2 "Ray shape" of the c14n pipeline):

``c14n_per_graph``
    one hash exchange on the graph key (``exchange.per_group``), then
    pure RDFC-1.0 per group — canonicalize MANY small graphs in
    parallel (the web-scale use: each page's extracted graph gets a
    canonical form / digest for dedup, diffing, conformance).

``c14n_dataset``
    whole-dataset canonicalization:
      1. each row is flagged by whether it holds a blank node;
      2. the blank-node rows come to the driver, which builds one
         ``C14nState`` over them: first-degree hashes, then GLOBAL
         numbering — unique hashes sorted → ``c14n{i}``; the rare
         shared-hash residue (symmetric structures) is replayed exactly
         per the reference's step 5 (``c14n/src/rdfc10.rs:238-262``)
         with the canonical issuer pre-seeded, so output bytes match
         the single-process reference;
      3. broadcast label map → relabel + canonical-N-Quads format of
         all rows (bnode-free rows canonicalize to themselves) →
         global sort.

    Scale bound (documented, by design): the blank-node rows and the
    label table are driver-materialized — O(#blank-node quads), not
    O(#quads). Web data bnodes are document-scoped tree structures,
    so the residue (identical first-degree neighbourhoods) is tiny; the
    bnode-free quad stream never materializes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.compute as pc

from ..c14n import (
    C14nState,
    DEFAULT_DEPTH_FACTOR,
    DEFAULT_PERMUTATION_LIMIT,
    Quad,
    nq_term,
    normalize_quads,
)
from ..ntriples import parse_term_text
from ..terms import KIND_BNODE


def _row_quads(b: pa.Table, cols=("s", "p", "o"), g_col: Optional[str] = "g"
               ) -> List[Quad]:
    s = b[cols[0]].to_pylist()
    p = b[cols[1]].to_pylist()
    o = b[cols[2]].to_pylist()
    if g_col and g_col in b.column_names:
        g = b[g_col].to_pylist()
    else:
        g = [None] * len(s)
    out = []
    for i in range(len(s)):
        gt = None
        if g[i]:
            gt = parse_term_text(g[i])
        out.append((parse_term_text(s[i]), parse_term_text(p[i]),
                    parse_term_text(o[i]), gt))
    return out


# ---------------------------------------------------------------------------
# per-graph canonicalization (the embarrassingly-parallel path)
# ---------------------------------------------------------------------------

def c14n_per_graph(ds, *, group_col: str = "url", cols=("s", "p", "o"),
                   digest_only: bool = False,
                   depth_factor: float = DEFAULT_DEPTH_FACTOR,
                   permutation_limit: int = DEFAULT_PERMUTATION_LIMIT):
    """Dataset of NT rows (group_col, s, p, o) → per-group canonical
    N-Quads (group_col, nq) rows, or (group_col, digest) if digest_only.

    Toxic groups (poisoned bnode structures, ``rdfc10.rs:148-158``) are
    reported as error rows (``error`` column), not job failures.
    """
    import hashlib

    from ..functions.exchange import per_group

    def do_group(b: pa.Table) -> pa.Table:
        try:
            text = normalize_quads(
                _row_quads(b, cols, None), depth_factor=depth_factor,
                permutation_limit=permutation_limit)
            err = ""
        except ValueError as e:
            text, err = "", f"{type(e).__name__}: {e}"
        if digest_only:
            val = hashlib.sha256(text.encode()).hexdigest() if not err else ""
            return pa.table({group_col: b[group_col].slice(0, 1),
                             "digest": [val], "error": [err]})
        lines = text.splitlines(keepends=True) or [""]
        return pa.table({group_col: b[group_col].take([0] * len(lines)),
                         "nq": lines, "error": [err] * len(lines)})

    return per_group(ds, [group_col], do_group)


# ---------------------------------------------------------------------------
# whole-dataset canonicalization
# ---------------------------------------------------------------------------

def _bnode_mask(b: pa.Table, cols, g_col) -> pa.Array:
    """Rows that take the exact path: ``_:`` (a blank node) or ``<<(``
    (a triple term, which that path's term check refuses as
    ``normalize_quads`` does) anywhere in a term.  A literal that merely
    contains either marker goes there too, which stays exact."""
    m = None
    names = list(cols) + ([g_col] if g_col and g_col in b.column_names else [])
    for c in names:
        is_bn = pc.match_substring_regex(pc.cast(b[c], pa.large_string()),
                                         r"_:|<<\(")
        m = is_bn if m is None else pc.or_(m, is_bn)
    return m


def c14n_dataset(ds, *, cols=("s", "p", "o"), g_col: Optional[str] = "g",
                 depth_factor: float = DEFAULT_DEPTH_FACTOR,
                 permutation_limit: int = DEFAULT_PERMUTATION_LIMIT):
    """Whole-dataset RDFC-1.0 → Dataset of sorted canonical rows
    (s, p, o[, g] in canonical-NQ text plus the joined ``nq`` line).

    Byte-compatible with the reference's `normalize` on the same quads.
    """
    import ray

    from ..functions.broadcast import worker_cached

    # read twice below (plain rows, bnode rows); materialized first so
    # the schema probe does not run and then cancel a partial plan
    ds = ds.materialize()
    has_g = g_col is not None and g_col in (ds.schema().names or [])
    use_cols = list(cols) + ([g_col] if has_g else [])

    def split_flag(b: pa.Table) -> pa.Table:
        return b.select(use_cols).append_column(
            "_has_bn", _bnode_mask(b, cols, g_col if has_g else None))

    flagged = ds.map_batches(split_flag, batch_format="pyarrow")
    plain = flagged.filter(expr="_has_bn == False")
    bnoded = flagged.filter(expr="_has_bn == True")

    # ---- driver-side bnode structure (O(#bnodes) + residue, documented) ----
    bn_quads: List[Quad] = []
    for b in bnoded.iter_batches(batch_size=4096, batch_format="pyarrow"):
        bn_quads.extend(_row_quads(b, cols, g_col if has_g else None))

    state = C14nState(bn_quads, depth_factor=depth_factor,
                      permutation_limit=permutation_limit)
    state.build_b2q()
    state.build_first_degree()
    # global unique numbering: unique h1d in hash order → c14n{i}
    shared = {h: bs for h, bs in state.h2b.items() if len(bs) > 1}
    unique_sorted = sorted(h for h, bs in state.h2b.items() if len(bs) == 1)
    labels: Dict[str, str] = {}
    for i, h in enumerate(unique_sorted):
        labels[state.h2b[h][0]] = f"c14n{i}"
    # shared-hash residue: exact step-5 replay with pre-seeded issuer
    if shared:
        state.canonical.issued.update(labels)
        state.canonical.start = len(unique_sorted)
        state.h2b = shared
        state.issue_shared()
        labels = dict(state.canonical.issued)

    label_ref = ray.put(labels)

    def relabel_format(b: pa.Table) -> pa.Table:
        lmap = worker_cached(label_ref, dict)
        qs = _row_quads(b, cols, g_col if has_g else None)
        data = {c: [] for c in ("s", "p", "o", "g", "nq")}
        for (s, p, o, g) in qs:
            def conv(t):
                if t is not None and t[0] == KIND_BNODE:
                    return (KIND_BNODE, lmap[t[1]], "", "", 0)
                return t
            s, p, o, g = conv(s), conv(p), conv(o), conv(g)
            st, pt, ot = nq_term(s), nq_term(p), nq_term(o)
            gt = nq_term(g) if g is not None else ""
            data["s"].append(st)
            data["p"].append(pt)
            data["o"].append(ot)
            data["g"].append(gt)
            line = " ".join(x for x in (st, pt, ot, gt) if x) + " .\n"
            data["nq"].append(line)
        return pa.table(data)

    out = (plain.union(bnoded)
           .map_batches(relabel_format, batch_format="pyarrow")
           .sort(["s", "p", "o", "g"]))
    return out
