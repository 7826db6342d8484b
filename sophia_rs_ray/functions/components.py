"""Distributed connected components — the shared fixpoint primitive for
bnode-component discovery (c14n, SURVEY §3.2) and entity-dedup cluster
assignment (SURVEY §2.8 "union-find via iterated groupby").

Algorithm: min-label propagation + per-round pointer doubling.
  labels(n) ← min neighbour id (incl. self)
  repeat:  labels(n) ← min(labels(n), min over neighbours m of labels(m))
           labels(n) ← labels(labels(n))        # pointer doubling
  until no label changed.
Each round is one ``join`` (edges ⋈ labels) + one per-node ``min``
(``exchange.grouped``) for the propagation — the all-to-all pattern of
the "small-star" CC algorithms (Kiveris et al., "Connected Components
in MapReduce and Beyond", SoCC'14) — plus one labels ⋈ labels
self-join for the shortcut. The pointer-doubling step makes rounds
O(log n) instead of O(component diameter) (Rastogi et al., "Finding
Connected Components in Map-Reduce in Logarithmic Rounds", ICDE'13:
hash-to-min family), so a chain-shaped URL/entity graph converges in
~log₂(n) rounds — pinned by the chain fuzz in
tests/test_components.py. Hub skew is absorbed by the exchange's
per-block combine, which sends at most one row per node and block.

For edge sets that fit on the driver (the common case for per-document
bnode structures: components of a handful of nodes), ``union_find``
avoids the per-round shuffle entirely.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple
import zlib

import pyarrow as pa
import pyarrow.compute as pc

from ..util import safe_join
from .exchange import grouped

_FIB = 0x9E3779B97F4A7C15  # Fibonacci multiplier: mixes crc32 into 64 bits
_MASK = (1 << 61) - 1

#: rounds the last distributed connected_components call took — read by
#: the chain-fuzz test to pin the O(log n) bound
LAST_ROUNDS = 0


def _label_checksum(labels) -> int:
    """Order-independent 61-bit digest of the (node,label) multiset.
    Labels only ever decrease, so an unchanged digest ⟺ a fixpoint
    (up to a ~2^-61 collision); replaces a per-round join+compare."""

    def h(b: pa.Table) -> pa.Table:
        vals = [(zlib.crc32(f"{n}\x1f{l}".encode()) * _FIB) & _MASK
                for n, l in zip(b["node"].to_pylist(),
                                b["label"].to_pylist())]
        return pa.table({"h": pa.array(vals, pa.int64())})

    return labels.map_batches(h, batch_format="pyarrow").sum("h") or 0


def union_find(edges: Iterable[Tuple[str, str]]) -> Dict[str, str]:
    """Driver-side union-find: node → min-lexicographic representative."""
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the lexicographically smaller root (deterministic rep)
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {n: find(n) for n in parent}


def connected_components(
    edges_ds,
    *,
    src: str = "src",
    dst: str = "dst",
    num_partitions: int = 16,
    max_rounds: int = 50,
    local_edge_limit: int = 2_000_000,
):
    """edges Dataset (undirected; self-loops welcome) → Dataset
    ``(node, component)`` where component = min node id in the component.

    Driver-controlled fixpoint: bounded rounds, convergence by
    changed-label count (SURVEY §7.4 "fixpoint loops").
    """
    # symmetrize once: (a,b) ∪ (b,a) ∪ self-loops keep isolated nodes
    def sym(b: pa.Table) -> pa.Table:
        a1 = pc.cast(b[src], pa.string())
        a2 = pc.cast(b[dst], pa.string())
        return pa.table({
            "node": pa.chunked_array([a1, a2]),
            "nbr": pa.chunked_array([a2, a1]),
        })

    # materialize the (small) edge and label tables once: every round
    # re-reads them, and an unbroken lazy lineage would re-execute the
    # whole upstream per round while stacking shuffle operators
    edges = edges_ds.map_batches(sym, batch_format="pyarrow").materialize()

    if edges.count() <= local_edge_limit:
        # adaptive: below the threshold a driver-side union-find beats
        # paying the per-round join+groupby fixed cost diameter times
        pairs = []
        for b in edges.iter_batches(batch_format="pyarrow"):
            pairs.extend(zip(b["node"].to_pylist(), b["nbr"].to_pylist()))
        comp = union_find(pairs)
        import ray.data as rd

        items = sorted(comp.items())
        return rd.from_arrow(pa.table({
            "node": pa.array([k for k, _ in items], pa.string()),
            "component": pa.array([v for _, v in items], pa.string())}))
    # labels(n) = min neighbour id (incl. self via symmetrized self-pair)
    labels = grouped(
        edges.map_batches(lambda b: b.rename_columns(["node", "label"]),
                          batch_format="pyarrow"),
        ["node"], [("label", "min")], num_partitions=num_partitions,
    ).materialize()

    chk = _label_checksum(labels)
    converged = False
    global LAST_ROUNDS
    LAST_ROUNDS = 0
    for _ in range(max_rounds):
        LAST_ROUNDS += 1
        # propagate: each edge ships its src's current label to dst
        msgs = safe_join(
            edges, labels, "inner", num_partitions, on=("node",),
        ).map_batches(
            lambda b: pa.table({"node": b["nbr"], "label": b["label"]}),
            batch_format="pyarrow",
        )
        labels = grouped(msgs.union(labels), ["node"], [("label", "min")],
                         num_partitions=num_partitions).materialize()
        # pointer doubling: labels(n) ← labels(labels(n)).  Every label
        # is itself a node id (a min over node ids), so the inner
        # self-join is total; label(l) ≤ l keeps labels monotone and
        # the checksum-fixpoint argument intact.
        ptr = labels.map_batches(
            lambda b: pa.table({"pnode": b["node"], "plabel": b["label"]}),
            batch_format="pyarrow")
        labels = safe_join(
            labels, ptr, "inner", num_partitions,
            on=("label",), right_on=("pnode",),
        ).map_batches(
            lambda b: pa.table({"node": b["node"],
                                "label": pc.min_element_wise(
                                    b["label"], b["plabel"])}),
            batch_format="pyarrow").materialize()
        new_chk = _label_checksum(labels)
        if new_chk == chk:
            converged = True
            break
        chk = new_chk
    if not converged:
        # returning partial labels would silently split one component
        # into several ids (r1 ADVICE) — fail loudly instead
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} "
            "rounds (component diameter exceeds it) — raise max_rounds")
    return labels.map_batches(
        lambda b: pa.table({"node": b["node"], "component": b["label"]}),
        batch_format="pyarrow")
