"""Graph fixpoints — the one home of connected components (near-dup
and entity-dedup clustering, SURVEY §2.8 "union-find via iterated
groupby") and transitive closure (SPARQL ``+``/``*`` property paths,
the RDFS ``subClassOf``/``subPropertyOf`` schema).

Both decide their plan with one broadcast gate
(``broadcast.gated_gather`` at ``BROADCAST_ROWS`` edges): at or under
it the edge list comes to the driver once and :func:`union_find` or
:func:`reach` answers without a shuffle; above it each runs
distributed rounds on the hash exchange (``grouped`` + ``safe_join``).

Connected components: min-label propagation + per-round pointer
doubling.
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

Transitive closure: semi-naive rounds Δ' = distinct(Δ ⋈ edges) ∖ P,
P ∪= Δ', whose first frontier is the whole edge set, or the seed's
out-edges when one start is fixed (reference ``sparql/src/exec.rs``
path_or_more).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple
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


def _pairs(t: pa.Table, a: str, b: str) -> Iterable[Tuple[str, str]]:
    return zip(t[a].to_pylist(), t[b].to_pylist()) if t.num_rows else ()


def reach(edges: Iterable[Tuple[str, str]],
          starts: Optional[Iterable[str]] = None) -> Dict[str, Set[str]]:
    """Driver-side closure: start → every node reachable over ≥1 edges
    (itself only through a cycle), for each node with an out-edge or
    each of ``starts``."""
    adj: Dict[str, Set[str]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
    out: Dict[str, Set[str]] = {}
    for start in (adj if starts is None else starts):
        seen: Set[str] = set()
        frontier = adj.get(start, set())
        while frontier:
            seen |= frontier
            frontier = {d for a in frontier for d in adj.get(a, ())} - seen
        out[start] = seen
    return out


def transitive_closure(edges, seed: Optional[str] = None, *,
                       num_partitions: int = 16, max_rounds: int = 64):
    """(s, o) edge Dataset → Dataset (s, o) of every pair joined by a
    path of ≥1 edges; with ``seed``, only the pairs whose s is it."""
    import ray.data as rd

    from .broadcast import BROADCAST_ROWS, gated_gather

    # one string type: path parts mix string and large_string, and the
    # gathered blocks must concat and the join keys agree
    def norm(b: pa.Table) -> pa.Table:
        return pa.table({"s": pc.cast(b["s"], pa.string()),
                         "o": pc.cast(b["o"], pa.string())})

    edges = edges.map_batches(norm, batch_format="pyarrow").materialize()
    small = gated_gather(edges, BROADCAST_ROWS)
    if small is not None:
        closed = reach(_pairs(small, "s", "o"),
                       None if seed is None else [seed])
        pairs = [(a, d) for a in sorted(closed) for d in sorted(closed[a])]
        return rd.from_arrow(pa.table({
            "s": pa.array([a for a, _ in pairs], pa.string()),
            "o": pa.array([d for _, d in pairs], pa.string())}))

    def rename(ds, s_to: str, o_to: str):
        return ds.map_batches(lambda b: pa.table({s_to: b["s"],
                                                  o_to: b["o"]}),
                              batch_format="pyarrow")

    first = edges if seed is None else edges.map_batches(
        lambda b: b.filter(pc.equal(b["s"], pa.scalar(seed, pa.string()))),
        batch_format="pyarrow")
    paths = delta = grouped(first, ["s", "o"],
                            num_partitions=num_partitions).materialize()
    right = rename(edges, "__m", "o").materialize()
    for _ in range(max_rounds):
        if delta.count() == 0:  # also a seed without out-edges
            return paths
        step = safe_join(rename(delta, "s", "__m"), right, "inner",
                         num_partitions, on=("__m",))
        step = grouped(step.select_columns(["s", "o"]), ["s", "o"],
                       num_partitions=num_partitions)
        delta = safe_join(step, paths, "left_anti", num_partitions,
                          on=("s", "o")).materialize()
        paths = paths.union(delta).materialize()
    raise RuntimeError(
        f"transitive_closure did not converge in {max_rounds} rounds "
        "(path length exceeds it) — raise max_rounds")


def connected_components(
    edges_ds,
    *,
    src: str = "src",
    dst: str = "dst",
    num_partitions: int = 16,
    max_rounds: int = 50,
):
    """edges Dataset (undirected; self-loops welcome) → Dataset
    ``(node, component)`` where component = min node id in the component.

    Driver-controlled fixpoint: bounded rounds, convergence by
    changed-label count (SURVEY §7.4 "fixpoint loops").
    """
    import ray.data as rd

    from .broadcast import BROADCAST_ROWS, gated_gather

    # symmetrize once: (a,b) ∪ (b,a) ∪ self-loops keep isolated nodes
    def sym(b: pa.Table) -> pa.Table:
        a1 = pc.cast(b[src], pa.string())
        a2 = pc.cast(b[dst], pa.string())
        return pa.table({
            "node": pa.chunked_array([a1, a2]),
            "nbr": pa.chunked_array([a2, a1]),
        })

    # materialize the edge and label tables once: every round re-reads
    # them, and an unbroken lazy lineage would re-execute the whole
    # upstream per round while stacking shuffle operators
    edges = edges_ds.map_batches(sym, batch_format="pyarrow").materialize()
    small = gated_gather(edges, BROADCAST_ROWS)
    if small is not None:
        # a driver-side union-find beats paying the per-round
        # join+groupby fixed cost diameter times
        items = sorted(union_find(_pairs(small, "node", "nbr")).items())
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
