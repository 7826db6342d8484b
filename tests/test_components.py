"""Connected components: distributed min-label propagation vs union-find."""

import pyarrow as pa


EDGES = [
    ("a", "b"), ("b", "c"),          # {a,b,c}
    ("d", "e"),                      # {d,e}
    ("f", "f"),                      # isolated {f}
    ("h", "g"), ("g", "i"), ("i", "j"), ("j", "k"),  # chain {g..k}
]


def test_union_find_driver():
    from sophia_rs_ray.functions.components import union_find

    comp = union_find(EDGES)
    assert comp["a"] == comp["b"] == comp["c"] == "a"
    assert comp["d"] == comp["e"] == "d"
    assert comp["f"] == "f"
    assert comp["k"] == comp["h"] == "g"


def test_connected_components_distributed(ray_session):
    import ray.data as rd

    from sophia_rs_ray.functions.components import (
        connected_components,
        union_find,
    )

    ds = rd.from_arrow(pa.table({
        "src": [a for a, _ in EDGES],
        "dst": [b for _, b in EDGES],
    }))
    got = {r["node"]: r["component"]
           for r in connected_components(ds, num_partitions=4).take_all()}
    assert got == union_find(EDGES)


def test_connected_components_distributed_loop(ray_session, monkeypatch):
    """``BROADCAST_ROWS = 0`` forces the join+groupby fixpoint rounds
    (the at-scale path that the small-input union-find shortcut
    skips)."""
    import ray.data as rd

    from sophia_rs_ray.functions import broadcast
    from sophia_rs_ray.functions.components import (
        connected_components,
        union_find,
    )

    monkeypatch.setattr(broadcast, "BROADCAST_ROWS", 0)
    ds = rd.from_arrow(pa.table({
        "src": [a for a, _ in EDGES],
        "dst": [b for _, b in EDGES],
    }))
    got = {r["node"]: r["component"]
           for r in connected_components(ds, num_partitions=4).take_all()}
    assert got == union_find(EDGES)


def test_chain_converges_in_log_rounds(ray_session, monkeypatch):
    """Pointer-doubling bound (VERDICT r4 item 4): a path graph of
    2^14 nodes (diameter 16383 — hopeless for pure min-propagation in
    50 rounds) converges in ≤ ⌈log₂ n⌉ + 3 rounds with labels equal to
    union_find's."""
    import math

    import ray.data as rd

    import sophia_rs_ray.functions.components as C
    from sophia_rs_ray.functions import broadcast

    monkeypatch.setattr(broadcast, "BROADCAST_ROWS", 0)
    n = 2 ** 14
    edges = [(f"n{i:06d}", f"n{i + 1:06d}") for i in range(n - 1)]
    ds = rd.from_arrow(pa.table({
        "src": [a for a, _ in edges],
        "dst": [b for _, b in edges],
    }))
    got = {r["node"]: r["component"]
           for r in C.connected_components(
               ds, num_partitions=4, max_rounds=20).take_all()}
    assert C.LAST_ROUNDS <= math.ceil(math.log2(n)) + 3
    assert got == C.union_find(edges)
