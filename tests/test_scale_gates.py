"""Scale-gate equivalence: the distributed fallbacks (join-based
entity rewrite, distributed CC) must produce the same answers as the
broadcast fast paths they replace above the thresholds (r1 VERDICT
item 5, ADVICE on components convergence).  The operator-level gates
are pinned in tests/test_broadcast.py."""

import pyarrow as pa
import pytest


def _rows(ds):
    return sorted(tuple(sorted(r.items())) for r in
                  (ds.take_all() if hasattr(ds, "take_all") else ds))


def test_rewrite_via_join_matches_broadcast(ray_session):
    import ray.data as rd
    from sophia_rs_ray.stages.entity_dedup import (RewriteTerms,
                                                   rewrite_via_join)

    nt = rd.from_arrow(pa.table({
        "s": pa.array(["<e:1>", "<e:2>", "<e:3>"], pa.large_string()),
        "p": pa.array(["<p>"] * 3, pa.large_string()),
        "o": pa.array(["<e:2>", '"x"', "<e:1>"], pa.large_string())}))
    mapping = {"<e:2>": "<e:1>"}
    map_ds = rd.from_arrow(pa.table({
        "old": pa.array(["<e:2>"], pa.string()),
        "canon": pa.array(["<e:1>"], pa.string())}))
    bcast = nt.map_batches(RewriteTerms,
                           fn_constructor_kwargs={"mapping": mapping},
                           batch_format="pyarrow", concurrency=1)
    joined = rewrite_via_join(nt, map_ds)
    assert _rows(bcast) == _rows(joined)


def test_connected_components_nonconvergence_raises(ray_session,
                                                    monkeypatch):
    import ray.data as rd
    from sophia_rs_ray.functions import broadcast
    from sophia_rs_ray.functions.components import connected_components

    # chain forced onto the distributed path with a round budget
    # smaller than the diameter → must raise, not split silently
    monkeypatch.setattr(broadcast, "BROADCAST_ROWS", 0)
    edges = rd.from_arrow(pa.table({
        "src": pa.array([f"n{i:02d}" for i in range(11)], pa.string()),
        "dst": pa.array([f"n{i + 1:02d}" for i in range(11)], pa.string()),
    }))
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components(edges, max_rounds=2)
    out = connected_components(edges, max_rounds=15)
    comps = {r["component"] for r in out.take_all()}
    assert comps == {"n00"}
