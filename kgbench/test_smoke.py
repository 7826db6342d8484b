"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest kgbench/test_smoke.py -q

Runs every workload untraced and traced at toy sizes and checks the
output format against BENCHMARK.json (metric names, units, counts),
that every correctness check passes on correct output, and that each
check fails on wrong output.
"""

from __future__ import annotations

import collections
import json
import os
import sys

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from kgbench import (canon, common, corpus_curate, crawl_build,  # noqa: E402
                     graph_layers, inputs, run)

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(crawl_build, "PASS_PAGES", 64)
    monkeypatch.setattr(crawl_build, "WARM_PAGES", 32)
    monkeypatch.setattr(crawl_build, "MAX_PASSES", 2)
    monkeypatch.setattr(crawl_build, "KERNEL_PAGES", 32)
    monkeypatch.setattr(graph_layers, "MIN_LOOKUPS", 10)
    monkeypatch.setattr(graph_layers, "MIN_SPARQL", 5)
    monkeypatch.setattr(corpus_curate, "DOCS", 200)
    monkeypatch.setattr(corpus_curate, "WARM_DOCS", 50)
    monkeypatch.setattr(canon, "KERNEL_GRAPHS", 20)
    monkeypatch.setattr(canon, "RELABEL_SAMPLE", 5)


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_matches_code():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in e2e and len(e2e) == len(set(e2e))
    layer = [m["name"] for m in SPEC["per_layer"]]
    assert len(layer) == len(set(layer))
    declared = set(run.CONTEXT_METRICS)
    for w in run.WORKLOADS:
        declared |= set(__import__(f"kgbench.{w}",
                                   fromlist=["x"]).LAYER_METRICS)
    assert declared == set(layer)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_output(tiny, capsys, workload, trace):
    out = _result(capsys, "--workload", workload, "--seed", "3",
                  "--seconds", "1", "--trace", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if trace == "0":
        assert all(v["value"] > 0 for v in out["metrics"].values())
    else:
        own = __import__(f"kgbench.{workload}", fromlist=["x"]).LAYER_METRICS
        walls = [n for n in own if n.endswith(("_s", ".s"))]
        assert all(out["metrics"][n]["value"] > 0 for n in walls)
        assert all(v["value"] >= 0 for v in out["metrics"].values())


def test_inputs_are_seeded():
    assert inputs.page_ranges(5, [10, 10]) == inputs.page_ranges(5, [10, 10])
    (a, n), (b, _) = inputs.page_ranges(5, [10, 10])
    assert b == a + n
    assert inputs.documents_table(4, 50).equals(inputs.documents_table(4, 50))
    assert not inputs.documents_table(4, 50).equals(
        inputs.documents_table(5, 50))


@pytest.fixture(scope="module")
def session():
    s = common.Session().open()
    yield s
    s.close()


def test_crawl_check_rejects_wrong_layouts(session):
    first, n = 1000, 40
    pages = common.fresh_dir("smoke", "pages")
    out = common.fresh_dir("smoke", "out")
    inputs.write_pages(pages, first, n, crawl_build.BLOCKS)
    crawl_build._build(pages, out)
    assert crawl_build.check_layouts(out, first, n) == ""
    assert crawl_build.check_layouts(out, first, n + 1).startswith("P=")
    os.remove(os.path.join(out, "osp", sorted(
        d for d in os.listdir(os.path.join(out, "osp"))
        if d.startswith("shard="))[0], "part-0.parquet"))
    assert "row counts" in crawl_build.check_layouts(out, first, n)


def test_graph_checks_reject_wrong_rows(session):
    import random

    pages = common.fresh_dir("smoke", "gpages")
    out = common.fresh_dir("smoke", "gout")
    inputs.write_pages(pages, 2000, 40, crawl_build.BLOCKS)
    crawl_build._build(pages, out)
    g = graph_layers.Graph(out, crawl_build.SHARDS)
    rng = random.Random(0)
    for shape in graph_layers.SHAPES:
        text, cols, want = graph_layers.make_query(shape, g, rng)
        t = common.Tally()
        graph_layers._call(g, ("sparql", shape, (text, cols, want)), t)
        bad = want + collections.Counter({("x",) * len(cols): 1})
        graph_layers._call(g, ("sparql", shape, (text, cols, bad)), t)
        assert (t.attempted, t.failed) == (2, 1), shape
    s, _, _ = g.row(rng)
    t = common.Tally()
    graph_layers._call(g, ("lookup", "s", {"s": s}), t)
    assert t.failed == 0
    g.spo = g.spo.slice(1)
    graph_layers._call(g, ("lookup", "s", {"s": g.cols["s"][0]}), t)
    assert t.failed == 1


def test_read_path_floor_is_enforced(session, monkeypatch):
    pages = common.fresh_dir("smoke", "fpages")
    out = common.fresh_dir("smoke", "fout")
    inputs.write_pages(pages, 3000, 40, crawl_build.BLOCKS)
    crawl_build._build(pages, out)
    # a deadline already past: no timed round runs, the floor is missed
    monkeypatch.setattr(graph_layers, "RUN_DEADLINE_S", 0)
    ctx = run.Context(0, 1, traced=True)
    graph_layers.measure(ctx, out, crawl_build.SHARDS, common.Metrics())
    assert ctx.tally.failed == 1
    assert "floor" in ctx.tally.errors[0]


def test_curate_digest_is_order_insensitive_and_exact():
    t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    assert corpus_curate.digest(t) == corpus_curate.digest(t.take([2, 0, 1]))
    assert corpus_curate.digest(t) != corpus_curate.digest(
        pa.table({"a": [1, 2, 4], "b": ["x", "y", "z"]}))
    assert corpus_curate.digest(t) != corpus_curate.digest(
        t.rename_columns(["a", "c"]))


def test_c14n_relabel_check_catches_label_dependence(monkeypatch):
    import sophia_rs_ray.c14n as c14n

    ctx = run.Context(0, 1, traced=True)
    rows = pa.table({
        "url": ["u1", "u1", "u2"],
        "s": ["<http://e/1>", "_:b0_x", "<http://e/2>"],
        "p": ["<http://p/a>", "<http://p/b>", "<http://p/a>"],
        "o": ["_:b0_x", '"v"', '"w"']})
    canon._c14n_kernel(ctx, rows, common.Metrics())
    assert ctx.tally.attempted == 2 and ctx.tally.failed == 0
    monkeypatch.setattr(c14n, "normalize_quads", lambda qs, **kw: repr(qs))
    canon._c14n_kernel(ctx, rows, common.Metrics())
    assert ctx.tally.failed >= 1
