"""Ray-level flagship pipeline tests (uses the session-scoped Ray fixture)."""

import os

import pytest


N = 200


@pytest.fixture(scope="module")
def pages(ray_session):
    from sophia_rs_ray.sources.pages import pages_dataset

    return pages_dataset(N, override_num_blocks=4)


def test_kg_pipeline_matches_oracle(pages):
    from sophia_rs_ray.pipelines.kg import kg_pipeline
    from sophia_rs_ray.sources.pages import oracle_table

    out = kg_pipeline(pages).to_pandas()
    got = set(zip(out["s"], out["p"], out["o"]))
    assert len(got) == len(out), "dedup left duplicates"
    ora = oracle_table(N)
    want = set(zip(ora["s"].to_pylist(), ora["p"].to_pylist(),
                   ora["o"].to_pylist()))
    tp = len(got & want)
    assert tp / len(got) >= 0.95
    assert tp / len(want) >= 0.95
    # sorted by (s, p, o)
    key = list(zip(out["s"], out["p"], out["o"]))
    assert key == sorted(key)


def test_extract_text_distributed(pages):
    from sophia_rs_ray.pipelines.kg import extract_text
    from sophia_rs_ray.sources.pages import page_record

    df = extract_text(pages).to_pandas().set_index("url")["text"]
    for i in (0, 7, 13, 31, 199):
        rec = page_record(i, N)
        assert df[rec["url"]] == rec["text"]


def test_dedup_idempotent_union(pages, ray_session):
    """SetGraph semantics: G ∪ G dedups back to G (api/src/graph.rs:570)."""
    from sophia_rs_ray.pipelines.kg import kg_pipeline
    from sophia_rs_ray.stages.dedup import dedup_triples

    once = kg_pipeline(pages.limit(40), dedup=True, sort=False, keep_url=False)
    doubled = once.union(once)
    again = dedup_triples(doubled, carry_min=())
    n1 = once.count()
    n2 = again.count()
    assert n1 == n2


#: block sizes of the differential test: none a multiple of DIFF_BATCH,
#: and together they cover no-JSON-LD (i % 11 == 7) and broken-JSON-LD
#: (i % 29 == 13) pages
DIFF_BLOCKS = (41, 33, 23)
DIFF_BATCH = 10
DIFF_ORDERS = ("spo", "pos", "osp")


def _diff_pages():
    import pyarrow as pa

    from sophia_rs_ray.sources.pages import gen_pages_batch

    n = sum(DIFF_BLOCKS)
    tables, lo = [], 0
    for size in DIFF_BLOCKS:
        ids = pa.table({"id": pa.array(range(lo, lo + size), pa.int64())})
        tables.append(gen_pages_batch(ids, n).select(["url", "html"]))
        lo += size
    # one hand-made page whose JSON-LD script is not JSON at all
    bad = tables[-1].slice(0, 1).to_pydict()
    bad["url"] = ["https://broken.example/p/0"]
    bad["html"] = [b'<html><script type="application/ld+json">'
                   b'{"@id": "x:s", "unterminated": </script></html>']
    tables[-1] = pa.concat_tables(
        [tables[-1], pa.table(bad, schema=tables[-1].schema)])
    return tables


def _layout_summary(out_dir):
    import pyarrow.dataset as pds

    from sophia_rs_ray.stages.materialize import dataset_digest

    return {o: (pds.dataset(os.path.join(out_dir, o),
                            format="parquet").count_rows(),
                dataset_digest(out_dir, o)) for o in DIFF_ORDERS}


def test_fused_map_side_matches_dataset_prefix(ray_session, tmp_path):
    """kg_materialize_pipeline runs extract + combiner inside the
    exchange's map tasks; its layouts must equal those of the explicit
    Dataset prefix map_batches(extract_nt_batch) → prededup_batch →
    materialize_graph, in all three orders.  A re-run after losing one
    shard's manifest rebuilds exactly that partition to the same
    digest."""
    import ray.data as rd

    from sophia_rs_ray.pipelines.kg import kg_materialize_pipeline
    from sophia_rs_ray.stages.dedup import add_spo_key, prededup_batch
    from sophia_rs_ray.stages.extract import extract_nt_batch
    from sophia_rs_ray.stages.materialize import materialize_graph

    tables = _diff_pages()
    pages = rd.from_arrow(tables)
    assert pages.num_blocks() == len(DIFF_BLOCKS)

    ref_dir = str(tmp_path / "prefix")
    nt = pages.map_batches(lambda b: extract_nt_batch(b, keep=()),
                           batch_format="pyarrow", batch_size=DIFF_BATCH)
    nt = nt.map_batches(
        lambda b: prededup_batch(add_spo_key(b)).drop_columns(["spo_key"]),
        batch_format="pyarrow")
    materialize_graph(nt, ref_dir, orders=DIFF_ORDERS, num_shards=8,
                      distinct=True)
    want = _layout_summary(ref_dir)
    assert want["spo"][0] > 0
    assert len(set(want.values())) == 1

    out = str(tmp_path / "fused")
    rep = kg_materialize_pipeline(pages, out, num_shards=8,
                                  orders=DIFF_ORDERS, batch_size=DIFF_BATCH)
    assert _layout_summary(out) == want
    assert {o: rep[o]["rows"] for o in DIFF_ORDERS} == \
        {o: want[o][0] for o in DIFF_ORDERS}

    # pandas-format page blocks reach the map side as they are
    pd_dir = str(tmp_path / "pandas")
    kg_materialize_pipeline(
        rd.from_pandas([t.to_pandas() for t in tables]), pd_dir,
        num_shards=8, orders=DIFF_ORDERS, batch_size=DIFF_BATCH)
    assert _layout_summary(pd_dir) == want

    # resume: drop one spo shard's manifest, re-run, same layouts
    shard_dir = sorted(d for d in os.listdir(os.path.join(out, "spo"))
                       if d.startswith("shard="))[0]
    os.remove(os.path.join(out, "spo", shard_dir, "_manifest-0.json"))
    rep2 = kg_materialize_pipeline(pages, out, num_shards=8,
                                   orders=DIFF_ORDERS, batch_size=DIFF_BATCH)
    shard = int(shard_dir.split("=")[1])
    assert rep2["spo"]["written"] == [(shard, 0)]
    assert rep2["spo"]["skipped"] and rep2["pos"]["skipped"]
    assert rep2["pos"]["written"] == rep2["osp"]["written"] == []
    assert _layout_summary(out) == want


def test_extract_prededup_block_handles_empty_block():
    """A page block with no rows maps to an empty (s, p, o) table, so an
    empty input block splits into no pieces instead of failing."""
    import pyarrow as pa

    from sophia_rs_ray.pipelines.kg import extract_prededup_block

    empty = pa.table({"url": pa.array([], pa.string()),
                      "html": pa.array([], pa.large_binary())})
    got = extract_prededup_block(empty, batch_size=4)
    assert got.num_rows == 0 and got.column_names == ["s", "p", "o"]
