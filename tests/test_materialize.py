"""SPO/POS/OSP materialization, lineage manifests, checkpoint-resume,
salted skew split, and pruned pattern scans (the FastGraph mirror,
SURVEY §1.4/§2.3/§7.4)."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sophia_rs_ray.stages.materialize import (
    ORDERS, dataset_digest, load_manifest, materialize_graph, shard_of,
    triples_matching,
)

N_SHARDS = 4
SALTS = {"spo": 1, "pos": 3, "osp": 1}


def _nt_table():
    rows = []
    for i in range(200):
        s = f"<http://ex.org/s/{i % 37}>"
        p = f"<http://ex.org/p/{i % 5}>"
        o = f'"v{i}"' if i % 3 else f"<http://ex.org/o/{i % 11}>"
        rows.append((s, p, o))
    rows.append(rows[0])  # duplicate row survives (bag semantics here)
    return pa.table({
        "s": pa.array([r[0] for r in rows], pa.large_string()),
        "p": pa.array([r[1] for r in rows], pa.large_string()),
        "o": pa.array([r[2] for r in rows], pa.large_string()),
    })


@pytest.fixture(scope="module")
def graph_dir(ray_session, tmp_path_factory):
    import ray.data as rd

    out = str(tmp_path_factory.mktemp("graph"))
    ds = rd.from_arrow(_nt_table()).repartition(3)
    report = materialize_graph(ds, out, num_shards=N_SHARDS, salts=SALTS)
    return out, report


def test_layouts_sorted_and_complete(graph_dir):
    out, report = graph_dir
    tbl = _nt_table()
    for order, cols in ORDERS.items():
        assert report[order]["rows"] == tbl.num_rows
        seen = 0
        for (shard, salt), row in load_manifest(out, order).items():
            path = os.path.join(out, order, f"shard={shard}",
                                f"part-{salt}.parquet")
            if row["rows"] == 0:  # an empty partition has no data file
                assert not os.path.exists(path)
                continue
            data = pq.read_table(path)
            seen += data.num_rows
            assert data.num_rows == row["rows"]
            # every row hashed to this shard by its leading term
            lead = data[cols[0]].to_pylist()
            assert all(shard_of(t, N_SHARDS) == shard for t in lead)
            # each partition file is sorted by the layout's column order
            keys = list(zip(*[data[c].to_pylist() for c in cols]))
            assert keys == sorted(keys)
            assert row["min_key"] == min(lead) and row["max_key"] == max(lead)
        assert seen == tbl.num_rows
    # pos salted into >N_SHARDS partitions (skew split)
    assert len(load_manifest(out, "pos")) > len(load_manifest(out, "spo"))


def test_digest_is_layout_invariant(graph_dir):
    out, _ = graph_dir
    d = {o: dataset_digest(out, o) for o in ORDERS}
    assert d["spo"] == d["pos"] == d["osp"] != 0


def test_pattern_scans_match_brute_force(graph_dir):
    out, _ = graph_dir
    tbl = _nt_table()
    rows = set(zip(tbl["s"].to_pylist(), tbl["p"].to_pylist(),
                   tbl["o"].to_pylist()))

    cases = [
        {"s": "<http://ex.org/s/3>"},
        {"p": "<http://ex.org/p/2>"},
        {"o": "<http://ex.org/o/4>"},
        {"s": "<http://ex.org/s/3>", "p": "<http://ex.org/p/1>"},
        {"p": "<http://ex.org/p/0>", "o": '"v45"'},
        {"s": "<http://ex.org/s/999>"},  # absent
        {},
    ]
    for pat in cases:
        got = {(r["s"], r["p"], r["o"])
               for r in triples_matching(out, num_shards=N_SHARDS, **pat).take_all()}
        want = {r for r in rows
                if all(r["spo".index(k)] == v for k, v in pat.items())}
        assert got == want, pat


def test_distinct_exchange_block_count_invariant(ray_session, tmp_path):
    """distinct=True over 1 and over 3 input blocks: the duplicate row
    lands in the same partition either way, so both layouts hold the
    same distinct triples (equal row counts and digests per order)."""
    import ray.data as rd

    n_distinct = _nt_table().num_rows - 1  # one duplicated row
    digests = []
    for n_blocks in (1, 3):
        ds = rd.from_arrow(_nt_table()).repartition(n_blocks)
        out = str(tmp_path / f"b{n_blocks}")
        rep = materialize_graph(ds, out, num_shards=N_SHARDS, salts=SALTS,
                                distinct=True)
        assert all(rep[o]["rows"] == n_distinct for o in ORDERS)
        digests.append({o: dataset_digest(out, o) for o in ORDERS})
    assert digests[0] == digests[1]
    assert len(set(digests[0].values())) == 1


def test_fanin_tree_matches_direct_exchange(graph_dir, ray_session, tmp_path):
    """fanin=2 over 8 blocks forces a 3-deep combine tree (the 100-TB
    bounded-fan-in path); output must be bit-identical to the direct
    exchange (graph_dir, fanin=256 > blocks)."""
    import ray.data as rd

    out_direct, report_direct = graph_dir
    ds = rd.from_arrow(_nt_table()).repartition(8)
    out = str(tmp_path / "tree")
    report = materialize_graph(ds, out, num_shards=N_SHARDS, salts=SALTS,
                               fanin=2)
    for o in ORDERS:
        assert report[o]["rows"] == report_direct[o]["rows"]
        assert dataset_digest(out, o) == dataset_digest(out_direct, o)


@pytest.mark.parametrize("n_blocks", [1, 3])
def test_single_partition_layout(ray_session, tmp_path, n_blocks):
    """One order, one shard, no salt → a one-partition exchange (the
    job's ``--orders spo --shards 1``).  Rows and digest equal a
    brute-force distinct set of the input."""
    import ray.data as rd

    from sophia_rs_ray.stages.materialize import _row_digests

    out = str(tmp_path / "one")
    ds = rd.from_arrow(_nt_table()).repartition(n_blocks)
    rep = materialize_graph(ds, out, orders=("spo",), num_shards=1,
                            distinct=True)
    tbl = _nt_table()
    rows = sorted(set(zip(*(tbl[c].to_pylist() for c in "spo"))))
    want = pa.table({c: pa.array([r[i] for r in rows], pa.large_string())
                     for i, c in enumerate("spo")})
    assert rep["spo"]["rows"] == len(rows) == tbl.num_rows - 1
    assert list(load_manifest(out, "spo")) == [(0, 0)]
    assert dataset_digest(out, "spo") == _row_digests(want, "spo")
    assert pq.read_table(os.path.join(
        out, "spo", "shard=0", "part-0.parquet")).equals(want)


@pytest.mark.parametrize("num_shards", [0, -1])
def test_rejects_shard_count_below_one(ray_session, tmp_path, num_shards):
    import ray.data as rd

    with pytest.raises(ValueError, match="num_shards"):
        materialize_graph(rd.from_arrow(_nt_table()), str(tmp_path / "g"),
                          num_shards=num_shards)
    assert not os.path.exists(tmp_path / "g")


def test_resume_skips_done_and_repairs_missing(graph_dir, ray_session):
    import ray.data as rd

    out, _ = graph_dir
    # wipe one shard of pos (simulate a mid-run crash)
    victims = [d for d in os.listdir(os.path.join(out, "pos"))
               if d.startswith("shard=")]
    victim = sorted(victims)[0]
    vshard = int(victim.split("=")[1])
    shutil.rmtree(os.path.join(out, "pos", victim))

    ds = rd.from_arrow(_nt_table())
    report = materialize_graph(ds, out, num_shards=N_SHARDS, salts=SALTS)
    assert report["spo"]["written"] == []  # fully skipped
    assert all(shard == vshard for shard, _salt in report["pos"]["written"])
    assert vshard not in {s for s, _ in report["pos"]["skipped"]}
    assert report["pos"]["rows"] == _nt_table().num_rows
    # repaired layout answers scans again
    got = triples_matching(out, p="<http://ex.org/p/2>",
                           num_shards=N_SHARDS).count()
    tbl = _nt_table()
    assert got == sum(1 for x in tbl["p"].to_pylist()
                      if x == "<http://ex.org/p/2>")


def test_full_resume_reads_no_input(ray_session, tmp_path):
    """Every partition already written, empty ones included: the re-run
    never executes its input (an upstream stage that leaves a marker
    file never runs)."""
    import ray.data as rd

    out = str(tmp_path / "g")
    first = materialize_graph(rd.from_arrow(_nt_table()), out,
                              num_shards=N_SHARDS, salts=SALTS)
    for o in ORDERS:
        assert len(first[o]["written"]) == N_SHARDS * SALTS[o]
    # the layout has partitions that got no rows (5 predicates over
    # 4 × 3 pos partitions), so the case they make is covered
    empty = [r for r in load_manifest(out, "pos").values() if r["rows"] == 0]
    assert empty and all(not os.path.exists(os.path.join(
        out, "pos", f"shard={r['shard']}", f"part-{r['salt']}.parquet"))
        for r in empty)

    marker = str(tmp_path / "read")

    def mark(block):
        open(marker, "a").close()
        return block

    ds = rd.from_arrow(_nt_table()).map_batches(mark,
                                                 batch_format="pyarrow")
    report = materialize_graph(ds, out, num_shards=N_SHARDS, salts=SALTS)
    assert not os.path.exists(marker)
    for o in ORDERS:
        assert report[o]["written"] == []
        assert report[o]["rows"] == _nt_table().num_rows
        assert dataset_digest(out, o) == dataset_digest(out, "spo")


def test_sparql_over_materialized_graph(ray_session, tmp_path):
    """select() over MaterializedGraph: constant-predicate BGPs prune
    to the POS/SPO layouts and results equal the direct-Dataset run."""
    import pyarrow as pa
    import ray.data as rd

    from sophia_rs_ray.stages.materialize import (
        MaterializedGraph, materialize_graph,
    )
    from sophia_rs_ray.sparql import select

    rows = [
        ("<urn:a>", "<urn:knows>", "<urn:b>"),
        ("<urn:b>", "<urn:knows>", "<urn:c>"),
        ("<urn:a>", "<urn:name>", '"A"'),
        ("<urn:b>", "<urn:name>", '"B"'),
    ]
    nt = rd.from_arrow(pa.table({
        "s": pa.array([r[0] for r in rows], pa.large_string()),
        "p": pa.array([r[1] for r in rows], pa.large_string()),
        "o": pa.array([r[2] for r in rows], pa.large_string())}))
    out = str(tmp_path / "g")
    materialize_graph(nt, out, num_shards=4)
    mg = MaterializedGraph(out, num_shards=4)

    q = "SELECT ?x ?n WHERE { ?x <urn:knows> ?y . ?x <urn:name> ?n }"
    got = sorted((r["x"], r["n"]) for r in select(q, mg).take_all())
    want = sorted((r["x"], r["n"]) for r in select(q, nt).take_all())
    assert got == want == [("<urn:a>", '"A"'), ("<urn:b>", '"B"')]

    # transitive path over the pruned POS read
    q2 = "SELECT ?o WHERE { <urn:a> <urn:knows>+ ?o }"
    got2 = sorted(r["o"] for r in select(q2, mg).take_all())
    assert got2 == ["<urn:b>", "<urn:c>"]


def test_dictionary_input_equals_plain(ray_session, tmp_path):
    """A Parquet input written from Arrow dictionaries reads back
    dictionary-typed; ``materialize_graph`` and ``dedup_triples`` decode
    it where its blocks enter the exchange and give the rows and digest
    of the plain input, with large_string layout columns."""
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from sophia_rs_ray.functions.exchange import parquet_blocks
    from sophia_rs_ray.stages.dedup import dedup_triples

    plain = _nt_table()
    path = str(tmp_path / "dict.parquet")
    pq.write_table(pa.table({c: pc.dictionary_encode(plain[c])
                             for c in plain.column_names}), path)
    dict_ds = rd.read_parquet(path)
    assert all(pa.types.is_dictionary(t) for t in dict_ds.schema().types)

    plain_dir, dict_dir = str(tmp_path / "plain"), str(tmp_path / "dict")
    for ds, out in ((rd.from_arrow(plain).repartition(3), plain_dir),
                    (dict_ds, dict_dir)):
        rep = materialize_graph(ds, out, num_shards=N_SHARDS, salts=SALTS)
        assert all(rep[o]["rows"] == plain.num_rows for o in ORDERS)
    for order in ORDERS:
        assert dataset_digest(plain_dir, order) == \
            dataset_digest(dict_dir, order)
        for d, _dirs, files in os.walk(os.path.join(dict_dir, order)):
            for f in files:
                if f.endswith(".parquet"):
                    sch = pq.read_schema(os.path.join(d, f))
                    assert set(sch.types) == {pa.large_string()}

    def distinct(src):
        t = pa.concat_tables(ray.get(
            dedup_triples(src, carry_min=()).to_arrow_refs()))
        assert set(t.schema.types) == {pa.large_string()}
        return sorted(zip(t["s"].to_pylist(), t["p"].to_pylist(),
                          t["o"].to_pylist()))

    want = distinct(rd.from_arrow(plain))
    assert len(want) == 200   # the one duplicate row collapsed
    assert distinct(dict_ds) == distinct(parquet_blocks(path)) == want


def test_layout_terms_have_dictionary_pages(graph_dir):
    """Terms are interned on disk: every s/p/o column chunk of a written
    layout is stored with a Parquet dictionary page."""
    out, _ = graph_dir
    chunks = 0
    for order in ORDERS:
        for d, _dirs, files in os.walk(os.path.join(out, order)):
            for f in files:
                if not f.endswith(".parquet"):
                    continue
                meta = pq.ParquetFile(os.path.join(d, f)).metadata
                for i in range(meta.num_row_groups):
                    rg = meta.row_group(i)
                    for j in range(rg.num_columns):
                        col = rg.column(j)
                        assert col.path_in_schema in ("s", "p", "o")
                        assert col.has_dictionary_page, (f, col)
                        chunks += 1
    assert chunks >= 3 * len(ORDERS)


@pytest.mark.parametrize("seed", range(8))
def test_resume_after_random_damage(seed, ray_session, tmp_path):
    """Resume fuzz (north-rule resumability): delete a RANDOM subset of
    shard directories and/or manifest files across all three layouts —
    the re-run must repair exactly the damage and the repaired layouts
    must answer scans identically to a fresh build."""
    import random

    import ray.data as rd

    rng = random.Random(17000 + seed)
    out = str(tmp_path / "g")
    ds = rd.from_arrow(_nt_table())
    materialize_graph(ds, out, num_shards=N_SHARDS, salts=SALTS)

    damaged = 0
    for order in ("spo", "pos", "osp"):
        for d in sorted(os.listdir(os.path.join(out, order))):
            if not d.startswith("shard="):
                continue
            r = rng.random()
            if r < 0.25:
                shutil.rmtree(os.path.join(out, order, d))
                damaged += 1
            elif r < 0.40:
                # manifest-only loss: data present but uncommitted —
                # the shard must be rebuilt (manifest IS the commit)
                for f in os.listdir(os.path.join(out, order, d)):
                    if f.startswith("_manifest-"):
                        os.remove(os.path.join(out, order, d, f))
                        damaged += 1
    report = materialize_graph(rd.from_arrow(_nt_table()), out,
                               num_shards=N_SHARDS, salts=SALTS)
    assert sum(len(report[o]["written"]) for o in
               ("spo", "pos", "osp")) >= min(damaged, 1)

    tbl = _nt_table()
    for pred in {x for x in tbl["p"].to_pylist()}:
        got = triples_matching(out, p=pred, num_shards=N_SHARDS).count()
        want = sum(1 for x in tbl["p"].to_pylist() if x == pred)
        assert got == want, f"seed={seed} {pred}: {got} != {want}"
