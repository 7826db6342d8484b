"""``exchange.parquet_blocks``, the raw-task Parquet source: the rows
it yields equal ``pyarrow.parquet.read_table``'s for a file, a
directory of files, an empty file and a pushed-down filter; it splits
a table as Ray Data's read does; and an exchange sizes itself from it
as from the ``read_parquet`` Dataset of the same path."""

import random

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

WORDS = "the of and graph node edge query text token corpus crawl".split()


def _docs(n: int, seed: int, first_id: int = 0) -> pa.Table:
    rng = random.Random(seed)
    return pa.table({
        "doc_id": pa.array(range(first_id, first_id + n), pa.int64()),
        "text": pa.array([" ".join(rng.choice(WORDS) for _ in
                                   range(rng.randint(20, 80)))
                          for _ in range(n)], pa.string()),
        "lang": pa.array([("en", "de", None)[i % 3] for i in range(n)],
                         pa.string()),
    })


def _read(src) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(list(src)))


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by("doc_id")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("parquet_blocks")
    one = root / "one.parquet"
    pq.write_table(_docs(300, 1), one)
    many = root / "many.parquet"
    many.mkdir()
    for f in range(3):
        pq.write_table(_docs(100, 10 + f, first_id=100 * f),
                       many / f"part-{f}.parquet")
    (many / "_SUCCESS").write_text("")
    return str(one), str(many)


@pytest.mark.parametrize("which", [0, 1], ids=["file", "directory"])
@pytest.mark.parametrize("columns", [None, ["doc_id", "text"]],
                         ids=["all", "projected"])
def test_rows_equal_read_table(which, columns, files, ray_session):
    from sophia_rs_ray.functions.exchange import parquet_blocks

    path = files[which]
    want = pq.read_table(path, columns=columns)
    got = _read(parquet_blocks(path, columns))
    assert got.schema.names == want.schema.names
    assert _sorted(got).equals(_sorted(want))


def test_empty_file_is_one_typed_block(tmp_path, ray_session):
    import ray

    from sophia_rs_ray.functions.exchange import parquet_blocks

    path = str(tmp_path / "empty.parquet")
    pq.write_table(_docs(0, 0), path)
    blocks = ray.get(list(parquet_blocks(path, ["doc_id", "text"])))
    assert len(blocks) == 1
    assert blocks[0].num_rows == 0
    assert blocks[0].schema.equals(
        pq.read_table(path, columns=["doc_id", "text"]).schema)


@pytest.mark.parametrize("which", [0, 1], ids=["file", "directory"])
def test_filter_pushdown_equals_read_table(which, files, ray_session):
    from sophia_rs_ray.functions.exchange import parquet_blocks

    path = files[which]
    flt = pc.field("doc_id") >= 150
    want = pq.read_table(path, columns=["doc_id"], filters=flt)
    got = _read(parquet_blocks(path, ["doc_id"], filter=flt))
    assert want.num_rows > 0
    assert _sorted(got).equals(_sorted(want))


def test_splits_as_ray_data_reads(tmp_path, monkeypatch, ray_session):
    """The bench-size table (5,000 documents in one file) gets as many
    blocks as Ray Data's read: twice the CPUs — 4 on the benchmark's
    2-CPU cluster."""
    import ray
    import ray.data as rd

    from sophia_rs_ray.functions.exchange import parquet_blocks

    path = str(tmp_path / "documents.parquet")
    pq.write_table(_docs(5000, 7), path)
    src = parquet_blocks(path, ["doc_id", "text"])
    blocks = ray.get(list(src))
    assert len(blocks) == len(rd.read_parquet(
        path, columns=["doc_id", "text"]).to_arrow_refs())
    assert len(blocks) == 2 * int(ray.cluster_resources()["CPU"])
    assert sum(b.num_rows for b in blocks) == 5000
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 2.0})
    assert parquet_blocks(path, ["doc_id", "text"]).splits() == [4]


def test_auto_partitions_equal_read_parquet(files, ray_session):
    import ray.data as rd

    from sophia_rs_ray.functions.exchange import (auto_partitions,
                                                  parquet_blocks)

    for path in files:
        assert auto_partitions(parquet_blocks(path)) == \
            auto_partitions(rd.read_parquet(path))
        assert auto_partitions(parquet_blocks(path),
                               bytes_per_partition=1024) == \
            auto_partitions(rd.read_parquet(path), bytes_per_partition=1024)
