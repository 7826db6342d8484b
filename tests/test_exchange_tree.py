"""Round-4 exchange hardening (VERDICT #1 + ADVICE high):

- hash_aggregate's fan-in merge tree bounds reduce-task argument
  counts and driver-held refs at ``fanin`` per level, independent of
  block count (>=10^3 blocks driven end-to-end here);
- mixed dictionary/plain partials (per-piece interning threshold
  straddled by block size) concat cleanly in the reduce — the exact
  ArrowTypeError repro from round-3 ADVICE.
"""

import os
import re

import pyarrow as pa
import pyarrow.compute as pc
import pytest


def _tree_remaining_bound(n_pushes: int, fanin: int) -> None:
    from sophia_rs_ray.functions.exchange import _MergeTree

    merges = []

    def merge_fn(*refs):
        merges.append(len(refs))
        return [x for r in refs for x in r]

    tree = _MergeTree(1, fanin, merge_fn)
    for i in range(n_pushes):
        tree.push(0, [i])
    rem = tree.remaining(0)
    # pieces reach the reduce in input order, merged or not
    assert [x for r in rem for x in r] == list(range(n_pushes))
    depth = len(tree.levels[0])
    # every level holds < fanin refs, so the final consumer's arg list
    # is < fanin * depth regardless of n_pushes
    assert len(rem) < fanin * depth
    assert all(n == fanin for n in merges)
    if n_pushes >= fanin:
        assert merges, "tree never collapsed a level"
    # depth is logarithmic
    import math

    assert depth <= max(1, math.ceil(math.log(n_pushes, fanin))) + 1


def test_merge_tree_bounds_args():
    _tree_remaining_bound(10_000, 8)
    _tree_remaining_bound(1_000, 256)  # single level below fanin
    _tree_remaining_bound(3, 4)


def test_hash_aggregate_1000_blocks_small_fanin(ray_session):
    """>=10^3 blocks through the exchange with fanin=8 (forces a
    3-level tree) must equal the direct single-partition plan."""
    import ray.data as rd

    from sophia_rs_ray.functions.exchange import hash_aggregate

    tables = [
        pa.table({
            "k": pa.array([f"k{i % 37}", f"k{(i + 1) % 37}"]),
            "v": pa.array([i, i * 2], pa.int64()),
        })
        for i in range(1000)
    ]
    ds = rd.from_arrow(tables)

    def gsum(t: pa.Table) -> pa.Table:
        out = t.group_by("k").aggregate([("v", "sum")])
        return out.rename_columns(["k", "v"])

    got = (
        hash_aggregate(ds, ["k"], gsum, gsum, num_partitions=3, fanin=8)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    import collections

    expect = collections.Counter()
    for i in range(1000):
        expect[f"k{i % 37}"] += i
        expect[f"k{(i + 1) % 37}"] += i * 2
    assert len(got) == 37
    for _, row in got.iterrows():
        assert expect[row["k"]] == row["v"]


def test_dedup_triples_mixed_intern_partials(ray_session, monkeypatch):
    """SOPHIA_INTERN_MIN_ROWS between the two blocks' distinct-key
    counts -> one partial dictionary-encoded, one plain.  Round-3 code
    raised ArrowTypeError('incompatible types') in the reduce concat."""
    import ray.data as rd

    from sophia_rs_ray.stages.dedup import dedup_triples

    monkeypatch.setenv("SOPHIA_INTERN_MIN_ROWS", "50")

    big = pa.table({
        "s": pa.array([f"<http://ex/s{i}>" for i in range(120)]),
        "p": pa.array(["<http://ex/p>"] * 120),
        "o": pa.array([f'"v{i}"' for i in range(120)]),
        "url": pa.array([f"http://page/{i % 3}" for i in range(120)]),
    })
    small = pa.table({
        "s": pa.array([f"<http://ex/s{i}>" for i in range(10)]),
        "p": pa.array(["<http://ex/p>"] * 10),
        "o": pa.array([f'"v{i}"' for i in range(10)]),
        "url": pa.array(["http://page/9"] * 10),
    })
    ds = rd.from_arrow([big, small])
    out = dedup_triples(ds, num_partitions=4).to_pandas()
    # 120 distinct triples; the 10 in `small` are duplicates of big's
    assert len(out) == 120
    assert set(out.columns) == {"s", "p", "o", "url"}
    # provenance is the min url across duplicates
    dup_urls = out[out["s"].isin([f"<http://ex/s{i}>" for i in range(10)])]
    assert (dup_urls["url"] <= "http://page/9").all()


def test_dedup_triples_mixed_intern_with_count(ray_session, monkeypatch):
    import ray.data as rd

    from sophia_rs_ray.stages.dedup import dedup_triples

    monkeypatch.setenv("SOPHIA_INTERN_MIN_ROWS", "50")
    big = pa.table({
        "s": pa.array([f"<http://ex/s{i % 60}>" for i in range(200)]),
        "p": pa.array(["<http://ex/p>"] * 200),
        "o": pa.array(['"x"'] * 200),
        "url": pa.array(["u"] * 200),
    })
    small = pa.table({
        "s": pa.array(["<http://ex/s0>"] * 3),
        "p": pa.array(["<http://ex/p>"] * 3),
        "o": pa.array(['"x"'] * 3),
        "url": pa.array(["u"] * 3),
    })
    ds = rd.from_arrow([big, small])
    out = dedup_triples(ds, with_count=True, num_partitions=2).to_pandas()
    assert len(out) == 60
    by_s = dict(zip(out["s"], out["n_dups"]))
    assert by_s["<http://ex/s0>"] == 200 // 60 + (1 if 0 < 200 % 60 else 0) + 3


def test_concat_mixed_unifies_dictionary_and_plain():
    from sophia_rs_ray.functions.exchange import _concat_mixed

    plain = pa.table({"s": pa.array(["a", "b"], pa.large_string()),
                      "n": pa.array([1, 2], pa.int64())})
    interned = pa.table({
        "s": pc.dictionary_encode(pa.array(["b", "c"], pa.large_string())),
        "n": pa.array([3, 4], pa.int64()),
    })
    out = _concat_mixed([plain, interned])
    assert out.num_rows == 4
    assert not pa.types.is_dictionary(out["s"].type)
    assert out["s"].to_pylist() == ["a", "b", "b", "c"]


def test_exchange_join_many_blocks_small_fanin(ray_session, tmp_path,
                                               monkeypatch):
    """300 single-row left blocks pass the fixed fanin of 256, so the
    left side's pieces run through ``_merge_pieces`` nodes before the
    join reduce (a marker file proves a node ran; the wrapper is
    defined here so cloudpickle ships it by value)."""
    import ray.data as rd

    from sophia_rs_ray.functions import exchange as ex
    from sophia_rs_ray.functions.exchange import exchange_join

    marker = str(tmp_path / "merged")
    orig = ex._merge_pieces

    def marked(*parts):
        open(marker, "a").close()
        return orig(*parts)

    monkeypatch.setattr(ex, "_merge_pieces", marked)

    left = rd.from_arrow([
        pa.table({"k": pa.array([f"k{i % 11}"]),
                  "l": pa.array([i], pa.int64())})
        for i in range(300)
    ])
    right = rd.from_arrow([
        pa.table({"k": pa.array([f"k{j}"]),
                  "r": pa.array([j * 100], pa.int64())})
        for j in range(11)
    ])
    assert left.num_blocks() > 256
    out = exchange_join(left, right, "inner", 2, on=["k"]).to_pandas()
    assert len(out) == 300
    assert os.path.exists(marker), "no merge-tree node ran"
    assert (out["r"] == out["k"].str.slice(1).astype(int) * 100).all()


def test_auto_partitions_sizing(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from sophia_rs_ray.functions.exchange import auto_partitions

    t = pa.table({"k": pa.array(["a", "b"] * 500),
                  "v": pa.array(range(1000), pa.int64())})
    pq.write_table(t, tmp_path / "t.parquet")
    ds = rd.read_parquet(str(tmp_path / "t.parquet"))
    # tiny file -> clamped at lo
    assert auto_partitions(ds) == 2
    # one partition per 1 KB -> scales with file size, clamped at hi
    sz = (tmp_path / "t.parquet").stat().st_size
    assert auto_partitions(ds, bytes_per_partition=1024) == min(
        1024, max(2, -(-sz // 1024)))
    # non-file-backed input -> default
    assert auto_partitions(rd.from_arrow(t), default=8) == 8


def test_hash_aggregate_auto_equals_explicit(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from sophia_rs_ray.functions.exchange import hash_aggregate

    t = pa.table({"k": pa.array([f"k{i % 23}" for i in range(2000)]),
                  "v": pa.array(range(2000), pa.int64())})
    pq.write_table(t, tmp_path / "t.parquet")

    def gsum(tt: pa.Table) -> pa.Table:
        return tt.group_by("k").aggregate([("v", "sum")]) \
            .rename_columns(["k", "v"])

    def run(np_):
        ds = rd.read_parquet(str(tmp_path / "t.parquet")) \
            .map_batches(lambda b: b, batch_format="pyarrow",
                         batch_size=16)  # many small blocks
        out = hash_aggregate(ds, ["k"], gsum, gsum, num_partitions=np_)
        return out.to_pandas().sort_values("k").reset_index(drop=True)

    auto = run(None)
    for np_ in (1, 3, 16):
        explicit = run(np_)
        assert auto.equals(explicit), np_


@pytest.mark.parametrize("n_blocks", [0, 1, 5])
def test_refs_core_chains_like_dataset(ray_session, n_blocks):
    """Feeding one exchange's partition refs straight into the next
    (``hash_aggregate_refs`` on refs) gives the rows of
    ``hash_aggregate`` over ``rd.from_arrow_refs`` of the same refs —
    a zero-block input included — and ``gather`` reads them back."""
    import ray
    import ray.data as rd

    from sophia_rs_ray.functions.exchange import (gather, hash_aggregate,
                                                  hash_aggregate_refs)

    def gsum(t: pa.Table) -> pa.Table:
        if "k" not in t.column_names:   # schema-less zero-block input
            t = pa.table({"k": pa.array([], pa.string()),
                          "v": pa.array([], pa.int64())})
        return t.group_by("k").aggregate([("v", "sum")]) \
            .rename_columns(["k", "v"])

    def rekey(t: pa.Table) -> pa.Table:
        # second exchange on a different key: first letter of k
        t = gsum(t)
        return pa.table({"h": pc.utf8_slice_codeunits(t["k"], 0, 1),
                         "v": t["v"]})

    def hsum(t: pa.Table) -> pa.Table:
        if "h" not in t.column_names:
            t = pa.table({"h": pa.array([], pa.string()),
                          "v": pa.array([], pa.int64())})
        return t.group_by("h").aggregate([("v", "sum")]) \
            .rename_columns(["h", "v"])

    blocks = [ray.put(pa.table({
        "k": pa.array([f"{'ab'[i % 2]}{(i * 7 + j) % 11}"
                       for j in range(40)]),
        "v": pa.array(range(i * 40, i * 40 + 40), pa.int64())}))
        for i in range(n_blocks)]
    first = hash_aggregate_refs(blocks, ["k"], gsum, gsum)
    # refs input → the default partition count; no blocks → one empty
    assert len(first) == (8 if n_blocks else 1)
    chained = gather(hash_aggregate_refs(first, ["h"], rekey, hsum))
    via_ds = pa.Table.from_pylist(hash_aggregate(
        rd.from_arrow_refs(first), ["h"], rekey, hsum).take_all(),
        schema=chained.schema)

    def rows(t):
        return sorted(zip(t["h"].to_pylist(), t["v"].to_pylist()))

    assert rows(chained) == rows(via_ds)
    want: dict = {}
    for b in ray.get(blocks):
        for k, v in zip(b["k"].to_pylist(), b["v"].to_pylist()):
            want[k[0]] = want.get(k[0], 0) + v
    assert rows(chained) == sorted(want.items())
    # same rows as the first exchange read back whole
    assert sum(gather(first)["v"].to_pylist()) == sum(want.values())


#: (home module, pattern no other module may contain; None: no module
#: may) — one exchange map side, one remote-wrap cache (a wrap inside a
#: function is a new task type per call), one per-worker broadcast
#: cache, one tokenizer and token count (``TOKEN_RE2`` is used in
#: ``functions/text.py`` only) and no Python-``\s`` whitespace split,
#: which breaks tokens at \v and U+00A0 where RE2's ``\s`` does not
_HOMED = [
    ("functions/exchange.py",
     r"num_returns\s*=|_MergeTree\(|^\s+.*\bray\.remote\("),
    ("functions/broadcast.py", r"(?<!pa)\.binary\(\)"),
    ("functions/text.py",
     r"TOKEN_RE2|\.str\.extract_all\(|\.str\.count_matches\("),
    (None, r"re\.split\(\s*r?[\"']\\s\+"),
]
#: modules whose small sides go through ``broadcast.gated_gather``:
#: no ``take_all()`` and no Dataset ``take(<limit>)`` pull
_GATED_MODULES = ["pipelines/queries.py", "pipelines/relational.py",
                  "stages/entity_dedup.py", "sparql/algebra.py"]


def _modules():
    """(path relative to the package, absolute path) of every module."""
    import sophia_rs_ray

    root = os.path.dirname(sophia_rs_ray.__file__)
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                yield os.path.relpath(path, root), path


def _offenders(pattern, skip=None, only=None):
    out = []
    for rel, path in _modules():
        if rel == skip or (only is not None and rel not in only):
            continue
        with open(path, encoding="utf-8") as fh:
            out += [f"{rel}:{n}" for n, line in enumerate(fh, 1)
                    if re.search(pattern, line)]
    return out


def test_only_scatter_builds_exchanges():
    """``functions.exchange.scatter`` is the one exchange map side: no
    other module launches multi-return split tasks or builds a merge
    tree of its own or wraps a kernel per call; ``functions.broadcast``
    holds the one ObjectRef-keyed worker cache; the gated modules pull
    no unbounded side; every grouping goes through the exchange, never
    through Ray Data's sort-based ``groupby`` / ``map_groups``."""
    for home, pattern in _HOMED:
        assert _offenders(pattern, skip=home) == [], home
    # the one tokenizer call and the one token count
    assert len(_offenders(r"extract_all\(TOKEN_RE2\)")) == 1
    assert len(_offenders(r"count_matches\(TOKEN_RE2\)")) == 1
    assert _offenders(r"\.take_all\(\)|\.take\(\s*(\d|_*[A-Z])",
                      only=_GATED_MODULES) == []
    assert _offenders(
        r"\.groupby\(|map_groups\(|ray\.data\.aggregate") == []


def test_modules_compile_with_warnings_as_errors():
    """No module leans on a deprecated construct such as an invalid
    string escape, which newer Pythons turn into a SyntaxError."""
    import warnings

    bad = []
    for rel, path in _modules():
        with open(path, encoding="utf-8") as fh:
            src = fh.read()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(src, rel, "exec")
            except SyntaxError as e:
                bad.append(f"{rel}: {e}")
    assert bad == []


def test_grouped_and_per_group_null_keys(ray_session):
    """NULL keys spread over several blocks form ONE group in
    ``grouped`` (DISTINCT and ``min``) and in ``per_group``, as DuckDB
    ``GROUP BY`` does."""
    import duckdb
    import ray.data as rd

    from sophia_rs_ray.functions.exchange import grouped, per_group

    blocks = [pa.table({"k": pa.array(ks, pa.string()),
                        "v": pa.array(vs, pa.int64())})
              for ks, vs in ((["a", None, "b"], [5, 7, None]),
                             ([None, "a"], [3, 1]),
                             ([None, None, "c"], [9, None, 2]))]
    ds = rd.from_arrow(blocks)
    tbl = pa.concat_tables(blocks)  # noqa: F841 (read by duckdb)

    def rows(t: pa.Table):
        return sorted(zip(*t.to_pydict().values()),
                      key=lambda r: tuple((x is None, x) for x in r))

    def got(out):
        return rows(pa.Table.from_pylist(out.take_all()))

    def want(sql):
        return rows(duckdb.sql(sql).arrow())

    def count(g: pa.Table) -> pa.Table:
        return pa.table({"k": g["k"].slice(0, 1),
                         "n": pa.array([g.num_rows], pa.int64())})

    assert got(grouped(ds, ["k"], num_partitions=3)) == \
        want("SELECT k FROM tbl GROUP BY k")
    assert got(grouped(ds, ["k"], [("v", "min")], num_partitions=3)) == \
        want("SELECT k, min(v) AS v FROM tbl GROUP BY k")
    assert got(per_group(ds, ["k"], count)) == \
        want("SELECT k, count(*) AS n FROM tbl GROUP BY k")


def test_repeat_calls_reuse_remote_functions(ray_session, monkeypatch):
    """Two identical exchanges wrap each kernel once: the second call
    creates no new remote function (a fresh wrap is a new task type)."""
    import ray

    from sophia_rs_ray.functions import exchange as ex

    refs = [ray.put(pa.table({"k": [i % 3], "v": [i]})) for i in range(4)]

    def run():
        return ex.gather(ex.hash_aggregate_refs(refs, ["k"], None, None,
                                                num_partitions=2))

    first = run()
    wraps = {f: ex._REMOTES[f]
             for f in (ex._map_side, ex._merge_pieces, ex._reduce_side)}
    created = []
    real = ray.remote
    monkeypatch.setattr(ray, "remote",
                        lambda *a, **k: created.append(a) or real(*a, **k))
    assert run().num_rows == first.num_rows == 4
    assert created == []
    assert all(ex._REMOTES[f] is r for f, r in wraps.items())


#: the curation operators of the benchmark's ``corpus_curate`` workload
_CURATION_OPS = ("token_counts", "vocab_top_terms", "tfidf_top_terms",
                 "novel_bigrams", "lm_score", "dsir_weights",
                 "heavy_hitters_cms", "clean_corpus", "dedup_exact_docs")


def test_queries_read_documents_through_the_source():
    """``pipelines/queries.py`` reads documents.parquet only through
    ``exchange.parquet_blocks``: no Ray Data ``read_parquet`` of it."""
    import sophia_rs_ray

    path = os.path.join(os.path.dirname(sophia_rs_ray.__file__),
                        "pipelines", "queries.py")
    with open(path, encoding="utf-8") as fh:
        src = fh.read()
    assert re.findall(r"read_parquet\([^)]*documents\.parquet", src) == []


def test_curation_plans_start_no_ray_data_execution(ray_session, tmp_path,
                                                    monkeypatch):
    """The benchmarked curation operators run on block refs: with
    ``ray.data.read_parquet`` raising, each still returns its DuckDB
    oracle's rows, and none starts a Ray Data execution before its
    result is read."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor
    from test_curation_blocks import LANGS, _texts

    from sophia_rs_ray.pipelines.queries import registry

    texts = _texts(seed=5)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "source": pa.array(["t"] * len(texts), pa.string()),
        "lang": pa.array([LANGS[i % len(LANGS)] for i in range(len(texts))],
                         pa.string()),
    }), str(tmp_path / "documents.parquet"))
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")

    def refuse(*args, **kwargs):
        raise AssertionError("ray.data.read_parquet called")

    starts = []
    real = StreamingExecutor.execute
    monkeypatch.setattr(rd, "read_parquet", refuse)
    monkeypatch.setattr(StreamingExecutor, "execute",
                        lambda self, *a, **k: starts.append(1) or
                        real(self, *a, **k))

    def rows(t: pa.Table):
        names = sorted(t.column_names)
        return names, sorted(repr(r) for r in zip(
            *[t[c].to_pylist() for c in names]))

    reg = registry()
    for op in _CURATION_OPS:
        fn, sql = reg[op]
        res = fn(str(tmp_path))
        assert starts == [], op
        got = res if isinstance(res, pa.Table) else \
            pa.Table.from_pylist(res.take_all())
        starts.clear()
        want = con.execute(sql).arrow()
        assert got.num_rows > 0, op
        assert rows(got) == rows(want), op
