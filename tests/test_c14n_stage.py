"""Distributed c14n stage vs the pure algorithm (and reference goldens)."""

import pyarrow as pa
import pytest

from sophia_rs_ray.c14n import normalize_quads
from sophia_rs_ray.ntriples import parse_document


MIXED_NQ = [
    # bnode-free quads (stream-through path)
    "<tag:s1> <tag:p> <tag:o1> .",
    '<tag:s1> <tag:p> "lit\\n2" .',
    "<tag:s2> <tag:p> <tag:o2> <tag:g1> .",
    # tree-shaped bnodes (unique first-degree hashes)
    "<http://example.com/#p> <http://example.com/#q> _:e0 .",
    "<http://example.com/#p> <http://example.com/#r> _:e1 .",
    "_:e0 <http://example.com/#s> <http://example.com/#u> .",
    "_:e1 <http://example.com/#t> <http://example.com/#u> .",
    # a symmetric cycle (shared hashes → step-5 residue)
    "_:c0 <http://example.com/#p> _:c1 .",
    "_:c1 <http://example.com/#p> _:c2 .",
    "_:c2 <http://example.com/#p> _:c0 .",
]


def _lines_to_ds(lines, with_g=True):
    import ray.data as rd

    rows = {"s": [], "p": [], "o": [], "g": []}
    for (s, p, o, g) in parse_document("\n".join(lines), quads=True):
        from sophia_rs_ray.terms import format_term

        rows["s"].append(format_term(s))
        rows["p"].append(format_term(p))
        rows["o"].append(format_term(o))
        rows["g"].append(format_term(g) if g is not None else "")
    if not with_g:
        rows.pop("g")
    return rd.from_arrow(pa.table(rows))


def test_c14n_dataset_matches_pure(ray_session):
    from sophia_rs_ray.stages.c14n_stage import c14n_dataset

    ds = _lines_to_ds(MIXED_NQ)
    got = "".join(r["nq"] for r in c14n_dataset(ds).take_all())
    want = normalize_quads(parse_document("\n".join(MIXED_NQ), quads=True))
    assert got == want


def test_c14n_dataset_no_bnodes(ray_session):
    from sophia_rs_ray.stages.c14n_stage import c14n_dataset

    lines = MIXED_NQ[:3]
    ds = _lines_to_ds(lines)
    got = "".join(r["nq"] for r in c14n_dataset(ds).take_all())
    assert got == normalize_quads(parse_document("\n".join(lines), quads=True))


#: a blank node used both inside a triple term and at the top level
TRIPLE_TERM_NQ = ["<tag:s> <tag:p> <<( _:y <tag:q> <tag:o> )>> .",
                  '_:y <tag:r> "v" .']


def test_c14n_dataset_triple_term_bnode_raises(ray_session):
    # strict RDFC-1.0 has no triple terms: both entry points refuse the
    # graph instead of labelling _:y twice
    from sophia_rs_ray.c14n import UnsupportedError
    from sophia_rs_ray.stages.c14n_stage import c14n_dataset

    quads = parse_document("\n".join(TRIPLE_TERM_NQ), quads=True)
    with pytest.raises(UnsupportedError):
        normalize_quads(quads)
    with pytest.raises(UnsupportedError):
        c14n_dataset(_lines_to_ds(TRIPLE_TERM_NQ))


def test_c14n_dataset_triple_term_without_bnode_raises(ray_session):
    # a triple term with no blank node meets the same term check
    from sophia_rs_ray.c14n import UnsupportedError
    from sophia_rs_ray.stages.c14n_stage import c14n_dataset

    line = ["<tag:s> <tag:p> <<( <tag:a> <tag:q> <tag:o> )>> ."]
    with pytest.raises(UnsupportedError):
        normalize_quads(parse_document(line[0], quads=True))
    with pytest.raises(UnsupportedError):
        c14n_dataset(_lines_to_ds(line))


def test_c14n_dataset_literal_with_bnode_text(ray_session):
    # '_:' inside a literal sends the row down the exact path: same bytes
    from sophia_rs_ray.stages.c14n_stage import c14n_dataset

    lines = ['<tag:s> <tag:p> "see _:b here" .', "_:b <tag:p> <tag:o> .",
             "<tag:s> <tag:p> <tag:o> ."]
    got = "".join(r["nq"] for r in c14n_dataset(_lines_to_ds(lines))
                  .take_all())
    assert got == normalize_quads(parse_document("\n".join(lines),
                                                 quads=True))


def test_c14n_per_graph(ray_session):
    """Per-graph digests: isomorphic graphs agree, and a graph whose
    triples are spread over three input blocks canonicalizes exactly as
    in one block and as ``normalize_quads`` on the graph alone."""
    import hashlib

    import ray.data as rd

    from sophia_rs_ray.stages.c14n_stage import c14n_per_graph
    from sophia_rs_ray.terms import format_term

    graphs = {
        "u1": ["_:a <tag:p> _:b .", "_:b <tag:p> <tag:o> .",
               '_:a <tag:q> "x" .'],
        "u2": ["_:x <tag:p> _:y .", "_:y <tag:p> <tag:o> .",
               '_:x <tag:q> "x" .'],  # isomorphic to u1
        "u3": ["<tag:s> <tag:p> <tag:o3> .", "<tag:s> <tag:p> _:z .",
               "_:z <tag:q> <tag:o> ."],
    }
    rows = {"url": [], "s": [], "p": [], "o": []}
    for url, lines in graphs.items():
        for (s, p, o, _g) in parse_document("\n".join(lines)):
            rows["url"].append(url)
            rows["s"].append(format_term(s))
            rows["p"].append(format_term(p))
            rows["o"].append(format_term(o))
    t = pa.table(rows)
    out = c14n_per_graph(rd.from_arrow(t), digest_only=True).take_all()
    by_url = {r["url"]: r["digest"] for r in out}
    assert by_url["u1"] == by_url["u2"] != by_url["u3"]
    assert all(not r["error"] for r in out)

    # row i → block i % 3: each url's three triples span all three
    split = rd.from_arrow([t.take(list(range(j, t.num_rows, 3)))
                           for j in range(3)])
    assert split.num_blocks() == 3
    got = c14n_per_graph(split, digest_only=True).take_all()
    assert len(got) == 3
    assert {r["url"]: r["digest"] for r in got} == by_url
    nq: dict = {}
    for r in c14n_per_graph(split).take_all():
        nq[r["url"]] = nq.get(r["url"], "") + r["nq"]
    for url, lines in graphs.items():
        want = normalize_quads(parse_document("\n".join(lines)))
        assert nq[url] == want
        assert by_url[url] == hashlib.sha256(want.encode()).hexdigest()


def test_c14n_per_graph_toxic_is_error_row(ray_session):
    import ray.data as rd

    from sophia_rs_ray.stages.c14n_stage import c14n_per_graph

    # 5-clique with a permutation limit of 3 → ToxicGraph error row
    rows = {"url": [], "s": [], "p": [], "o": []}
    for i in range(5):
        for j in range(5):
            if i != j:
                rows["url"].append("toxic")
                rows["s"].append(f"_:e{i}")
                rows["p"].append("<http://example.com/#p>")
                rows["o"].append(f"_:e{j}")
    rows["url"].append("fine")
    rows["s"].append("<tag:s>")
    rows["p"].append("<tag:p>")
    rows["o"].append("<tag:o>")
    ds = rd.from_arrow(pa.table(rows))
    out = c14n_per_graph(ds, permutation_limit=3).take_all()
    errs = {r["url"]: r["error"] for r in out}
    assert "ToxicGraphError" in errs["toxic"]
    assert errs["fine"] == ""
