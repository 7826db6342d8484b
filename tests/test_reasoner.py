"""RDFS saturation tests (reference reasoner/src/ruleset/_rdfs.rs —
rule-by-rule golden expectations, plus cycle safety)."""

import pyarrow as pa
import pytest

from sophia_rs_ray.reasoner import (
    RDF_TYPE_NT, RdfsSchema, rdfs_saturate,
)

RDFS = "http://www.w3.org/2000/01/rdf-schema#"
SC = f"<{RDFS}subClassOf>"
SP = f"<{RDFS}subPropertyOf>"
DOM = f"<{RDFS}domain>"
RNG = f"<{RDFS}range>"


def _ds(rows, ray_session=None):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "s": pa.array([r[0] for r in rows], pa.large_string()),
        "p": pa.array([r[1] for r in rows], pa.large_string()),
        "o": pa.array([r[2] for r in rows], pa.large_string())}))


def test_schema_closure_handles_cycles():
    schema = RdfsSchema([("<a>", SC, "<b>"), ("<b>", SC, "<c>"),
                         ("<c>", SC, "<a>"),
                         ("<p>", SP, "<q>"), ("<q>", SP, "<p>")])
    # cycle: every member reaches every member, itself included, no
    # matter which one the closure visits first
    for c in ("<a>", "<b>", "<c>"):
        assert schema.class_up(c) == {"<a>", "<b>", "<c>"}, c
    assert ("<x>", RDF_TYPE_NT, "<b>") in schema.expand_row(
        "<x>", RDF_TYPE_NT, "<c>")
    for p in ("<p>", "<q>"):
        assert schema.sup_prop[p] == {"<p>", "<q>"}, p
    assert ("<x>", "<p>", "<y>") in schema.expand_row("<x>", "<q>", "<y>")


def test_expand_row_on_cycles_excludes_input():
    schema = RdfsSchema([("<a>", SC, "<b>"), ("<b>", SC, "<c>"),
                         ("<c>", SC, "<a>"),
                         ("<p>", SP, "<q>"), ("<q>", SP, "<p>")])
    # the 3-cycle entails the two other classes, never the input row
    assert sorted(schema.expand_row("<x>", RDF_TYPE_NT, "<c>")) == [
        ("<x>", RDF_TYPE_NT, "<a>"), ("<x>", RDF_TYPE_NT, "<b>")]
    assert schema.expand_row("<x>", "<q>", "<y>") == [
        ("<x>", "<p>", "<y>")]


def test_rules_end_to_end(ray_session):
    rows = [
        ("<C>", SC, "<D>"), ("<D>", SC, "<E>"),
        ("<p>", SP, "<q>"), ("<q>", SP, "<r>"),
        ("<q>", DOM, "<C>"), ("<r>", RNG, "<E>"),
        ("<x>", RDF_TYPE_NT, "<C>"),
        ("<x>", "<p>", "<y>"),
        ("<x>", "<p>", '"literal"'),  # literals never get range types
    ]
    got = {(r["s"], r["p"], r["o"])
           for r in rdfs_saturate(_ds(rows)).take_all()}
    # rdfs9: x type D, E
    assert ("<x>", RDF_TYPE_NT, "<D>") in got
    assert ("<x>", RDF_TYPE_NT, "<E>") in got
    # rdfs7 (transitive via rdfs5): p ⊑ q ⊑ r
    assert ("<x>", "<q>", "<y>") in got
    assert ("<x>", "<r>", "<y>") in got
    # rdfs2 on the inherited property q: x type C (+ closure D, E)
    # (already present via type C) — and on the literal row too
    assert ("<x>", RDF_TYPE_NT, "<C>") in got
    # rdfs3 on r: y type E; literal object gets nothing
    assert ("<y>", RDF_TYPE_NT, "<E>") in got
    assert not any(s == '"literal"' for s, _p, _o in got)
    # rdfs11 / rdfs5 closure triples present
    assert ("<C>", SC, "<E>") in got
    assert ("<p>", SP, "<r>") in got
    # saturation is idempotent (a second pass adds nothing)
    again = {(r["s"], r["p"], r["o"])
             for r in rdfs_saturate(_ds(sorted(got))).take_all()}
    assert again == got


def test_no_schema_is_identity(ray_session):
    rows = [("<a>", "<p>", "<b>"), ("<a>", "<p>", "<b>")]
    got = rdfs_saturate(_ds(rows)).take_all()
    assert len(got) == 1  # dedup only
