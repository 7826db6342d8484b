"""ρdf saturation tests (reference reasoner/src/ruleset/_rdfs.rs —
rule-by-rule golden expectations, plus cycle safety)."""

import pyarrow as pa
import pytest

from sophia_rs_ray.reasoner import RHO_DF, TYPE, ClosedSchema, saturate

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


_CYCLES = [("<a>", SC, "<b>"), ("<b>", SC, "<c>"), ("<c>", SC, "<a>"),
           ("<p>", SP, "<q>"), ("<q>", SP, "<p>")]


def _expand_row(schema, s, p, o):
    """The triples the expansion kernel derives from one input row."""
    out = schema.expand(pa.table({"s": [s], "p": [p], "o": [o]}))
    assert out["__err"].to_pylist() == [""] * out.num_rows
    return list(zip(out["s"].to_pylist(), out["p"].to_pylist(),
                    out["o"].to_pylist()))[1:]


def _ups(schema, pred, x):
    return {o for s, p, o in schema.closed if s == x and p == pred}


def test_schema_closure_handles_cycles():
    schema = ClosedSchema(_CYCLES, RHO_DF)
    # cycle: every member reaches every member, itself included, no
    # matter which one the closure visits first
    for c in ("<a>", "<b>", "<c>"):
        assert _ups(schema, SC, c) == {"<a>", "<b>", "<c>"}, c
    assert ("<x>", TYPE, "<b>") in _expand_row(
        schema, "<x>", TYPE, "<c>")
    for p in ("<p>", "<q>"):
        assert _ups(schema, SP, p) == {"<p>", "<q>"}, p
    assert ("<x>", "<p>", "<y>") in _expand_row(schema, "<x>", "<q>", "<y>")


def test_expand_row_on_cycles_excludes_input():
    schema = ClosedSchema(_CYCLES, RHO_DF)
    # the 3-cycle entails the two other classes, never the input row
    assert sorted(_expand_row(schema, "<x>", TYPE, "<c>")) == [
        ("<x>", TYPE, "<a>"), ("<x>", TYPE, "<b>")]
    assert _expand_row(schema, "<x>", "<q>", "<y>") == [
        ("<x>", "<p>", "<y>")]


def test_rules_end_to_end(ray_session):
    rows = [
        ("<C>", SC, "<D>"), ("<D>", SC, "<E>"),
        ("<p>", SP, "<q>"), ("<q>", SP, "<r>"),
        ("<q>", DOM, "<C>"), ("<r>", RNG, "<E>"),
        ("<x>", TYPE, "<C>"),
        ("<x>", "<p>", "<y>"),
        ("<x>", "<p>", "_:b"),
        ("<x>", "<p>", '"literal"'),  # literals never get range types
    ]
    got = {(r["s"], r["p"], r["o"])
           for r in saturate(_ds(rows), RHO_DF).take_all()}
    # rdfs9: x type D, E
    assert ("<x>", TYPE, "<D>") in got
    assert ("<x>", TYPE, "<E>") in got
    # rdfs7 (transitive via rdfs5): p ⊑ q ⊑ r
    assert ("<x>", "<q>", "<y>") in got
    assert ("<x>", "<r>", "<y>") in got
    # rdfs2 on the inherited property q: x type C (+ closure D, E)
    # (already present via type C) — and on the literal row too
    assert ("<x>", TYPE, "<C>") in got
    # rdfs3 on r: y type E; literal object gets nothing
    assert ("<y>", TYPE, "<E>") in got
    # …and on every other non-literal object (W3C RDF 1.1 rdfs3)
    assert ("_:b", TYPE, "<E>") in got
    assert not any(s == '"literal"' for s, _p, _o in got)
    # rdfs11 / rdfs5 closure triples present
    assert ("<C>", SC, "<E>") in got
    assert ("<p>", SP, "<r>") in got
    # saturation is idempotent (a second pass adds nothing)
    again = {(r["s"], r["p"], r["o"])
             for r in saturate(_ds(sorted(got)), RHO_DF).take_all()}
    assert again == got


def test_no_schema_is_identity(ray_session):
    rows = [("<a>", "<p>", "<b>"), ("<a>", "<p>", "<b>")]
    got = saturate(_ds(rows), RHO_DF).take_all()
    assert len(got) == 1  # dedup only
    assert saturate(_ds([]), RHO_DF).count() == 0


def test_schema_above_the_gate_raises(monkeypatch, ray_session):
    """Every expansion task holds the closed schema, so a schema above
    ``BROADCAST_ROWS`` is refused, naming its size, with no fallback."""
    from sophia_rs_ray.functions import broadcast

    rows = [("<C>", SC, "<D>"), ("<x>", TYPE, "<C>")]
    monkeypatch.setattr(broadcast, "BROADCAST_ROWS", 0)
    with pytest.raises(ValueError, match="1 schema triples"):
        saturate(_ds(rows), RHO_DF)
