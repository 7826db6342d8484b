"""Full-RDFS + D-entailment tests — ground entailment cases ported
from the reference's reasoner/src/test.rs (rdfs_entailment,
rdf_inconsistent, literal_normalization) to the distributed saturator."""

import pyarrow as pa
import pytest

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
XSD = "http://www.w3.org/2001/XMLSchema#"
EX = "http://ex/"


def _i(ns, l):
    return f"<{ns}{l}>"


def _ds(triples):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "s": pa.array([t[0] for t in triples], pa.large_string()),
        "p": pa.array([t[1] for t in triples], pa.large_string()),
        "o": pa.array([t[2] for t in triples], pa.large_string())}))


def _saturate(triples, rules=None, **kw):
    from sophia_rs_ray.reasoner import RDFS, saturate

    out = saturate(_ds(triples), RDFS if rules is None else rules, **kw)
    if isinstance(out, tuple):
        sat, errs = out
        return ({(r["s"], r["p"], r["o"]) for r in sat.take_all()},
                [r["error"] for r in errs.take_all()])
    return {(r["s"], r["p"], r["o"]) for r in out.take_all()}


T = _i(RDF, "type")
SC = _i(RDFS, "subClassOf")
SP = _i(RDFS, "subPropertyOf")
DOM = _i(RDFS, "domain")
RNG = _i(RDFS, "range")


def test_core_rules(ray_session):
    # rdfs2/3/5/7/9/11 ground cases (test.rs rdfs_entailment)
    got = _saturate([
        (_i(EX, "p"), DOM, _i(EX, "c")),
        (_i(EX, "p"), RNG, _i(EX, "d")),
        (_i(EX, "s"), _i(EX, "p"), _i(EX, "o")),
        (_i(EX, "p1"), SP, _i(EX, "p2")),
        (_i(EX, "p2"), SP, _i(EX, "p3")),
        (_i(EX, "p3"), SP, _i(EX, "p4")),
        (_i(EX, "a"), _i(EX, "p1"), _i(EX, "b")),
        (_i(EX, "c1"), SC, _i(EX, "c2")),
        (_i(EX, "c2"), SC, _i(EX, "c3")),
        (_i(EX, "c3"), SC, _i(EX, "c4")),
        (_i(EX, "x"), T, _i(EX, "c1")),
    ])
    assert (_i(EX, "s"), T, _i(EX, "c")) in got          # rdfs2
    assert (_i(EX, "o"), T, _i(EX, "d")) in got          # rdfs3
    assert (_i(EX, "p1"), SP, _i(EX, "p4")) in got       # rdfs5
    assert (_i(EX, "a"), _i(EX, "p2"), _i(EX, "b")) in got  # rdfs7
    assert (_i(EX, "a"), _i(EX, "p3"), _i(EX, "b")) in got  # rdfs7 chained
    assert (_i(EX, "c1"), SC, _i(EX, "c4")) in got       # rdfs11
    assert (_i(EX, "x"), T, _i(EX, "c4")) in got         # rdfs9


def test_reflexive_and_class_rules(ray_session):
    got = _saturate([
        (_i(EX, "p"), T, _i(RDF, "Property")),
        (_i(EX, "c"), T, _i(RDFS, "Class")),
        (_i(EX, "m"), T, _i(RDFS, "ContainerMembershipProperty")),
        (_i(EX, "d"), T, _i(RDFS, "Datatype")),
    ])
    assert (_i(EX, "p"), SP, _i(EX, "p")) in got                # rdfs6
    assert (_i(EX, "c"), SC, _i(EX, "c")) in got                # rdfs10
    assert (_i(EX, "c"), SC, _i(RDFS, "Resource")) in got       # rdfs8
    assert (_i(EX, "m"), SP, _i(RDFS, "member")) in got         # rdfs12
    assert (_i(EX, "d"), SC, _i(RDFS, "Literal")) in got        # rdfs13


def test_membership_property_axioms(ray_session):
    # test.rs "axioms on used membership property"
    got = _saturate([(_i(EX, "s"), _i(RDF, "_3"), _i(EX, "o"))])
    assert (_i(RDF, "_3"), T,
            _i(RDFS, "ContainerMembershipProperty")) in got
    assert (_i(RDF, "_3"), DOM, _i(RDFS, "Resource")) in got
    assert (_i(RDF, "_3"), RNG, _i(RDFS, "Resource")) in got
    # …and therefore rdfs12 applies to the used rdf:_3
    assert (_i(EX, "s"), _i(RDFS, "member"), _i(EX, "o")) in got


def test_rdfs4_resource_types(ray_session):
    got = _saturate([
        (_i(EX, "s"), _i(EX, "p"),
         '"42"^^<http://www.w3.org/2001/XMLSchema#integer>')])
    assert (_i(EX, "s"), T, _i(RDFS, "Resource")) in got
    # used predicate is a Property (rdf1)
    assert (_i(EX, "p"), T, _i(RDF, "Property")) in got


def test_rdfs14_proposition(ray_session):
    tt = f"<<( {_i(EX, 'a')} {_i(EX, 'b')} {_i(EX, 'c')} )>>"
    got = _saturate([(_i(EX, "s"), _i(EX, "p"), tt)])
    assert (tt, T, _i(RDFS, "Proposition")) in got


def test_axiomatic_triples_present(ray_session):
    got = _saturate([(_i(EX, "s"), _i(EX, "p"), _i(EX, "o"))])
    # spot-check the spec's "some RDFS-valid triples"
    assert (T, DOM, _i(RDFS, "Resource")) in got
    assert (_i(RDFS, "comment"), RNG, _i(RDFS, "Literal")) in got
    assert (_i(RDF, "Alt"), SC, _i(RDFS, "Container")) in got
    assert (_i(RDFS, "isDefinedBy"), SP, _i(RDFS, "seeAlso")) in got


@pytest.mark.parametrize("rules", ["RHO_DF", "RDFS"])
def test_interleaved_rdfs5_rdfs7(rules, ray_session):
    # test.rs "interleaved rdfs5 and rdfs7": schema derived from
    # instance triples through sup-chains feeding back — the ρdf core
    # runs the same feedback rounds as the full ruleset
    from sophia_rs_ray import reasoner

    got = _saturate([
        (_i(EX, "s"), _i(EX, "p1"), _i(EX, "o")),
        (_i(EX, "p1"), _i(EX, "spo1"), _i(EX, "p2")),
        (_i(EX, "p2"), _i(EX, "spo1"), _i(EX, "p3")),
        (_i(EX, "spo1"), _i(EX, "spo2"), _i(EX, "spo3")),
        (_i(EX, "spo2"), _i(EX, "spo3"), SP),
        (_i(EX, "spo3"), SP, SP),
    ], getattr(reasoner, rules))
    assert (_i(EX, "s"), _i(EX, "p3"), _i(EX, "o")) in got


def test_d_literal_types(ray_session):
    INT = f"<{XSD}integer>"
    lit = f'"42"^^{INT}'
    got = _saturate([(_i(EX, "s"), _i(EX, "p"), lit)])
    for dt in ("integer", "decimal", "byte", "positiveInteger",
               "unsignedLong", "nonNegativeInteger"):
        assert (lit, T, f"<{XSD}{dt}>") in got, dt
    assert (lit, T, f"<{XSD}negativeInteger>") not in got


def test_ill_typed_literal_error_rows(ray_session):
    lit = f'"abc"^^<{XSD}integer>'
    got, errs = _saturate([(_i(EX, "s"), _i(EX, "p"), lit)],
                          with_errors=True)
    assert any("ill-typed" in e for e in errs)
    # the job did not fail; original triple is still present
    assert (_i(EX, "s"), _i(EX, "p"), lit) in got


def test_range_clash_error_rows(ray_session):
    # test.rs rdf_inconsistent "range clash" cases
    for lit, rng_dt in (
            (f'"25"^^<{XSD}integer>', "string"),
            ('"25"', "integer"),
            (f'"-2"^^<{XSD}integer>', "positiveInteger")):
        _got, errs = _saturate([
            (_i(EX, "p"), RNG, f"<{XSD}{rng_dt}>"),
            (_i(EX, "s"), _i(EX, "p"), lit)], with_errors=True)
        assert any("range clash" in e for e in errs), (lit, rng_dt)
    # compatible range: no error
    _got, errs = _saturate([
        (_i(EX, "p"), RNG, f"<{XSD}integer>"),
        (_i(EX, "s"), _i(EX, "p"), f'"25"^^<{XSD}integer>')],
        with_errors=True)
    assert errs == []


def test_normalize_literals(ray_session):
    from sophia_rs_ray.reasoner import normalize_literals

    rows = [
        (_i(EX, "a"), _i(EX, "p"), f'"01"^^<{XSD}int>'),
        (_i(EX, "b"), _i(EX, "p"), f'"1.00"^^<{XSD}decimal>'),
        (_i(EX, "c"), _i(EX, "p"), f'"1"^^<{XSD}boolean>'),
        (_i(EX, "d"), _i(EX, "p"), f'"10e-1"^^<{XSD}double>'),
        (_i(EX, "e"), _i(EX, "p"), f'"bogus"^^<{XSD}int>'),
        (_i(EX, "f"), _i(EX, "p"), '"plain"'),
    ]
    ok, errs = normalize_literals(_ds(rows), with_errors=True)
    out = {r["s"]: r["o"] for r in ok.take_all()}
    assert out[_i(EX, "a")] == f'"1"^^<{XSD}int>'
    assert out[_i(EX, "b")] == f'"1.0"^^<{XSD}decimal>'
    assert out[_i(EX, "c")] == f'"true"^^<{XSD}boolean>'
    assert out[_i(EX, "d")] == f'"1.0E0"^^<{XSD}double>'
    assert out[_i(EX, "f")] == '"plain"'
    bad = errs.take_all()
    assert len(bad) == 1 and "ill-typed" in bad[0]["__err"]


def test_rho_df_subset_still_green(ray_session):
    # the ρdf core is a subset of the full ruleset, and its saturation
    # of the same input a subset of the full one
    from sophia_rs_ray.reasoner import RDFS, RHO_DF

    triples = [
        (_i(EX, "p"), DOM, _i(EX, "c")),
        (_i(EX, "c"), SC, _i(EX, "d")),
        (_i(EX, "s"), _i(EX, "p"), _i(EX, "o")),
    ]
    assert RHO_DF <= RDFS
    rho = _saturate(triples, RHO_DF)
    full = _saturate(triples)
    assert rho <= full
    assert (_i(EX, "s"), T, _i(EX, "d")) in rho
    assert (_i(EX, "s"), T, _i(EX, "d")) in full


# --- rulesets (Simple / Rdf / Rdfs parity) ---------------------------------

def _nt_ds(triples):
    import pyarrow as pa
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "s": pa.array([t[0] for t in triples], pa.large_string()),
        "p": pa.array([t[1] for t in triples], pa.large_string()),
        "o": pa.array([t[2] for t in triples], pa.large_string()),
    }))


def test_rdf_ruleset_rdf1_and_datatype(ray_session):
    from sophia_rs_ray.reasoner import RDF, saturate

    ds = _nt_ds([
        ("<x:a>", "<x:p>", '"1"^^<http://www.w3.org/2001/XMLSchema#int>'),
        ("<x:a>", "<x:p>", '"abc"'),
    ])
    got = {(r["s"], r["p"], r["o"]) for r in saturate(ds, RDF).take_all()}
    t = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    prop = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#Property>"
    # rdf1
    assert ("<x:p>", t, prop) in got
    # recognized-datatype typing (normalized dt, plus wider int types)
    assert ('"1"^^<http://www.w3.org/2001/XMLSchema#int>', t,
            "<http://www.w3.org/2001/XMLSchema#int>") in got
    # a plain literal is an xsd:string, as under the full ruleset
    assert ('"abc"', t, "<http://www.w3.org/2001/XMLSchema#string>") in got
    # no RDFS rules: nothing typed rdfs:Resource
    res = "<http://www.w3.org/2000/01/rdf-schema#Resource>"
    assert not any(o == res for (_s, _p, o) in got)


def test_rdf_ruleset_no_rdfs_hierarchy(ray_session):
    from sophia_rs_ray.reasoner import RDF, saturate

    sc = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"
    t = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    ds = _nt_ds([("<x:A>", sc, "<x:B>"), ("<x:i>", t, "<x:A>")])
    got = {(r["s"], r["p"], r["o"]) for r in saturate(ds, RDF).take_all()}
    assert ("<x:i>", t, "<x:B>") not in got  # rdfs9 must NOT fire


def test_simple_ruleset_identity(ray_session):
    from sophia_rs_ray.reasoner import SIMPLE, saturate

    ds = _nt_ds([("<x:a>", "<x:p>", "<x:b>"),
                 ("<x:a>", "<x:p>", "<x:b>")])
    got = [(r["s"], r["p"], r["o"])
           for r in saturate(ds, SIMPLE).take_all()]
    assert sorted(got) == [("<x:a>", "<x:p>", "<x:b>")]
    assert saturate(_nt_ds([]), SIMPLE).count() == 0


def test_saturate_selector(ray_session):
    # the ruleset argument: a set of rule ids, unknown ids refused
    from sophia_rs_ray.reasoner import SIMPLE, saturate

    ds = _nt_ds([("<x:a>", "<x:p>", "<x:b>")])
    assert saturate(ds, SIMPLE).count() == 1
    with pytest.raises(ValueError):
        saturate(ds, {"owl"})
    with pytest.raises(ValueError):
        saturate(ds, "rdfs")
