"""SPARQL expression + algebra tests (reference semantics:
sparql/src/function.rs, expression.rs, exec.rs, aggregate_iter.rs —
golden expectations derived from the spec behavior those implement)."""

import pyarrow as pa
import pytest

from sophia_rs_ray.sparql import (
    BGP, Const, Distinct, Extend, Filter, FnCall, Group, Join, LeftJoin,
    Minus, OrderBy, PathPattern, Project, Slice, Union, Var, ebv, evaluate,
)
from sophia_rs_ray.sparql.algebra import Agg
from sophia_rs_ray.sparql.expr import eval_expr
from sophia_rs_ray.terms import (
    bool_literal, double_literal, format_term, int_literal, iri, langlit,
    literal,
)


def _t(txt):
    from sophia_rs_ray.ntriples import parse_term_text
    return parse_term_text(txt)


def E(expr, **binds):
    row = {k: _t(v) for k, v in binds.items()}
    t = eval_expr(expr, row)
    return None if t is None else format_term(t)


# ---------------------------------------------------------------------------
# scalar functions (function.rs:35-440)
# ---------------------------------------------------------------------------

def test_string_functions():
    v = Var("x")
    assert E(FnCall("STRLEN", v), x='"hello"') == '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'
    assert E(FnCall("UCASE", v), x='"aB"@en') == '"AB"@en'
    assert E(FnCall("CONTAINS", v, Const(literal("ell"))), x='"hello"') \
        == '"true"^^<http://www.w3.org/2001/XMLSchema#boolean>'
    assert E(FnCall("STRBEFORE", v, Const(literal("l"))), x='"hello"') == '"he"'
    assert E(FnCall("STRAFTER", v, Const(literal("l"))), x='"hello"') == '"lo"'
    assert E(FnCall("SUBSTR", v, Const(int_literal(2)), Const(int_literal(3))),
             x='"hello"') == '"ell"'
    assert E(FnCall("CONCAT", v, Const(literal("!"))), x='"hi"') == '"hi!"'
    assert E(FnCall("REPLACE", v, Const(literal("l+")), Const(literal("L"))),
             x='"hello"') == '"heLo"'
    assert E(FnCall("REGEX", v, Const(literal("^h.*o$"))), x='"hello"') \
        == '"true"^^<http://www.w3.org/2001/XMLSchema#boolean>'
    assert E(FnCall("ENCODE_FOR_URI", v), x='"a b/c"') == '"a%20b%2Fc"'
    # type error → None (error propagation, value.rs:98-105)
    assert E(FnCall("STRLEN", v), x='<http://iri>') is None


def test_term_functions():
    v = Var("x")
    assert E(FnCall("STR", v), x='<http://a>') == '"http://a"'
    assert E(FnCall("LANG", v), x='"a"@en-GB') == '"en-gb"'
    assert E(FnCall("DATATYPE", v), x='"5"^^<http://www.w3.org/2001/XMLSchema#integer>') \
        == '<http://www.w3.org/2001/XMLSchema#integer>'
    assert E(FnCall("DATATYPE", v), x='"a"@en') \
        == '<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString>'
    assert E(FnCall("IRI", v), x='"http://x"') == '<http://x>'
    assert E(FnCall("STRDT", v, Const(iri("http://dt"))), x='"val"') == '"val"^^<http://dt>'
    assert E(FnCall("STRLANG", v, Const(literal("en"))), x='"v"') == '"v"@en'
    assert E(FnCall("ISIRI", v), x='<http://a>').startswith('"true"')
    assert E(FnCall("ISBLANK", v), x='_:b').startswith('"true"')
    assert E(FnCall("ISNUMERIC", v), x='"5"^^<http://www.w3.org/2001/XMLSchema#integer>').startswith('"true"')
    assert E(FnCall("ISNUMERIC", v), x='"5"').startswith('"false"')


def test_numeric_and_comparison():
    a, b = Var("a"), Var("b")
    INT = '^^<http://www.w3.org/2001/XMLSchema#integer>'
    assert E(FnCall("+", a, b), a=f'"2"{INT}', b=f'"3"{INT}') == f'"5"{INT}'
    # computed doubles serialize in the reference's canonical
    # scientific form ("3e0", test.rs "4.2e1"-style expectations)
    assert E(FnCall("*", a, b), a=f'"2"{INT}',
             b='"1.5"^^<http://www.w3.org/2001/XMLSchema#double>') \
        == '"3e0"^^<http://www.w3.org/2001/XMLSchema#double>'
    assert E(FnCall("/", a, b), a=f'"1"{INT}', b=f'"0"{INT}') is None
    assert E(FnCall("ABS", a), a=f'"-4"{INT}') == f'"4"{INT}'
    assert E(FnCall("ROUND", a), a='"2.5"^^<http://www.w3.org/2001/XMLSchema#double>') \
        == '"3e0"^^<http://www.w3.org/2001/XMLSchema#double>'
    # value comparison: "02"^^int == "2"^^int (value), != at term level
    assert E(FnCall("=", a, b), a=f'"02"{INT}', b=f'"2"{INT}').startswith('"true"')
    assert E(FnCall("SAMETERM", a, b), a=f'"02"{INT}', b=f'"2"{INT}').startswith('"false"')
    # numeric comparison is by VALUE (10 > 2)…
    assert E(FnCall("<", a, b), a=f'"10"{INT}', b=f'"2"{INT}').startswith('"false"')
    # …while plain strings compare by codepoint ("10" < "2")
    assert E(FnCall("<", a, b), a='"10"', b='"2"').startswith('"true"')
    # incomparable → error
    assert E(FnCall("<", a, b), a=f'"1"{INT}', b='"x"') is None


def test_logic_and_conditionals():
    a, b = Var("a"), Var("b")
    T = '"true"^^<http://www.w3.org/2001/XMLSchema#boolean>'
    F = '"false"^^<http://www.w3.org/2001/XMLSchema#boolean>'
    assert E(FnCall("&&", a, b), a=T, b=F) == F
    # error && false = false ; error && true = error (expression.rs)
    assert E(FnCall("&&", Var("missing"), b), b=F) == F
    assert E(FnCall("&&", Var("missing"), b), b=T) is None
    assert E(FnCall("||", Var("missing"), b), b=T) == T
    assert E(FnCall("IF", a, Const(literal("y")), Const(literal("n"))), a=T) == '"y"'
    assert E(FnCall("COALESCE", Var("missing"), Const(literal("d")))) == '"d"'
    assert E(FnCall("BOUND", a), a='"1"').startswith('"true"')
    assert E(FnCall("BOUND", Var("missing"))).startswith('"false"')


def test_datetime_accessors():
    v = Var("x")
    DT = '^^<http://www.w3.org/2001/XMLSchema#dateTime>'
    x = f'"2024-03-05T10:20:30Z"{DT}'
    assert E(FnCall("YEAR", v), x=x) == '"2024"^^<http://www.w3.org/2001/XMLSchema#integer>'
    assert E(FnCall("MONTH", v), x=x) == '"3"^^<http://www.w3.org/2001/XMLSchema#integer>'
    assert E(FnCall("TZ", v), x=x) == '"Z"'
    assert E(FnCall("<", Var("x"), Var("y")), x=x,
             y=f'"2024-03-05T11:00:00Z"{DT}').startswith('"true"')


def test_casts():
    v = Var("x")
    assert E(FnCall("xsd:integer", v), x='"42"') == \
        '"42"^^<http://www.w3.org/2001/XMLSchema#integer>'
    assert E(FnCall("xsd:boolean", v), x='"1"').startswith('"true"')
    assert E(FnCall("xsd:string", v), x='"5"^^<http://www.w3.org/2001/XMLSchema#integer>') == '"5"'
    assert E(FnCall("xsd:integer", v), x='"abc"') is None


# ---------------------------------------------------------------------------
# algebra over a small in-memory graph
# ---------------------------------------------------------------------------

T_ = "http://t"
LANG_ = "http://lang"
N_ = "http://n"
EXTRA_ = "http://extra"
KNOWS_ = "http://knows"


@pytest.fixture(scope="module")
def graph(ray_session):
    import ray.data as rd

    rows = []

    def add(s, p, o):
        rows.append((format_term(s), format_term(p), format_term(o)))

    for i in range(6):
        d = iri(f"http://d/{i}")
        add(d, iri(T_), iri("http://Doc"))
        add(d, iri(LANG_), literal("en" if i % 2 else "fr"))
        add(d, iri(N_), int_literal(100 + i * 50))
        if i < 2:
            add(d, iri(EXTRA_), literal(f"x{i}"))
    # chain 0→1→2→3 plus shortcut 0→3 (for knows+)
    for a, b in ((0, 1), (1, 2), (2, 3), (0, 3)):
        add(iri(f"http://d/{a}"), iri(KNOWS_), iri(f"http://d/{b}"))
    return rd.from_arrow(pa.table({
        "s": pa.array([r[0] for r in rows], pa.large_string()),
        "p": pa.array([r[1] for r in rows], pa.large_string()),
        "o": pa.array([r[2] for r in rows], pa.large_string())}))


def test_bgp_join_and_filter(graph):
    q = Project(["d"], Filter(
        FnCall(">", Var("n"), Const(int_literal(150))),
        BGP([(Var("d"), iri(T_), iri("http://Doc")),
             (Var("d"), iri(N_), Var("n"))])))
    got = sorted(r["d"] for r in evaluate(q, graph).take_all())
    assert got == [f"<http://d/{i}>" for i in (2, 3, 4, 5)]


def test_bgp_join_runs_each_scan_once(graph, tmp_path):
    """Reading a join operand's variables must not run its plan an
    extra time: ``Dataset.schema()`` on a lazy plan executes it up to
    the first block and cancels the tasks still running, so each scan
    would run once partly and once whole (a marker file per input
    batch counts the runs)."""
    import os
    import uuid

    seen = tmp_path / "seen"
    seen.mkdir()
    marks = str(seen)

    def mark(b: pa.Table) -> pa.Table:
        open(os.path.join(marks, uuid.uuid4().hex), "w").close()
        return b

    triples = graph.repartition(4).materialize().map_batches(
        mark, batch_format="pyarrow")
    triples.materialize()
    per_run = len(os.listdir(marks))
    assert per_run >= 4
    for f in os.listdir(marks):
        os.remove(os.path.join(marks, f))

    q = BGP([(Var("d"), iri(T_), iri("http://Doc")),
             (Var("d"), iri(N_), Var("n"))])
    assert evaluate(q, triples).count() == 6
    assert len(os.listdir(marks)) == 2 * per_run  # two scans, one run each


def test_bgp_repeated_variable(graph):
    # ?x knows ?x — nobody knows themselves
    q = BGP([(Var("x"), iri(KNOWS_), Var("x"))])
    assert evaluate(q, graph).count() == 0


def test_left_join_optional(graph):
    q = LeftJoin(BGP([(Var("d"), iri(T_), iri("http://Doc"))]),
                 BGP([(Var("d"), iri(EXTRA_), Var("x"))]))
    rows = evaluate(q, graph).take_all()
    assert len(rows) == 6
    bound = {r["d"]: r["x"] for r in rows if r["x"] is not None}
    assert bound == {"<http://d/0>": '"x0"', "<http://d/1>": '"x1"'}


def test_union_and_distinct(graph):
    en = BGP([(Var("d"), iri(LANG_), literal("en"))])
    fr = BGP([(Var("d"), iri(LANG_), literal("fr"))])
    q = Distinct(Project(["d"], Union(en, Union(fr, fr))))
    assert evaluate(q, graph).count() == 6


def test_minus(graph):
    q = Minus(BGP([(Var("d"), iri(T_), iri("http://Doc"))]),
              BGP([(Var("d"), iri(EXTRA_), Var("x"))]))
    got = sorted(r["d"] for r in evaluate(q, graph).take_all())
    assert got == [f"<http://d/{i}>" for i in (2, 3, 4, 5)]


def test_extend(graph):
    q = Extend("len", FnCall("STRLEN", FnCall("STR", Var("d"))),
               BGP([(Var("d"), iri(LANG_), literal("en"))]))
    rows = evaluate(q, graph).take_all()
    assert all(r["len"] == '"10"^^<http://www.w3.org/2001/XMLSchema#integer>'
               for r in rows)


def test_order_by_value_and_slice(graph):
    q = Slice(OrderBy([(Var("n"), False)],
                      BGP([(Var("d"), iri(N_), Var("n"))])), 1, 3)
    got = [r["n"] for r in evaluate(q, graph).take_all()]
    # numeric DESC: 350, [300, 250, 200], ... — offset 1, limit 3
    assert [g.split('"')[1] for g in got] == ["300", "250", "200"]


def test_group_aggregates(graph):
    q = Group(["lang"],
              [Agg("COUNT", None, "cnt"), Agg("SUM", Var("n"), "total"),
               Agg("MAX", Var("n"), "hi"),
               Agg("GROUP_CONCAT", Var("d"), "ds", separator="|")],
              BGP([(Var("d"), iri(LANG_), Var("lang")),
                   (Var("d"), iri(N_), Var("n"))]))
    rows = {r["lang"]: r for r in evaluate(q, graph).take_all()}
    INT = '^^<http://www.w3.org/2001/XMLSchema#integer>'
    assert rows['"en"']["cnt"] == f'"3"{INT}'
    assert rows['"en"']["total"] == f'"750"{INT}'   # 150+250+350
    assert rows['"fr"']["total"] == f'"600"{INT}'   # 100+200+300
    # MAX by term order within xsd:integer bucket is lexical ("300">"250")
    assert rows['"fr"']["hi"] == f'"300"{INT}'


def test_path_plus(graph):
    q = PathPattern(iri("http://d/0"), ("plus", ("term", iri(KNOWS_))),
                    Var("o"))
    got = sorted(r["o"] for r in evaluate(q, graph).take_all())
    assert got == ["<http://d/1>", "<http://d/2>", "<http://d/3>"]


def test_join_node(graph):
    q = Join(BGP([(Var("d"), iri(LANG_), Var("lang"))]),
             BGP([(Var("d"), iri(N_), Var("n"))]))
    assert evaluate(q, graph).count() == 6


def test_path_star_includes_seeds(graph):
    q = PathPattern(iri("http://d/2"), ("star", ("term", iri(KNOWS_))),
                    Var("o"))
    got = sorted(r["o"] for r in evaluate(q, graph).take_all())
    assert got == ["<http://d/2>", "<http://d/3>"]


def test_exists_and_not_exists(graph):
    from sophia_rs_ray.sparql import Exists

    left = BGP([(Var("d"), iri(T_), iri("http://Doc"))])
    right = BGP([(Var("d"), iri(EXTRA_), Var("x"))])
    got = sorted(r["d"] for r in evaluate(Exists(left, right), graph).take_all())
    assert got == ["<http://d/0>", "<http://d/1>"]
    got_n = sorted(r["d"] for r in
                   evaluate(Exists(left, right, negated=True), graph).take_all())
    assert got_n == [f"<http://d/{i}>" for i in (2, 3, 4, 5)]


# ---------------------------------------------------------------------------
# round-2 regressions: dateTime instants, triple-term fns, compat joins,
# exchange-based Group/Distinct, distributed OFFSET
# ---------------------------------------------------------------------------

def test_datetime_year_boundary():
    # r1 ADVICE (high): positional y*366+mo*31 encoding was not
    # monotonic across year boundaries
    DT = '^^<http://www.w3.org/2001/XMLSchema#dateTime>'
    a, b = Var("a"), Var("b")
    assert E(FnCall("<", a, b), a=f'"2023-12-26T00:00:00Z"{DT}',
             b=f'"2024-01-01T00:00:00Z"{DT}').startswith('"true"')
    assert E(FnCall("<", a, b), a=f'"2023-12-31T23:59:59Z"{DT}',
             b=f'"2024-01-01T00:00:00Z"{DT}').startswith('"true"')
    assert E(FnCall("=", a, b), a=f'"2023-12-26T00:00:00Z"{DT}',
             b=f'"2024-01-01T00:00:00Z"{DT}').startswith('"false"')
    # timezone offsets apply: 01:00+01:00 == 00:00Z
    assert E(FnCall("=", a, b), a=f'"2024-01-01T01:00:00+01:00"{DT}',
             b=f'"2024-01-01T00:00:00Z"{DT}').startswith('"true"')


def test_timezone_fn():
    v = Var("x")
    DT = '^^<http://www.w3.org/2001/XMLSchema#dateTime>'
    DUR = '^^<http://www.w3.org/2001/XMLSchema#dayTimeDuration>'
    assert E(FnCall("TIMEZONE", v), x=f'"2024-03-05T10:20:30Z"{DT}') == \
        f'"PT0S"{DUR}'
    assert E(FnCall("TIMEZONE", v), x=f'"2024-03-05T10:20:30-05:30"{DT}') \
        == f'"-PT5H30M"{DUR}'
    assert E(FnCall("TIMEZONE", v), x=f'"2024-03-05T10:20:30+02:00"{DT}') \
        == f'"PT2H"{DUR}'
    # no timezone → error
    assert E(FnCall("TIMEZONE", v), x=f'"2024-03-05T10:20:30"{DT}') is None


def test_triple_term_fns():
    s, p, o = Var("s"), Var("p"), Var("o")
    tt = E(FnCall("TRIPLE", s, p, o),
           s='<http://a>', p='<http://b>', o='"v"')
    assert tt == '<<( <http://a> <http://b> "v" )>>'
    t = Var("t")
    assert E(FnCall("SUBJECT", t), t=tt) == '<http://a>'
    assert E(FnCall("PREDICATE", t), t=tt) == '<http://b>'
    assert E(FnCall("OBJECT", t), t=tt) == '"v"'
    # literal subject is an error
    assert E(FnCall("TRIPLE", s, p, o), s='"x"', p='<http://b>', o='"v"') \
        is None
    assert E(FnCall("SUBJECT", t), t='"notatriple"') is None


def test_nondeterministic_fns_seeded():
    """RAND/UUID/STRUUID (function.rs:113,296,302): per-invocation
    fresh values from a seeded counter stream — reproducible for a
    pinned seed, distinct across invocations."""
    import re

    from sophia_rs_ray.sparql.expr import (FnCall, eval_expr,
                                           set_pinned_seed)

    set_pinned_seed(42)
    r1, r2 = eval_expr(FnCall("RAND"), {}), eval_expr(FnCall("RAND"), {})
    u1, u2 = eval_expr(FnCall("UUID"), {}), eval_expr(FnCall("UUID"), {})
    s1 = eval_expr(FnCall("STRUUID"), {})
    # value domains
    assert r1[2].endswith("double") and 0.0 <= float(r1[1]) < 1.0
    assert u1[0] == 1 and re.fullmatch(  # KIND_IRI
        r"urn:uuid:[0-9a-f]{8}(-[0-9a-f]{4}){3}-[0-9a-f]{12}", u1[1])
    assert u1[1][23] == "4"                      # RFC 4122 version
    assert s1[0] == 2 and s1[2].endswith("string") and re.fullmatch(
        r"[0-9a-f]{8}(-[0-9a-f]{4}){3}-[0-9a-f]{12}", s1[1])
    # per-invocation freshness
    assert r1 != r2 and u1 != u2
    # seed reproducibility (same seed → same draw sequence)
    set_pinned_seed(42)
    assert eval_expr(FnCall("RAND"), {}) == r1
    assert eval_expr(FnCall("RAND"), {}) == r2
    assert eval_expr(FnCall("UUID"), {}) == u1
    set_pinned_seed(43)
    assert eval_expr(FnCall("RAND"), {}) != r1


def test_compat_join_unbound_shared_var(graph):
    # r1 ADVICE: a UNION-aligned row with ?l unbound must join with
    # EVERY right binding of ?l (SPARQL compatible mappings), not none
    left = Union(BGP([(Var("d"), iri(LANG_), Var("l"))]),
                 BGP([(Var("d"), iri(EXTRA_), Var("x"))]))
    right = BGP([(Var("e"), iri(LANG_), Var("l"))])
    rows = evaluate(Join(left, right), graph).take_all()
    # 6 bound-l rows × 3 same-lang partners + 2 unbound-l rows × 6
    assert len(rows) == 18 + 12
    # unbound-l rows take the right side's binding
    xrows = [r for r in rows if r["x"] is not None]
    assert len(xrows) == 12
    assert all(r["l"] is not None for r in xrows)


def test_minus_with_unbound_shared_var(graph):
    # MINUS compat semantics: left rows with ?x unbound are still
    # removed when the bound overlap (?d) matches a right row
    left = Union(BGP([(Var("d"), iri(LANG_), Var("l"))]),
                 BGP([(Var("d"), iri(EXTRA_), Var("x"))]))
    right = BGP([(Var("d"), iri(EXTRA_), Var("x"))])
    got = sorted(r["d"] for r in
                 evaluate(Minus(left, right), graph).take_all())
    assert got == [f"<http://d/{i}>" for i in (2, 3, 4, 5)]


def test_implicit_group_aggregates(graph):
    # SELECT (COUNT(*) …) with no GROUP BY — distributed partials, no
    # driver take_all (r1 VERDICT item 1)
    INT = '^^<http://www.w3.org/2001/XMLSchema#integer>'
    q = Group([], [Agg("COUNT", None, "cnt"), Agg("SUM", Var("n"), "total"),
                   Agg("AVG", Var("n"), "avg")],
              BGP([(Var("d"), iri(N_), Var("n"))]))
    rows = evaluate(q, graph).take_all()
    assert len(rows) == 1
    assert rows[0]["cnt"] == f'"6"{INT}'
    assert rows[0]["total"] == f'"1350"{INT}'
    # AVG of exact integers is a DECIMAL (op:numeric-divide promotion)
    assert rows[0]["avg"] == \
        '"225.0"^^<http://www.w3.org/2001/XMLSchema#decimal>'


def test_implicit_group_empty_input(graph):
    INT = '^^<http://www.w3.org/2001/XMLSchema#integer>'
    q = Group([], [Agg("COUNT", None, "cnt"), Agg("SUM", Var("n"), "total"),
                   Agg("MIN", Var("n"), "lo")],
              BGP([(Var("d"), iri("http://nosuch"), Var("n"))]))
    rows = evaluate(q, graph).take_all()
    assert len(rows) == 1
    assert rows[0]["cnt"] == f'"0"{INT}'
    assert rows[0]["total"] == f'"0"{INT}'
    assert rows[0]["lo"] is None


def test_count_distinct(graph):
    INT = '^^<http://www.w3.org/2001/XMLSchema#integer>'
    q = Group([], [Agg("COUNT", Var("l"), "nl", distinct=True)],
              BGP([(Var("d"), iri(LANG_), Var("l"))]))
    rows = evaluate(q, graph).take_all()
    assert rows[0]["nl"] == f'"2"{INT}'


def test_offset_without_limit(graph):
    q = Slice(OrderBy([(Var("n"), True)],
                      BGP([(Var("d"), iri(N_), Var("n"))])),
              offset=4)
    rows = evaluate(q, graph).take_all()
    INT = '^^<http://www.w3.org/2001/XMLSchema#integer>'
    assert [r["n"] for r in rows] == [f'"300"{INT}', f'"350"{INT}']


def test_fast_filter_matches_slow_path(graph, ray_session):
    # vectorized FILTER kernels must agree with the row-wise evaluator
    # on every comparison shape over mixed term kinds
    import ray.data as rd
    from sophia_rs_ray.sparql.algebra import _compile_fast_filter
    from sophia_rs_ray.sparql.expr import _parse
    from sophia_rs_ray.sparql import ebv
    from sophia_rs_ray.sparql.expr import eval_expr

    INT = "^^<http://www.w3.org/2001/XMLSchema#integer>"
    DBL = "^^<http://www.w3.org/2001/XMLSchema#double>"
    vals = ['"5"' + INT, '"05"' + INT, '"5.0"' + DBL, '"-3"' + INT,
            '"abc"', '"5"', '"x"@en', '<http://iri>', '_:b1',
            '"2024-01-01T00:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime>',
            None]
    tbl = pa.table({"x": pa.array(vals, pa.string())})
    exprs = [
        FnCall(">", Var("x"), Const(int_literal(4))),
        FnCall("<=", Var("x"), Const(int_literal(5))),
        FnCall("=", Var("x"), Const(int_literal(5))),
        FnCall("!=", Var("x"), Const(int_literal(5))),
        FnCall("=", Var("x"), Const(literal("5"))),
        FnCall("=", Var("x"), Const(langlit("x", "en"))),
        FnCall("=", Var("x"), Const(iri("http://iri"))),
        FnCall("!=", Var("x"), Const(iri("http://iri"))),
        FnCall("&&", FnCall(">", Var("x"), Const(int_literal(0))),
               FnCall("<", Var("x"), Const(int_literal(6)))),
    ]
    for e in exprs:
        fast = _compile_fast_filter(e)
        assert fast is not None, e.fn
        got = fast(tbl).to_pylist()
        want = []
        for v in vals:
            row = {"x": _parse(v) if v is not None else None}
            r = eval_expr(e, row)
            want.append(r is not None and ebv(r) is True)
        assert got == want, (e.fn, got, want)
