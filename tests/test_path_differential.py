"""Generative property-path differential gate: random path
expressions over random graphs, checked against an independent
brute-force evaluator (multiset semantics for seq/alt/inv, set
semantics + identity for ?/+/* — W3C §18.4 cardinalities, matching
the engine's documented behavior and reference sparql/src/exec.rs
path handling)."""

import random
from collections import Counter

import pyarrow as pa
import pytest

EX = "http://ex.org/"
PREDICATES = [f"<{EX}p{i}>" for i in range(3)]
NODES = [f"<{EX}n{i}>" for i in range(7)]


def _random_graph(rng):
    triples = set()
    for _ in range(rng.randint(10, 30)):
        triples.add((rng.choice(NODES), rng.choice(PREDICATES),
                     rng.choice(NODES)))
    return sorted(triples)


# path AST: ("iri", p) | ("inv", P) | ("seq", A, B) | ("alt", A, B)
# | ("opt"|"plus"|"star", P) | ("neg", [preds])

def _gen_path(rng, depth):
    if depth <= 0:
        return ("iri", rng.choice(PREDICATES))
    r = rng.random()
    if r < 0.20:
        return ("iri", rng.choice(PREDICATES))
    if r < 0.30:
        return ("inv", _gen_path(rng, depth - 1))
    if r < 0.50:
        return ("seq", _gen_path(rng, depth - 1), _gen_path(rng, depth - 1))
    if r < 0.65:
        return ("alt", _gen_path(rng, depth - 1), _gen_path(rng, depth - 1))
    if r < 0.75:
        return ("opt", _gen_path(rng, depth - 1))
    if r < 0.85:
        return ("plus", _gen_path(rng, depth - 1))
    if r < 0.95:
        return ("star", _gen_path(rng, depth - 1))
    return ("neg", sorted(rng.sample(PREDICATES, rng.randint(1, 2))))


def _to_text(p):
    k = p[0]
    if k == "iri":
        return p[1]
    if k == "inv":
        return f"^({_to_text(p[1])})"
    if k == "seq":
        return f"({_to_text(p[1])}/{_to_text(p[2])})"
    if k == "alt":
        return f"({_to_text(p[1])}|{_to_text(p[2])})"
    if k == "opt":
        return f"({_to_text(p[1])})?"
    if k == "plus":
        return f"({_to_text(p[1])})+"
    if k == "star":
        return f"({_to_text(p[1])})*"
    if k == "neg":
        return "!(" + "|".join(p[1]) + ")"
    raise AssertionError(k)


def _closure(pairs):
    """Transitive closure of a pair SET."""
    adj = {}
    for x, y in pairs:
        adj.setdefault(x, set()).add(y)
    out = set()
    for start in adj:
        seen, todo = set(), [start]
        while todo:
            n = todo.pop()
            for m in adj.get(n, ()):  # noqa: B905
                if m not in seen:
                    seen.add(m)
                    todo.append(m)
        out |= {(start, m) for m in seen}
    return out


def _eval(p, triples, nodes) -> Counter:
    k = p[0]
    if k == "iri":
        return Counter((s, o) for s, pr, o in triples if pr == p[1])
    if k == "neg":
        return Counter((s, o) for s, pr, o in triples if pr not in p[1])
    if k == "inv":
        return Counter({(y, x): c
                        for (x, y), c in _eval(p[1], triples, nodes).items()})
    if k == "seq":
        a = _eval(p[1], triples, nodes)
        b = _eval(p[2], triples, nodes)
        out = Counter()
        for (x, m1), c1 in a.items():
            for (m2, y), c2 in b.items():
                if m1 == m2:
                    out[(x, y)] += c1 * c2
        return out
    if k == "alt":
        return _eval(p[1], triples, nodes) + _eval(p[2], triples, nodes)
    base = set(_eval(p[1], triples, nodes))
    ident = {(n, n) for n in nodes}
    if k == "opt":
        return Counter(base | ident)
    if k == "plus":
        return Counter(_closure(base))
    if k == "star":
        return Counter(_closure(base) | ident)
    raise AssertionError(k)


def _triples_ds(triples):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "s": pa.array([t[0] for t in triples], pa.large_string()),
        "p": pa.array([t[1] for t in triples], pa.large_string()),
        "o": pa.array([t[2] for t in triples], pa.large_string()),
    }))


def _check_free_path(seed):
    from sophia_rs_ray.sparql import select

    rng = random.Random(4000 + seed)
    triples = _random_graph(rng)
    nodes = sorted({t[0] for t in triples} | {t[2] for t in triples})
    path = _gen_path(rng, 2)
    qtext = f"SELECT ?x ?y WHERE {{ ?x {_to_text(path)} ?y }}"

    got = Counter((r["x"], r["y"])
                  for r in select(qtext, _triples_ds(triples)).take_all())
    want = _eval(path, triples, nodes)
    assert got == want, (
        f"seed={seed}\npath: {_to_text(path)}\n"
        f"extra: {(got - want).most_common(5)}\n"
        f"missing: {(want - got).most_common(5)}")


def _check_const_subject_path(seed):
    from sophia_rs_ray.sparql import select

    rng = random.Random(5000 + seed)
    triples = _random_graph(rng)
    nodes = sorted({t[0] for t in triples} | {t[2] for t in triples})
    path = _gen_path(rng, 2)
    start = rng.choice(nodes)
    qtext = f"SELECT ?y WHERE {{ {start} {_to_text(path)} ?y }}"

    got = Counter(r["y"]
                  for r in select(qtext, _triples_ds(triples)).take_all())
    want = Counter()
    for (x, y), c in _eval(path, triples, nodes).items():
        if x == start:
            want[y] += c
    assert got == want, f"seed={seed}\npath: {start} {_to_text(path)}"


@pytest.mark.parametrize("seed", range(25))
def test_random_path_matches_bruteforce(seed, ray_session):
    _check_free_path(seed)


@pytest.mark.parametrize("seed", range(10))
def test_random_path_const_subject(seed, ray_session):
    _check_const_subject_path(seed)


#: seeds whose paths hold a closure (``+`` or ``*``), so the over-gate
#: plan is really exercised
_CLOSURE_SEEDS = {"free": [5, 15, 16], "const": [0, 2, 4]}


@pytest.mark.parametrize("kind,seed", [(k, s) for k, seeds in
                                       _CLOSURE_SEEDS.items()
                                       for s in seeds])
def test_random_path_over_gate(kind, seed, ray_session, monkeypatch):
    """``BROADCAST_ROWS = 0`` moves every closure onto its distributed
    rounds; the rows must still match the brute force."""
    from sophia_rs_ray.functions import broadcast

    monkeypatch.setattr(broadcast, "BROADCAST_ROWS", 0)
    {"free": _check_free_path,
     "const": _check_const_subject_path}[kind](seed)


def test_zero_length_path_from_term_not_in_graph(ray_session):
    """W3C §18.4: a zero-length path from a constant term yields that
    term even when it does not occur in the graph."""
    import ray.data as rd

    from sophia_rs_ray.sparql import select

    ds = rd.from_arrow(pa.table({
        "s": pa.array(["<x:a>"], pa.large_string()),
        "p": pa.array(["<x:p>"], pa.large_string()),
        "o": pa.array(["<x:b>"], pa.large_string()),
    }))
    out = select("SELECT ?y WHERE { <x:zz> <x:p>* ?y }", ds).take_all()
    assert sorted(r["y"] for r in out) == ["<x:zz>"]
