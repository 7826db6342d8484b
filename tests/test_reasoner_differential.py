"""Generative RDFS-entailment differential gate: random ACYCLIC
TBoxes (subClassOf / subPropertyOf DAGs + domain/range declarations)
and random ABoxes, saturated by the engine (``saturate`` under the ρdf
core ``RHO_DF``) and by a recursive-CTE SQL mirror of the same rule
set (rdfs2/3/5/7/9/11 with the closed-schema one-pass semantics) in
DuckDB.

The generated vocabulary is stratified — schema predicates never
appear as subjects/objects of other schema triples — which is the
regime where this SQL mirror's one-pass closed-schema expansion IS the
fixpoint.  Meta-level schema (e.g. ``subPropertyOf rdfs:domain``) is
in scope for the engine, whose schema feedback passes close it, but
not for the mirror; it is pinned in ``test_reasoner_full.py``
(interleaved rdfs5/rdfs7).  Hierarchies are acyclic here; cyclic ones
are pinned in ``test_reasoner.py``."""

import random

import pyarrow as pa
import pytest

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
EX = "http://ex.org/"

TYPE = f"<{RDF}type>"
SUBCLASS = f"<{RDFS}subClassOf>"
SUBPROP = f"<{RDFS}subPropertyOf>"
DOMAIN = f"<{RDFS}domain>"
RANGE = f"<{RDFS}range>"

CLASSES = [f"<{EX}C{i}>" for i in range(6)]
PROPS = [f"<{EX}p{i}>" for i in range(4)]
NODES = [f"<{EX}x{i}>" for i in range(6)] + ["_:b0", "_:b1"]


def _random_ontology(rng):
    triples = set()
    # acyclic subclass edges (i -> j only for i < j)
    for _ in range(rng.randint(2, 6)):
        i, j = sorted(rng.sample(range(len(CLASSES)), 2))
        triples.add((CLASSES[i], SUBCLASS, CLASSES[j]))
    for _ in range(rng.randint(0, 3)):
        i, j = sorted(rng.sample(range(len(PROPS)), 2))
        triples.add((PROPS[i], SUBPROP, PROPS[j]))
    for _ in range(rng.randint(1, 3)):
        triples.add((rng.choice(PROPS), DOMAIN, rng.choice(CLASSES)))
    for _ in range(rng.randint(1, 3)):
        triples.add((rng.choice(PROPS), RANGE, rng.choice(CLASSES)))
    # ABox: property assertions (some literal objects) + typings
    for _ in range(rng.randint(8, 20)):
        o = (f'"{rng.randint(0, 9)}"' if rng.random() < 0.25
             else rng.choice(NODES))
        triples.add((rng.choice(NODES), rng.choice(PROPS), o))
    for _ in range(rng.randint(2, 6)):
        triples.add((rng.choice(NODES), TYPE, rng.choice(CLASSES)))
    return sorted(triples)


SQL = f"""
WITH RECURSIVE
sc(c, d) AS (
  SELECT s, o FROM t WHERE p = '{SUBCLASS}'
  UNION
  SELECT sc.c, t.o FROM sc JOIN t ON t.s = sc.d AND t.p = '{SUBCLASS}'
),
sp(a, b) AS (
  SELECT s, o FROM t WHERE p = '{SUBPROP}'
  UNION
  SELECT sp.a, t.o FROM sp JOIN t ON t.s = sp.b AND t.p = '{SUBPROP}'
),
dom AS (SELECT s AS prop, o AS cls FROM t WHERE p = '{DOMAIN}'),
rng AS (SELECT s AS prop, o AS cls FROM t WHERE p = '{RANGE}'),
qof(p, q) AS (
  SELECT DISTINCT p, p FROM t
  UNION SELECT a, b FROM sp
),
derived AS (
  -- rdfs7: x q y for q a strict super-property of p
  SELECT t.s AS s, sp.b AS p, t.o AS o FROM t JOIN sp ON t.p = sp.a
  -- rdfs2 (+9): domain typing through Q(p), lifted to superclasses
  UNION SELECT t.s, '{TYPE}', dom.cls
    FROM t JOIN qof ON t.p = qof.p JOIN dom ON dom.prop = qof.q
  UNION SELECT t.s, '{TYPE}', sc.d
    FROM t JOIN qof ON t.p = qof.p JOIN dom ON dom.prop = qof.q
         JOIN sc ON sc.c = dom.cls
  -- rdfs3 (+9): range typing, every non-literal object
  UNION SELECT t.o, '{TYPE}', rng.cls
    FROM t JOIN qof ON t.p = qof.p JOIN rng ON rng.prop = qof.q
    WHERE t.o NOT LIKE '"%'
  UNION SELECT t.o, '{TYPE}', sc.d
    FROM t JOIN qof ON t.p = qof.p JOIN rng ON rng.prop = qof.q
         JOIN sc ON sc.c = rng.cls
    WHERE t.o NOT LIKE '"%'
  -- rdfs9: supertype closure of explicit typings
  UNION SELECT t.s, '{TYPE}', sc.d FROM t JOIN sc ON t.o = sc.c
    WHERE t.p = '{TYPE}'
  -- rdfs11 / rdfs5: closed hierarchy edges
  UNION SELECT c, '{SUBCLASS}', d FROM sc
  UNION SELECT a, '{SUBPROP}', b FROM sp
)
SELECT DISTINCT s, p, o FROM
  (SELECT s, p, o FROM t UNION ALL SELECT s, p, o FROM derived)
"""


@pytest.mark.parametrize("seed", range(25))
def test_random_rdfs_saturation_matches_duckdb(seed, ray_session):
    import duckdb
    import ray.data as rd

    from sophia_rs_ray.reasoner import RHO_DF, saturate

    rng = random.Random(3300 + seed)
    triples = _random_ontology(rng)

    ds = rd.from_arrow(pa.table({
        "s": pa.array([x[0] for x in triples], pa.large_string()),
        "p": pa.array([x[1] for x in triples], pa.large_string()),
        "o": pa.array([x[2] for x in triples], pa.large_string()),
    }))
    out = saturate(ds, RHO_DF)
    got = sorted((r["s"], r["p"], r["o"]) for r in out.take_all())

    con = duckdb.connect()
    con.register("t_src", pa.table({
        "s": pa.array([x[0] for x in triples]),
        "p": pa.array([x[1] for x in triples]),
        "o": pa.array([x[2] for x in triples]),
    }))
    con.execute("CREATE VIEW t AS SELECT * FROM t_src")
    want = sorted(map(tuple, con.execute(SQL).fetchall()))

    assert got == want, (
        f"seed={seed}: engine {len(got)} rows, sql {len(want)} rows\n"
        f"engine-only: {sorted(set(got) - set(want))[:8]}\n"
        f"sql-only: {sorted(set(want) - set(got))[:8]}")
