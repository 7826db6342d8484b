"""Canonical entity dedup: same-name entities collapse onto the min
IRI; triples rewritten and deduped; unrelated entities untouched."""

import pyarrow as pa
import pytest

from sophia_rs_ray.stages.entity_dedup import (
    canonicalize_entities, entity_mapping_ds, entity_name_table,
)

ENT = "http://kg.example/entity/"
NAME = "<http://schema.org/name>"
KNOWS = "<http://schema.org/knows>"


def _nt(ray_session):
    import ray.data as rd

    rows = [
        # two IRIs, identical name → must merge (canonical = min IRI)
        (f"<{ENT}10>", NAME, '"Alice Johnson"'),
        (f"<{ENT}470>", NAME, '"Alice Johnson"'),
        # distinct name → untouched
        (f"<{ENT}22>", NAME, '"Globex Inc 22"'),
        # instance triples referencing the duplicate entity
        (f"<{ENT}470>", KNOWS, f"<{ENT}22>"),
        (f"<{ENT}22>", KNOWS, f"<{ENT}470>"),
        (f"<{ENT}10>", KNOWS, f"<{ENT}22>"),  # becomes dup after rewrite
    ]
    return rd.from_arrow(pa.table({
        "s": pa.array([r[0] for r in rows], pa.large_string()),
        "p": pa.array([r[1] for r in rows], pa.large_string()),
        "o": pa.array([r[2] for r in rows], pa.large_string())}))


def test_entity_name_table(ray_session):
    t = entity_name_table(_nt(ray_session), subject_prefix=ENT).take_all()
    got = {(r["doc_id"], r["text"]) for r in t}
    assert got == {(f"<{ENT}10>", "Alice Johnson"),
                   (f"<{ENT}470>", "Alice Johnson"),
                   (f"<{ENT}22>", "Globex Inc 22")}


def test_mapping_and_rewrite(ray_session):
    nt = _nt(ray_session)
    out, mapping = canonicalize_entities(
        nt, subject_prefix=ENT, threshold=0.9, num_partitions=2)
    assert mapping == {f"<{ENT}470>": f"<{ENT}10>"}
    rows = {(r["s"], r["p"], r["o"]) for r in out.take_all()}
    assert rows == {
        (f"<{ENT}10>", NAME, '"Alice Johnson"'),
        (f"<{ENT}22>", NAME, '"Globex Inc 22"'),
        (f"<{ENT}10>", KNOWS, f"<{ENT}22>"),   # merged + deduped
        (f"<{ENT}22>", KNOWS, f"<{ENT}10>"),
    }


def test_no_merge_below_threshold(ray_session):
    import ray.data as rd

    rows = [(f"<{ENT}1>", NAME, '"Alpha Beta Gamma"'),
            (f"<{ENT}2>", NAME, '"Delta Epsilon Zeta"')]
    nt = rd.from_arrow(pa.table({
        "s": pa.array([r[0] for r in rows], pa.large_string()),
        "p": pa.array([r[1] for r in rows], pa.large_string()),
        "o": pa.array([r[2] for r in rows], pa.large_string())}))
    m = entity_mapping_ds(nt, subject_prefix=ENT, threshold=0.9,
                          num_partitions=2)
    assert m.take_all() == []
