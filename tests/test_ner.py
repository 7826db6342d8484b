"""NER mention detection + entity-link scoring oracle tests.

The oracle is computed from the page-template parameters directly
(sources/pages._params) — NOT by re-running the detector — so the test
checks the whole distributed path: dictionary build from schema:name
triples, ray.put broadcast, cached per-worker detection, context join,
argmax scoring.
"""

import pyarrow as pa
import pytest

from sophia_rs_ray.sources.pages import (
    ENT, _params, entity_iri, entity_name, pages_dataset,
)
from sophia_rs_ray.stages.ner import (
    MentionDetector, compile_gazetteer, entity_link_pipeline,
    links_to_triples, name_dictionary, score_links,
)

N_PAGES = 120  # n_entities=40 → globally unique surfaces (no ambiguity)


def _covered_entities(n):
    """Entity ids that actually receive a schema:name triple somewhere
    in the corpus (the linkable catalog)."""
    persons, orgs, events = set(), set(), set()
    for i in range(n):
        p = _params(i, n)
        persons.add(p["person"])
        orgs.add(p["org"])
        events.add(p["event"])
    return persons | orgs, events


@pytest.fixture(scope="module")
def links(ray_session):
    ds = entity_link_pipeline(pages_dataset(N_PAGES), subject_prefix=ENT,
                              num_partitions=4)
    return ds.take_all()


def test_linking_accuracy_vs_template(links):
    pred = {}
    for r in links:
        pred.setdefault((r["url"], r["surface"]), set()).add(r["entity"])

    named, named_events = _covered_entities(N_PAGES)
    correct = total = 0
    for i in range(N_PAGES):
        p = _params(i, N_PAGES)
        truth = {}
        for e in [p["person"], p["org"], *p["mentions"]]:
            if e in named:
                truth[entity_name(e)] = entity_iri(e)
        if p["event"] in named_events:
            truth[f"Conf {p['event']}"] = entity_iri(p["event"]) + "#event"
        for surface, ent in truth.items():
            total += 1
            if pred.get((p["url"], surface)) == {ent}:
                correct += 1
    assert total > 300
    assert correct / total >= 0.95, f"{correct}/{total}"


def test_links_to_triples_shape(links, ray_session):
    import ray.data as rd

    ds = rd.from_items(links[:20])
    out = links_to_triples(ds).take_all()
    assert len(out) == 20
    for r in out:
        assert r["s"].startswith("<https://") and r["s"].endswith(">")
        assert r["p"] == "<http://schema.org/mentions>"
        assert r["o"].startswith(f"<{ENT}")


def test_context_disambiguation(ray_session):
    """Two entities share a surface; the page-context join must pick the
    one present in the page's own triples over the higher-prior one."""
    import ray.data as rd

    d = {"Bob Ray": [("http://kg.example/entity/1", 0.5),
                     ("http://kg.example/entity/300", 1 / 301)]}
    det = MentionDetector(d)
    mentions = det(pa.table({
        "url": pa.array(["https://a.example/p"], pa.large_string()),
        "text": pa.array(["Bob Ray spoke."], pa.large_string())}))
    assert mentions.num_rows == 2  # both candidates exploded

    ctx = pa.table({
        "url": pa.array(["https://a.example/p"], pa.large_string()),
        "cand": pa.array(["http://kg.example/entity/300"], pa.large_string()),
        "in_ctx": pa.array([1], pa.int64())})
    out = score_links(rd.from_arrow(mentions), rd.from_arrow(ctx),
                      num_partitions=1).take_all()
    assert len(out) == 1
    assert out[0]["entity"] == "http://kg.example/entity/300"
    assert out[0]["score"] > 2.0

    # context rows for OTHER pages don't help: the prior wins
    other = pa.table({
        "url": pa.array(["https://b.example/q"], pa.large_string()),
        "cand": pa.array(["http://kg.example/entity/300"], pa.large_string()),
        "in_ctx": pa.array([1], pa.int64())})
    out2 = score_links(rd.from_arrow(mentions), rd.from_arrow(other),
                       num_partitions=1).take_all()
    assert out2[0]["entity"] == "http://kg.example/entity/1"


def test_gazetteer_longest_match():
    rx = compile_gazetteer(["hash", "hash join", "join"])
    assert [m.group(0) for m in rx.finditer("a hash join b hash c")] == \
        ["hash join", "hash"]
    # boundary: no match inside words / numbers
    rx2 = compile_gazetteer(["Conf 1"])
    assert [m.group(0) for m in rx2.finditer("Conf 13 and Conf 1!")] == ["Conf 1"]


def test_name_dictionary_from_triples(ray_session):
    import ray.data as rd

    nt = rd.from_arrow(pa.table({
        "url": pa.array(["u1", "u1", "u1", "u2"], pa.large_string()),
        "s": pa.array([f"<{ENT}7>", f"<{ENT}7>", "_:b0_x", f"<{ENT}8>"],
                      pa.large_string()),
        "p": pa.array(['<http://schema.org/name>'] * 4, pa.large_string()),
        "o": pa.array(['"Ann \\"Q\\" Lee"', '"Ann \\"Q\\" Lee"', '"Prize 3"',
                       '"B\\nC"'], pa.large_string()),
    }))
    d = name_dictionary(nt, subject_prefix=ENT)
    assert d == {'Ann "Q" Lee': [(f"{ENT}7", 1 / 8)],
                 "B\nC": [(f"{ENT}8", 1 / 9)]}
