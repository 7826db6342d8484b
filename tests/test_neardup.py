"""Near-dup pipeline vs a brute-force Jaccard oracle on synthetic docs
with planted duplicate clusters."""

import numpy as np
import pyarrow as pa
import pytest

from sophia_rs_ray.functions.dedup import (
    _perm_params,
    jaccard,
    minhash_signature,
    shingle_hashes,
)
from sophia_rs_ray.functions.components import union_find


WORDS = ("alpha bravo charlie delta echo foxtrot golf hotel india juliet "
         "kilo lima mike november oscar papa quebec romeo sierra tango "
         "uniform victor whiskey xray yankee zulu").split()


def make_docs(n_clusters=6, dups_per=3, seed=7):
    """Each cluster: one base doc of 40 words + near-identical variants
    (one word changed). Distinct clusters share no vocabulary windows."""
    rng = np.random.RandomState(seed)
    ids, texts = [], []
    i = 0
    for c in range(n_clusters):
        base = [WORDS[rng.randint(len(WORDS))] + str(c) for _ in range(40)]
        for d in range(dups_per):
            doc = list(base)
            if d > 0:
                doc[10 + d] = "changed%d_%d" % (c, d)
            ids.append(i)
            texts.append(" ".join(doc))
            i += 1
    return ids, texts


def brute_force_clusters(ids, texts, threshold):
    shingles = {i: set(shingle_hashes(t).tolist())
                for i, t in zip(ids, texts)}
    edges = [(str(a), str(b))
             for ai, a in enumerate(ids) for b in ids[ai + 1:]
             if jaccard(shingles[a], shingles[b]) >= threshold]
    edges += [(str(i), str(i)) for i in ids]
    comp = union_find(edges)
    # normalize: min int id per component
    groups = {}
    for n, c in comp.items():
        groups.setdefault(c, []).append(int(n))
    out = {}
    for members in groups.values():
        rep = min(members)
        for m in members:
            out[m] = rep
    return out


def test_minhash_estimates_jaccard():
    a, b = _perm_params(256)

    def signature(text):
        return minhash_signature(shingle_hashes(text), a, b)

    ids, texts = make_docs(2, 2)
    s0, s1 = signature(texts[0]), signature(texts[1])
    est = (s0 == s1).mean()
    true = jaccard(set(shingle_hashes(texts[0]).tolist()),
                   set(shingle_hashes(texts[1]).tolist()))
    assert abs(est - true) < 0.15
    s2 = signature(texts[2])  # different cluster
    assert (s0 == s2).mean() < 0.2


def test_near_dup_clusters_match_oracle(ray_session):
    import ray.data as rd

    from sophia_rs_ray.stages.neardup import near_dup_clusters

    ids, texts = make_docs()
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                 "text": texts}))
    got = {r["doc_id"]: r["cluster"]
           for r in near_dup_clusters(ds, threshold=0.5, num_partitions=2).take_all()}
    want = brute_force_clusters(ids, texts, threshold=0.5)
    assert len(got) == len(ids)
    # cluster partitions must agree (same groupings)
    def partition(m):
        g = {}
        for k, v in m.items():
            g.setdefault(v, set()).add(k)
        # sort by member lists: frozensets only have a PARTIAL order, so
        # sorted(frozensets) depends on input order
        return sorted(sorted(s) for s in g.values())
    assert partition(got) == partition(want)


def test_singletons_keep_own_cluster(ray_session):
    import ray.data as rd

    from sophia_rs_ray.stages.neardup import near_dup_clusters

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["totally unique first text about kilo lima",
                 "second document speaks of romeo sierra tango only",
                 "third one oscar papa quebec november here"]}))
    got = {r["doc_id"]: r["cluster"]
           for r in near_dup_clusters(ds, num_partitions=2).take_all()}
    assert got == {1: 1, 2: 2, 3: 3}
