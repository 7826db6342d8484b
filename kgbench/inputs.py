"""Seeded benchmark inputs, written under the benchmark's data directory.

Every input is a pure function of the workload seed, so the same seed
gives the same bytes.  The program under test only ever sees the files
written here.
"""

from __future__ import annotations

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

#: pages are drawn from ids [0, PAGE_UNIVERSE); the generator's entity
#: pool (``n_entities``) is sized from this universe, not from a pass
PAGE_UNIVERSE = 100_000

_DOC_WORDS = ("spark window merge table column vector stream value data "
              "small join filter big group hash customer sort order slow "
              "line part fast row the agg key query a scan batch").split()
_DOC_LANGS = ("en", "zh", "es", "fr", "de")
_DOC_LANG_WEIGHTS = (0.4, 0.15, 0.15, 0.15, 0.15)


def page_ranges(seed: int, sizes):
    """Disjoint ``(first_id, n)`` page-id ranges, one per entry of
    ``sizes``, in seed-chosen order inside ``[0, PAGE_UNIVERSE)``."""
    total = sum(sizes)
    if total > PAGE_UNIVERSE:
        raise ValueError(f"{total} pages exceed the {PAGE_UNIVERSE} universe")
    start = random.Random(f"pages-{seed}").randrange(PAGE_UNIVERSE - total + 1)
    out = []
    for n in sizes:
        out.append((start, n))
        start += n
    return out


def page_table(first: int, n: int) -> pa.Table:
    """``(url, html)`` rows for page ids ``first .. first+n-1``."""
    from sophia_rs_ray.sources.pages import gen_pages_batch

    ids = pa.table({"id": pa.array(range(first, first + n), pa.int64())})
    return gen_pages_batch(ids, PAGE_UNIVERSE).select(["url", "html"])


def write_pages(d: str, first: int, n: int, files: int) -> None:
    """Pages ``first .. first+n-1`` as ``files`` Parquet files in ``d``
    (one file per input block)."""
    per = -(-n // files)
    for b in range(files):
        lo = first + b * per
        hi = min(first + n, lo + per)
        pq.write_table(page_table(lo, hi - lo),
                       os.path.join(d, f"pages-{b}.parquet"))


def expected_spo(first: int, n: int) -> set:
    """Oracle distinct ``(s, p, o)`` set of a page range."""
    from sophia_rs_ray.sources.pages import expected_triples

    out = set()
    for i in range(first, first + n):
        out.update((s, p, o) for _u, s, p, o in expected_triples(i, PAGE_UNIVERSE))
    return out


def documents_table(seed: int, n_docs: int) -> pa.Table:
    """A ``documents`` table in the shape of the sf0.1 one (measured
    side by side in README.md): 30-word vocabulary, 10–99 tokens per doc,
    20 round-robin sources, 5 languages (en 40%), ~5% near-duplicates
    (an earlier doc + ``" dup"``) and ~0.17% exact duplicates.  The seed
    picks every text and the row order."""
    rng = random.Random(f"docs-{seed}")
    texts = []
    for i in range(n_docs):
        r = rng.random()
        if i > 10 and r < 0.05:
            texts.append(texts[rng.randrange(i)] + " dup")
        elif i > 10 and r < 0.0517:
            texts.append(texts[rng.randrange(i)])
        else:
            texts.append(" ".join(rng.choice(_DOC_WORDS)
                                  for _ in range(rng.randint(10, 99))))
    order = list(range(n_docs))
    rng.shuffle(order)
    return pa.table({
        "doc_id": pa.array(order, pa.int64()),
        "text": pa.array([texts[i] for i in order], pa.string()),
        "lang": pa.array(rng.choices(_DOC_LANGS, _DOC_LANG_WEIGHTS, k=n_docs),
                         pa.string()),
        "source": pa.array([f"src{i % 20}" for i in order], pa.string()),
        "n_chars": pa.array([len(texts[i]) for i in order], pa.int64()),
    })
