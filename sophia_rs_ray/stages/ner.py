"""NER mention detection + entity-link scoring (per-worker cached stages).

North-rule stages (BASELINE.json ``north_star``): "stateful actor-pool
stages run batched NER mention detection and entity-link scoring against
an interned term dictionary".  The reference has no NER (SURVEY §2.4
marks these north-rule-only); the *term dictionary* they score against is
the distributed analogue of sophia's ``BasicTermIndex`` interning
(reference ``inmem/src/index.rs:322-368``): a read-only ``surface →
[(entity_iri, prior)]`` map built **from the graph itself** (the
``schema:name`` triples), shipped once to the object store with
``ray.put`` and built once per worker process
(``broadcast.worker_cached``) — never re-shipped per batch.

Pipeline shape (all Ray Data, no driver loops):

    triples ──filter p=schema:name──► name dictionary (small side, ray.put)
       │                                        │
       └──► page_entities (url, ent)     detect_mentions (cached
                     │                          │  MentionDetector per
                     │                          │  worker: pages →
                     └────── left join on ──────┘  mentions, candidates
                             (url, cand)           exploded)
                                │
              hash exchange on (url, begin) → argmax
                                │
                   links (url, surface, entity, score)

Scale notes: the dictionary is the *entity catalog*, not the corpus —
O(#entities), assumed to fit the object store for broadcast (the usual
KG case).  If it outgrows that, the scale path is sharding the
dictionary by ``hash(surface)`` and replacing the broadcast with a
hash join on the surface key; the join + exchange stages below
already express link scoring without per-driver loops.  Hub entities
(the "celebrity" skew in the synthetic corpus) only widen the
*candidate* explode, which is capped per mention.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

import pyarrow as pa
import pyarrow.compute as pc
from ..functions.exchange import grouped, hash_aggregate
from ..util import safe_join

SCHEMA_NAME = "http://schema.org/name"
SCHEMA_MENTIONS = "http://schema.org/mentions"

_WORDish = re.compile(r"[A-Za-z0-9]")


# ---------------------------------------------------------------------------
# dictionary build (small-side aggregation)
# ---------------------------------------------------------------------------

def name_dictionary(nt_triples_ds, *, subject_prefix: str = "",
                    name_predicate: str = SCHEMA_NAME) -> Dict[str, List[Tuple[str, float]]]:
    """Interned term dictionary from the graph's ``schema:name`` triples.

    Input: NT-formatted (s, p, o[, url]) rows.  Output: ``surface →
    [(entity_iri, prior)]`` where the IRI keeps its ``<...>`` NT form
    stripped and prior = 1/(1+numeric id) when the IRI tail is numeric
    (popularity-free deterministic tie-break).  Filters to IRI subjects
    (bnodes — e.g. award sub-objects — are not linkable entities).
    """
    pred = f"<{name_predicate}>"
    small = nt_triples_ds.map_batches(
        lambda b: b.filter(
            pc.and_(pc.equal(b["p"], pa.scalar(pred)),
                    pc.starts_with(b["s"], "<" + subject_prefix))
        ).select(["s", "o"]),
        batch_format="pyarrow",
    )
    # entity catalog: small side — materialize driver-side, then ray.put
    batches = list(small.iter_batches(batch_size=8192, batch_format="pyarrow"))
    schema = pa.schema([("s", pa.large_string()), ("o", pa.large_string())])
    tbl = (pa.concat_tables([pa.table(b) if not isinstance(b, pa.Table) else b
                             for b in batches])
           if batches else schema.empty_table())
    d: Dict[str, List[Tuple[str, float]]] = {}
    seen = set()
    for s_nt, o_nt in zip(tbl["s"].to_pylist(), tbl["o"].to_pylist()):
        ent = s_nt[1:-1]  # strip <>
        if not (o_nt.startswith('"')):
            continue
        surface = _unescape_nt_literal(o_nt)
        if surface is None or (ent, surface) in seen:
            continue
        seen.add((ent, surface))
        tail = ent.rsplit("/", 1)[-1].split("#", 1)[0]
        prior = 1.0 / (1.0 + int(tail)) if tail.isdigit() else 0.0
        d.setdefault(surface, []).append((ent, prior))
    for cands in d.values():
        cands.sort(key=lambda c: (-c[1], c[0]))
    return d


def _unescape_nt_literal(o_nt: str) -> Optional[str]:
    """Lexical form of a canonical-NT literal (drops datatype/lang tail)."""
    if not o_nt.startswith('"'):
        return None
    i, out = 1, []
    n = len(o_nt)
    esc = {"n": "\n", "r": "\r", "t": "\t", "b": "\b", "f": "\f",
           '"': '"', "\\": "\\"}
    while i < n:
        c = o_nt[i]
        if c == '"':
            return "".join(out)
        if c == "\\" and i + 1 < n:
            nxt = o_nt[i + 1]
            if nxt in esc:
                out.append(esc[nxt]); i += 2; continue
            if nxt == "u" and i + 6 <= n:
                out.append(chr(int(o_nt[i + 2:i + 6], 16))); i += 6; continue
            if nxt == "U" and i + 10 <= n:
                out.append(chr(int(o_nt[i + 2:i + 10], 16))); i += 10; continue
        out.append(c)
        i += 1
    return None


# ---------------------------------------------------------------------------
# mention detection (gazetteer compiled once per worker process)
# ---------------------------------------------------------------------------

def compile_gazetteer(surfaces: Sequence[str]) -> Optional[re.Pattern]:
    """One alternation regex, longest-surface-first (leftmost-longest
    non-overlapping matching), bounded by non-alphanumerics.  Compiled
    once per worker (SURVEY §2.4 — setup in ``__init__``, not per batch).
    Scale path for 10^7+ surfaces: Aho-Corasick automaton."""
    surfaces = [s for s in surfaces if s and _WORDish.search(s)]
    if not surfaces:
        return None
    alts = sorted(surfaces, key=len, reverse=True)
    pat = "|".join(re.escape(s) for s in alts)
    return re.compile(r"(?<![A-Za-z0-9])(?:" + pat + r")(?![A-Za-z0-9])")


class MentionDetector:
    """(url|doc_id, text) → candidate mention rows, over a ``surface →
    [(entity_iri, prior)]`` dict.  ``detect_mentions`` builds one per
    worker process from the broadcast dictionary."""

    def __init__(self, dictionary: dict, *, key_col: str = "url",
                 text_col: str = "text", max_candidates: int = 8):
        self.dict = dictionary
        self.rx = compile_gazetteer(list(dictionary.keys()))
        self.key_col = key_col
        self.text_col = text_col
        self.max_candidates = max_candidates

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_pylist()
        texts = batch[self.text_col].to_pylist()
        key_type = batch[self.key_col].type
        k_out: List = []
        begin: List[int] = []
        surf: List[str] = []
        cand: List[str] = []
        prior: List[float] = []
        ncand: List[int] = []
        if self.rx is not None:
            for key, text in zip(keys, texts):
                for m in self.rx.finditer(text or ""):
                    s = m.group(0)
                    cands = self.dict.get(s, [])[: self.max_candidates]
                    for ent, pr in cands:
                        k_out.append(key)
                        begin.append(m.start())
                        surf.append(s)
                        cand.append(ent)
                        prior.append(pr)
                        ncand.append(len(cands))
        return pa.table({
            self.key_col: pa.array(k_out, key_type),
            "begin": pa.array(begin, pa.int64()),
            "surface": pa.array(surf, pa.large_string()),
            "cand": pa.array(cand, pa.large_string()),
            "prior": pa.array(prior, pa.float64()),
            "n_cands": pa.array(ncand, pa.int64()),
        })


def detect_mentions(ds, dictionary, *, key_col: str = "url",
                    text_col: str = "text", max_candidates: int = 8,
                    batch_size: int = 256):
    """Task-pool mention detection: the gazetteer automaton compiles
    once per worker process (cache keyed by the broadcast ref, zero-copy
    ``ray.get`` from the node-local store), with no per-execution actor
    spin-up cost.  Plain dicts are ``ray.put`` here so every task shares
    one broadcast copy."""
    import ray

    from ..functions.broadcast import worker_cached

    if not isinstance(dictionary, ray.ObjectRef):
        dictionary = ray.put(dictionary)

    def build(d: dict) -> MentionDetector:
        return MentionDetector(d, key_col=key_col, text_col=text_col,
                               max_candidates=max_candidates)

    def fn(b: pa.Table) -> pa.Table:
        return worker_cached(dictionary, build,
                             key=(key_col, text_col, max_candidates))(b)

    return ds.map_batches(fn, batch_format="pyarrow",
                          batch_size=batch_size)


# ---------------------------------------------------------------------------
# link scoring (context join + per-mention argmax)
# ---------------------------------------------------------------------------

def page_entities(nt_triples_ds, *, subject_prefix: str = ""):
    """(url, ent) pairs: IRI subjects/objects present in each page's own
    triples — the disambiguation context."""
    def per_batch(b: pa.Table) -> pa.Table:
        urls: List[str] = []
        ents: List[str] = []
        u = b["url"].to_pylist()
        for col in ("s", "o"):
            for url, t in zip(u, b[col].to_pylist()):
                if t.startswith("<" + subject_prefix):
                    urls.append(url)
                    ents.append(t[1:-1])
        return pa.table({"url": pa.array(urls, pa.large_string()),
                         "cand": pa.array(ents, pa.large_string()),
                         "in_ctx": pa.array([1] * len(urls), pa.int64())})

    return grouped(nt_triples_ds.map_batches(per_batch,
                                             batch_format="pyarrow"),
                   ["url", "cand"], [("in_ctx", "max")])


def score_links(mentions_ds, context_ds, *, key_col: str = "url",
                num_partitions: int = 16):
    """mentions ⟕ page-context on (url, cand) → per-mention argmax.

    score = 2·in_context + prior: a candidate confirmed by the page's own
    structured triples wins; otherwise the deterministic prior breaks
    ties (no RNG — SURVEY §4.1 determinism hazards)."""
    def norm(b: pa.Table) -> pa.Table:
        # join keys must agree exactly (large_string vs string, and
        # int doc_ids), so pin both sides to string.
        for c in (key_col, "cand"):
            if c in b.column_names:
                i = b.column_names.index(c)
                b = b.set_column(i, c, pc.cast(b[c], pa.string()))
        return b

    joined = safe_join(
        mentions_ds.map_batches(norm, batch_format="pyarrow"),
        context_ds.map_batches(norm, batch_format="pyarrow"),
        "left_outer", num_partitions, on=(key_col, "cand"))

    def pick_best(t: pa.Table) -> pa.Table:
        # the first row of each (key, begin) run in (score desc, cand
        # desc) order: the max of (score, cand)
        ctx = pc.fill_null(pc.not_equal(t["in_ctx"], 0), False)
        score = pc.add(pc.multiply(pc.cast(ctx, pa.float64()), 2.0),
                       t["prior"])
        t = t.append_column("score", score).sort_by(
            [("score", "descending"), ("cand", "descending")])
        best = t.group_by([key_col, "begin"], use_threads=False).aggregate(
            [("surface", "first"), ("cand", "first"), ("score", "first")])
        return best.rename_columns(
            [key_col, "begin", "surface", "entity", "score"])

    return hash_aggregate(joined, [key_col, "begin"], None, pick_best,
                          num_partitions=num_partitions)


def links_to_triples(links_ds, *, key_col: str = "url"):
    """links → NT mention triples ``<url> schema:mentions <entity>``."""
    pred = f"<{SCHEMA_MENTIONS}>"

    def fmt(b: pa.Table) -> pa.Table:
        urls = b[key_col].to_pylist()
        ents = b["entity"].to_pylist()
        return pa.table({
            "url": pa.array(urls, pa.large_string()),
            "s": pa.array([f"<{u}>" for u in urls], pa.large_string()),
            "p": pa.array([pred] * len(urls), pa.large_string()),
            "o": pa.array([f"<{e}>" for e in ents], pa.large_string()),
        })

    return links_ds.map_batches(fmt, batch_format="pyarrow")


def entity_link_pipeline(pages_ds, *, subject_prefix: str = "",
                         batch_size: int = 128,
                         num_partitions: Optional[int] = None):
    """End-to-end: pages → triples + text → dictionary broadcast →
    mention detection (per-worker cached detector) → context join →
    scored links."""
    import ray

    from ..pipelines.kg import extract_text, kg_pipeline

    if num_partitions is None:
        # exchange width ~ cluster CPUs
        num_partitions = max(4, int(ray.cluster_resources().get("CPU", 4)))

    # The deduped triple table feeds BOTH the dictionary build and the
    # context join; materialize it once instead of re-running extraction.
    # (In the checkpointed production layout this is the triples Parquet
    # partition set being read back — see stages/materialize.)
    nt = kg_pipeline(pages_ds, dedup=True, sort=False,
                     keep_url=True).materialize()
    d = name_dictionary(nt, subject_prefix=subject_prefix)
    d_ref = ray.put(d)
    text = extract_text(pages_ds)
    mentions = detect_mentions(text, d_ref, batch_size=batch_size)
    ctx = page_entities(nt, subject_prefix=subject_prefix)
    return score_links(mentions, ctx, num_partitions=num_partitions)
