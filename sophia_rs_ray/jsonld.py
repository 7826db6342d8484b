"""JSON-LD → RDF triples (deterministic expansion subset).

Plays the role of the reference's ``JsonLdParser``
(``jsonld/src/parser.rs:42``, options ``jsonld/src/options.rs:34``) for the
embedded-in-web-pages use case. Like the reference's default
``NoLoader``, no remote contexts are dereferenced by default — a small
compiled-in mapping covers the contexts that occur in web data
(schema.org); inline dict contexts are fully supported, and
:class:`JsonLdOptions` exposes the reference's options surface
(``base``, ``expand_context``, a pluggable ``context_loader`` standing
in for ``with_document_loader``, and ``processing_mode`` with 1.0
conflict detection).

Supported subset (documented deviations from full JSON-LD 1.1):

- ``@context``: inline dicts (term→IRI, prefix→IRI, ``@vocab``, ``@base``,
  term defs with ``@id``/``@type: @id``), arrays of contexts, and the
  well-known remote contexts ``http(s)://schema.org[/]`` (mapped to
  ``@vocab: http://schema.org/``);  other remote contexts are ignored
  (their terms then drop, as with NoLoader).
- node objects: ``@id`` (resolved against base), ``@type``, ``@graph``,
  nested node objects (→ blank nodes), arrays, ``@list`` (rdf:first/rest
  chains), value objects (``@value`` + ``@language``/``@direction``/
  ``@type``), ``@reverse`` (node-level maps AND reversed term
  definitions; literal values in reverse position are dropped per the
  expansion algorithm).
- native values: string → xsd:string, bool → xsd:boolean, integral
  number → xsd:integer, other number → canonical xsd:double (JSON-LD
  data round-tripping, e.g. ``5.5 → "5.5E0"``).
- terms that expand to neither an absolute IRI nor a keyword are dropped
  (standard expansion behavior).

Blank node labels are ``b0, b1, …`` in document order — deterministic, so
downstream skolemization (suffix = h(url‖extractor), SURVEY §2.1) is
reproducible.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from .iri import is_absolute_iri, resolve
from .ntriples import parse_term_text
from .terms import (
    DIR_LTR,
    DIR_RTL,
    KIND_BNODE,
    KIND_IRI,
    KIND_LITERAL,
    RDF,
    Term,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    bnode,
    iri,
    langlit,
    literal,
)

RDF_FIRST = RDF + "first"
RDF_REST = RDF + "rest"
RDF_NIL = RDF + "nil"

#: compiled-in stand-ins for common remote contexts (NoLoader analogue)
_KNOWN_REMOTE = {
    "http://schema.org": {"@vocab": "http://schema.org/"},
    "http://schema.org/": {"@vocab": "http://schema.org/"},
    "https://schema.org": {"@vocab": "http://schema.org/"},
    "https://schema.org/": {"@vocab": "http://schema.org/"},
}

_KEYWORDS = frozenset((
    "@context", "@id", "@type", "@value", "@language", "@direction",
    "@graph", "@list", "@set", "@reverse", "@base", "@vocab", "@index",
    "@nest", "@json", "@none", "@included", "@protected", "@propagate",
    "@version",
))


_MISS = object()  # vcache sentinel (None is a legal expansion result)
_NO_DEF: dict = {}  # the empty term definition (read-only, shared)


def _canonical_json(v: Any) -> str:
    """Canonical JSON for rdf:JSON literals (JSON-LD 1.1 §4.2.2 points
    at RFC 8785 JCS; this covers its common cases: sorted object keys,
    no insignificant whitespace, UTF-8 kept raw.  Deviation: float
    serialization uses Python's shortest-repr, which matches JCS for
    the values that appear in web data)."""
    return json.dumps(v, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def canonical_double(v: float) -> str:
    """Canonical xsd:double lexical form (JSON-LD data round-tripping):
    one nonzero digit before the dot, trailing zeros trimmed, exponent
    without '+'/leading zeros. ``5.5 → "5.5E0"``, ``-0.75 → "-7.5E-1"``."""
    if v != v:
        return "NaN"
    if v == float("inf"):
        return "INF"
    if v == float("-inf"):
        return "-INF"
    short = repr(v)
    if "e" not in short and "E" not in short and "." in short:
        # the shortest repr is positional: re-derive the mantissa from it
        neg = short.startswith("-")
        digits = short.lstrip("-").replace(".", "")
        point = short.lstrip("-").index(".")
        digits = digits.lstrip("0")
        lead_zeros = len(short.lstrip("-").replace(".", "")) - len(digits)
        e = point - 1 - lead_zeros
        digits = digits.rstrip("0") or "0"
        m = digits[0] + "." + (digits[1:] or "0")
        return ("-" if neg else "") + m + "E" + str(e)
    mant, _, exp = f"{v:.15E}".partition("E")
    mant = mant.rstrip("0")
    if mant.endswith("."):
        mant += "0"
    return mant + "E" + str(int(exp))


class JsonLdOptions:
    """Processing options (reference ``jsonld/src/options.rs:34``).

    - ``base``: document base IRI (``with_base`` /
      ``options.rs:177-185``);
    - ``expand_context``: a context applied BEFORE the document's own
      (``with_expand_context``, ``options.rs:305-314``) — a dict, a
      list, or a remote URL resolved through the loader;
    - ``context_loader``: ``fn(url) -> context | None`` — the
      pluggable document loader (``with_document_loader*``,
      ``options.rs:208-304``).  Default None = the reference's
      ``NoLoader`` plus the compiled-in well-known table; a deployment
      plugs an HTTP client here.  May return the raw remote document
      (``{"@context": …}``) or the context itself;
    - ``processing_mode``: ``"json-ld-1.1"`` (default) or
      ``"json-ld-1.0"`` — in 1.0 mode a context carrying
      ``"@version": 1.1`` raises a processing-mode conflict, per the
      spec;
    - ``rdf_direction``: how ``@direction`` on language-tagged values
      reaches RDF (``options.rs:117-124`` ``RdfDirection``):
      ``None`` (default) keeps it as the native RDF 1.2 initial text
      direction on the language literal (sophia's term model),
      ``"i18n-datatype"`` emits a plain literal typed
      ``https://www.w3.org/ns/i18n#{lang}_{dir}``, and
      ``"compound-literal"`` emits a bnode with ``rdf:value`` /
      ``rdf:language`` / ``rdf:direction`` triples;
    - ``use_native_types`` / ``use_rdf_type``: fromRdf serializer
      options (``options.rs:126-142``) — honored by
      ``serialize_jsonld``: native JSON numbers/booleans for
      xsd:integer/double/boolean literals, and ``rdf:type`` kept as a
      plain property instead of ``@type``."""

    __slots__ = ("base", "expand_context", "context_loader",
                 "processing_mode", "rdf_direction", "use_native_types",
                 "use_rdf_type")

    def __init__(self, base: Optional[str] = None, expand_context=None,
                 context_loader=None,
                 processing_mode: str = "json-ld-1.1",
                 rdf_direction: Optional[str] = None,
                 use_native_types: bool = False,
                 use_rdf_type: bool = False):
        if processing_mode not in ("json-ld-1.0", "json-ld-1.1"):
            raise ValueError(f"bad processing mode {processing_mode!r}")
        if rdf_direction not in (None, "i18n-datatype", "compound-literal"):
            raise ValueError(f"bad rdf_direction {rdf_direction!r}")
        self.base = base
        self.expand_context = expand_context
        self.context_loader = context_loader
        self.processing_mode = processing_mode
        self.rdf_direction = rdf_direction
        self.use_native_types = use_native_types
        self.use_rdf_type = use_rdf_type


class _Context:
    __slots__ = ("terms", "vocab", "base", "options", "prev", "vcache")

    def __init__(self, base: Optional[str],
                 options: Optional[JsonLdOptions] = None):
        self.terms: Dict[str, dict] = {}
        self.vocab: Optional[str] = None
        self.base = base
        self.options = options
        #: the context to revert to in NESTED node objects when the
        #: last applied context carried ``"@propagate": false``
        #: (JSON-LD 1.1 §4.1.3); None = contexts propagate normally
        self.prev: Optional["_Context"] = None
        #: memo for vocab-mode expand_iri results — the vocab path
        #: never consults ``base``, so cached contexts (shared across
        #: documents with different bases) may share one dict; only
        #: set on cache-managed contexts (None = no memoization)
        self.vcache: Optional[dict] = None

    def copy(self) -> "_Context":
        c = _Context(self.base, self.options)
        c.terms = dict(self.terms)
        c.vocab = self.vocab
        c.prev = self.prev
        # vcache intentionally NOT carried: copy() callers (apply) go
        # on to mutate terms, which would stale the memo
        return c

    def copy_for_base(self, base: Optional[str]) -> "_Context":
        """Cache-hit clone: identical terms (shared — never mutated in
        place; ``apply`` always re-dicts), new document base."""
        c = _Context(base, None)
        c.terms = self.terms
        c.vocab = self.vocab
        # a non-propagating cached context reverts to the (empty)
        # pre-application state — which must carry THIS document's base
        c.prev = self.prev.copy_for_base(base) if self.prev is not None \
            else None
        c.vcache = self.vcache
        return c

    def descend(self) -> "_Context":
        """The context a NESTED node object starts from: reverts any
        non-propagating context applications (``@propagate: false``)."""
        c = self
        while c.prev is not None:
            c = c.prev
        return c

    def _load_remote(self, url: str) -> Any:
        loader = self.options.context_loader if self.options else None
        if loader is not None:
            doc = loader(url)
            if isinstance(doc, dict) and "@context" in doc:
                return doc["@context"]
            if doc is not None:
                return doc
        return _KNOWN_REMOTE.get(url.rstrip("/")
                                 if url.rstrip("/") in _KNOWN_REMOTE
                                 else url, _KNOWN_REMOTE.get(url))

    def apply(self, ctx: Any) -> "_Context":
        out = self.copy()
        for part in ctx if isinstance(ctx, list) else [ctx]:
            if isinstance(part, str):
                # remote context URLs resolve against the document base
                # before dereferencing (JSON-LD 1.1 §5.2.2 step 5.2.1)
                url = part
                if out.base:
                    try:
                        url = resolve(out.base, part)
                    except ValueError:
                        pass
                loaded = self._load_remote(url)
                if loaded is None and url != part:
                    loaded = self._load_remote(part)
                part = loaded
                if part is None:
                    continue  # unknown remote context: NoLoader behavior
            if part is None:
                # nullification drops everything — but protected terms
                # survive only by erroring (JSON-LD 1.1 §4.1.11 invalid
                # context nullification)
                if any(t.get("_protected") for t in out.terms.values()):
                    raise ValueError(
                        "invalid context nullification: active context "
                        "holds protected terms")
                out = _Context(self.base, self.options)
                continue
            if not isinstance(part, dict):
                continue
            if part.get("@version") == 1.1 and self.options is not None \
                    and self.options.processing_mode == "json-ld-1.0":
                raise ValueError(
                    "processing mode conflict: context requires "
                    "JSON-LD 1.1 but options set json-ld-1.0")
            if "@propagate" in part:
                # §4.1.3: boolean only, 1.1-only
                if not isinstance(part["@propagate"], bool):
                    raise ValueError("invalid @propagate value")
                if self.options is not None and \
                        self.options.processing_mode == "json-ld-1.0":
                    raise ValueError("@propagate requires JSON-LD 1.1")
            if "@vocab" in part:
                out.vocab = part["@vocab"]
            if "@base" in part and isinstance(part["@base"], str):
                out.base = (resolve(out.base, part["@base"])
                            if out.base else part["@base"])
            # context-level @protected makes every term def in THIS
            # context protected unless the def opts out (§4.1.11)
            ctx_protected = part.get("@protected", False) is True
            for term, defn in part.items():
                if term.startswith("@"):
                    continue
                if isinstance(defn, str):
                    nd: Optional[dict] = {"@id": defn}
                elif isinstance(defn, dict) and "@reverse" in defn:
                    # reversed term definition (JSON-LD 1.1 §4.8;
                    # reference jsonld/src/parser.rs handles @reverse
                    # through its expansion library)
                    nd = {"@id": defn["@reverse"], "@reverse": True}
                elif isinstance(defn, dict):
                    # term defs without @id expand via @vocab + term;
                    # @type/@container/@language still apply
                    nd = dict(defn)
                elif defn is None:
                    nd = None
                else:
                    continue
                prot = (nd.pop("@protected", ctx_protected) is True) \
                    if nd is not None else False
                old = out.terms.get(term)
                if old is not None and old.get("_protected"):
                    # a protected term may only be redefined IDENTICALLY
                    # (protected term redefinition, §4.1.11)
                    old_core = {k: v for k, v in old.items()
                                if k != "_protected"}
                    if nd is None or nd != old_core:
                        raise ValueError(
                            f"protected term redefinition: {term!r}")
                if nd is None:
                    out.terms.pop(term, None)
                    continue
                # an identical redefinition is a no-op: protection stays
                if prot or (old is not None and old.get("_protected")):
                    nd["_protected"] = True
                out.terms[term] = nd
            if part.get("@propagate") is False:
                # nested node objects revert to the PRE-application
                # context; chains collapse to the oldest ancestor
                out.prev = self.descend() if self.prev is None else self.prev
        return out

    def expand_iri(self, value: str, vocab: bool = False) -> Optional[str]:
        """Expand a term/compact IRI/IRI-ref. vocab=True for predicates and
        types (uses term defs + @vocab); else document-relative."""
        if not isinstance(value, str) or value.startswith("@"):
            return None
        if value.startswith("_:"):
            return value        # blank node identifier (§5.1.2 step 3)
        if vocab and self.vcache is not None:
            hit = self.vcache.get(value, _MISS)
            if hit is not _MISS:
                return hit
            r = self._expand_iri_uncached(value, True)
            self.vcache[value] = r
            return r
        return self._expand_iri_uncached(value, vocab)

    def _expand_iri_uncached(self, value: str,
                             vocab: bool) -> Optional[str]:
        if vocab and value in self.terms:
            mapped = self.terms[value].get("@id")
            if mapped is None:  # def without @id: expand via @vocab
                return self.vocab + value if self.vocab else None
            if mapped == value:  # guard degenerate self-mapping
                return mapped
            return self.expand_iri(mapped, vocab=True) or mapped
        i = value.find(":")
        if i > 0:
            prefix, suffix = value[:i], value[i + 1:]
            if not suffix.startswith("//") and prefix in self.terms:
                return self.terms[prefix]["@id"] + suffix
            if is_absolute_iri(value):
                return value
        if vocab:
            if self.vocab:
                return self.vocab + value
            return None  # relative term without vocab: dropped
        if self.base:
            return resolve(self.base, value)
        return None


#: applied-context memo for the extract hot path: web pages repeat a
#: handful of static @context shapes millions of times, so the full
#: context-processing pass (term normalization, protection checks) runs
#: once per distinct shape per worker instead of once per document
_APPLY_CACHE: Dict[str, _Context] = {}
_APPLY_CACHE_MAX = 4096


def _cacheable_fragment(fragment: Any) -> bool:
    # remote-context URL strings resolve against the DOCUMENT base
    # before loading — never cacheable across documents
    if isinstance(fragment, dict):
        return True
    if isinstance(fragment, list):
        return all(isinstance(p, dict) for p in fragment)
    return False


def _apply_maybe_cached(ctx: _Context, fragment: Any) -> _Context:
    """``ctx.apply(fragment)`` with memoization for the hot shape: a
    FRESH context (top of a document, default options) applying a
    static dict fragment with no ``@base`` (base-dependent results are
    computed per document)."""
    if ctx.terms or ctx.vocab is not None or ctx.options is not None \
            or ctx.prev is not None or not _cacheable_fragment(fragment):
        return ctx.apply(fragment)
    # the key is the fragment's repr: C-level, and distinct for distinct
    # JSON values (key order only splits entries with equal contexts)
    key = repr(fragment)
    if "@base" in key:
        return ctx.apply(fragment)
    hit = _APPLY_CACHE.get(key)
    if hit is None:
        if len(_APPLY_CACHE) >= _APPLY_CACHE_MAX:
            _APPLY_CACHE.clear()
        hit = _Context(None, None).apply(fragment)
        hit.vcache = {}
        _APPLY_CACHE[key] = hit
    return hit.copy_for_base(ctx.base)


class JsonLdExpander:
    """One document → list of (s, p, o, graph) with deterministic bnodes."""

    def __init__(self, base: Optional[str] = None,
                 options: Optional[JsonLdOptions] = None):
        self.options = options
        self.base = base if base is not None else \
            (options.base if options else None)
        self.counter = 0
        self.triples: List[Tuple[Term, Term, Term, Optional[Term]]] = []

    def fresh_bnode(self) -> Term:
        t = bnode(f"b{self.counter}")
        self.counter += 1
        return t

    def to_rdf(self, doc: Any) -> List[Tuple[Term, Term, Term, Optional[Term]]]:
        ctx = _Context(self.base, self.options)
        if self.options is not None and \
                self.options.expand_context is not None:
            # with_expand_context: applied before the document's own
            ctx = ctx.apply(self.options.expand_context)
        self._node(doc, ctx, graph=None)
        return self.triples

    # ------------------------------------------------------------------

    def _node(self, obj: Any, ctx: _Context, graph: Optional[Term]) -> Optional[Term]:
        """Process a node object / array; return its subject term."""
        if isinstance(obj, list):
            for item in obj:
                self._node(item, ctx, graph)
            return None
        if not isinstance(obj, dict):
            return None
        if "@context" in obj:
            ctx = _apply_maybe_cached(ctx, obj["@context"])
        subject: Optional[Term] = None
        if "@id" in obj and isinstance(obj["@id"], str):
            sid = obj["@id"]
            if sid.startswith("_:"):
                subject = bnode(sid[2:])
            else:
                expanded = ctx.expand_iri(sid, vocab=False)
                if expanded is not None:
                    subject = iri(expanded)
        has_props = "@type" in obj
        if not has_props:
            for k in obj:
                if k[:1] != "@":
                    has_props = True
                    break
        if subject is None and (has_props or "@graph" in obj):
            subject = self.fresh_bnode() if has_props else None

        if "@graph" in obj:
            g = subject if subject is not None and subject[0] == KIND_IRI else None
            self._node(obj["@graph"], ctx.descend(),
                       g if g is not None else graph)

        if "@included" in obj:
            # §4.7 included blocks: node objects expanded as SIBLINGS in
            # the same graph, unrelated to this node (reference gets
            # this from the json_ld crate, jsonld/src/parser.rs:42)
            vals = obj["@included"]
            child = ctx.descend()
            for nv in vals if isinstance(vals, list) else [vals]:
                if isinstance(nv, dict):
                    self._node(nv, child, graph)

        if subject is None:
            return None

        types = obj.get("@type", [])
        for t in types if isinstance(types, list) else [types]:
            expanded = ctx.expand_iri(t, vocab=True) if isinstance(t, str) else None
            if expanded:
                self.triples.append((subject, iri(RDF + "type"), iri(expanded), graph))

        if "@reverse" in obj and isinstance(obj["@reverse"], dict):
            # node-level @reverse: values become SUBJECTS pointing at
            # this node (JSON-LD 1.1 §4.8 / expansion §13.13)
            for rkey, rval in obj["@reverse"].items():
                pred_iri = ctx.expand_iri(rkey, vocab=True)
                if pred_iri is None or not is_absolute_iri(pred_iri):
                    continue
                pred = iri(pred_iri)
                for v in rval if isinstance(rval, list) else [rval]:
                    o = self._reverse_value(v, ctx, graph)
                    if o is not None:
                        self.triples.append((o, pred, subject, graph))

        self._emit_props(subject, obj, ctx, graph)
        return subject

    def _emit_props(self, subject: Term, obj: dict, ctx: "_Context",
                    graph: Optional[Term]) -> None:
        """Emit the non-keyword properties of a node object; recurses
        through ``@nest`` containers (JSON-LD 1.1 §4.6.6: nested
        properties are semantically transparent — they belong to the
        enclosing node)."""
        triples = self.triples
        vcache = ctx.vcache
        terms = ctx.terms
        for key, value in obj.items():
            if key[:1] == "@":
                # direct keywords: @nest is the only one emitted here
                # (@id/@type/@graph/… are node-level); non-keyword
                # @-keys are ignored per expansion §13 — either way no
                # term expansion is needed
                if key == "@nest":
                    for nv in value if isinstance(value, list) else [value]:
                        if isinstance(nv, dict) and "@value" not in nv:
                            self._emit_props(subject, nv, ctx, graph)
                continue
            # inline expand_iri's vcache hit (keys here never start
            # with '@'; a '_:' key is never cached)
            pred_iri = vcache.get(key, _MISS) if vcache is not None \
                else _MISS
            if pred_iri is _MISS:
                pred_iri = ctx.expand_iri(key, vocab=True)
            if pred_iri == "@nest":
                for nv in value if isinstance(value, list) else [value]:
                    if isinstance(nv, dict) and "@value" not in nv:
                        self._emit_props(subject, nv, ctx, graph)
                continue
            if pred_iri == "@included":
                # keyword ALIAS for @included (the direct key is handled
                # at node level in _node)
                child = ctx.descend()
                for nv in value if isinstance(value, list) else [value]:
                    if isinstance(nv, dict):
                        self._node(nv, child, graph)
                continue
            if pred_iri is None or not is_absolute_iri(pred_iri):
                continue
            pred = iri(pred_iri)
            tdef = terms.get(key, _NO_DEF)
            if tdef is _NO_DEF:
                # no term definition: strings are plain xsd:string
                # literals, everything else takes the general path
                for v in value if isinstance(value, list) else (value,):
                    o = literal(v) if type(v) is str \
                        else self._value(v, ctx, graph, tdef)
                    if o is not None:
                        triples.append((subject, pred, o, graph))
                continue
            if tdef.get("@reverse"):
                # reversed term: emit (value, pred, subject)
                for v in value if isinstance(value, list) else [value]:
                    o = self._reverse_value(v, ctx, graph)
                    if o is not None:
                        self.triples.append((o, pred, subject, graph))
                continue
            if tdef.get("@container") == "@list" and not (
                    isinstance(value, dict) and "@list" in value):
                # list container: the (array) value IS one rdf list
                items = value if isinstance(value, list) else [value]
                o = self._make_list(items, ctx, graph, tdef)
                self.triples.append((subject, pred, o, graph))
                continue
            for v in value if isinstance(value, list) else [value]:
                o = self._value(v, ctx, graph, tdef)
                if o is not None:
                    self.triples.append((subject, pred, o, graph))

    def _reverse_value(self, v: Any, ctx: _Context,
                       graph: Optional[Term]) -> Optional[Term]:
        """A value in reverse position must be a node (IRI/bnode);
        literals are invalid reverse values and are dropped."""
        if isinstance(v, dict):
            if "@value" in v or "@list" in v:
                return None
            return self._node(v, ctx.descend(), graph)
        if isinstance(v, str):
            if v.startswith("_:"):
                return bnode(v[2:])
            expanded = ctx.expand_iri(v, vocab=False)
            return iri(expanded) if expanded else None
        return None

    def _value(self, v: Any, ctx: _Context, graph: Optional[Term],
               tdef: dict) -> Optional[Term]:
        if tdef.get("@type") == "@json":
            # JSON literal (JSON-LD 1.1 §4.2.2): ANY JSON value, kept
            # verbatim as canonical JSON with datatype rdf:JSON
            return literal(_canonical_json(v), RDF + "JSON")
        if isinstance(v, dict):
            if "@list" in v:
                items = v["@list"]
                items = items if isinstance(items, list) else [items]
                return self._make_list(items, ctx, graph, tdef)
            if "@value" in v:
                return self._value_object(v, ctx, graph)
            return self._node(v, ctx.descend(), graph)
        if isinstance(v, bool):
            return literal("true" if v else "false", XSD_BOOLEAN)
        if isinstance(v, int):
            return literal(str(v), XSD_INTEGER)
        if isinstance(v, float):
            # JSON numbers with a fraction/exponent part → xsd:double
            # (syntactic integers parse to Python int → xsd:integer above)
            return literal(canonical_double(v), XSD_DOUBLE)
        if isinstance(v, str):
            t = tdef.get("@type")
            if t == "@id":
                if v.startswith("_:"):      # coerced bnode identifier
                    return bnode(v[2:])
                expanded = ctx.expand_iri(v, vocab=False)
                return iri(expanded) if expanded else None
            if isinstance(t, str) and not t.startswith("@"):
                dt = ctx.expand_iri(t, vocab=True)
                if dt:
                    return literal(v, dt)
            lang = tdef.get("@language")
            if lang:
                return langlit(v, lang)
            return literal(v, XSD_STRING)
        return None

    def _value_object(self, v: dict, ctx: _Context,
                      graph: Optional[Term] = None) -> Optional[Term]:
        val = v["@value"]
        if v.get("@type") == "@json":
            return literal(_canonical_json(val), RDF + "JSON")
        if "@type" in v and isinstance(v["@type"], str):
            dt = ctx.expand_iri(v["@type"], vocab=True)
            if dt is None:
                return None
            if isinstance(val, bool):
                val = "true" if val else "false"
            return literal(str(val), dt)
        if isinstance(val, bool):
            return literal("true" if val else "false", XSD_BOOLEAN)
        if isinstance(val, int):
            return literal(str(val), XSD_INTEGER)
        if isinstance(val, float):
            return literal(canonical_double(val), XSD_DOUBLE)
        if not isinstance(val, str):
            return None
        lang = v.get("@language")
        if lang:
            d = v.get("@direction")
            rd = self.options.rdf_direction if self.options else None
            if d in ("ltr", "rtl") and rd == "i18n-datatype":
                # toRdf rdfDirection=i18n-datatype (options.rs:117-124)
                return literal(
                    val, f"https://www.w3.org/ns/i18n#{lang.lower()}_{d}")
            if d in ("ltr", "rtl") and rd == "compound-literal":
                b = self.fresh_bnode()
                self.triples.append(
                    (b, iri(RDF + "value"), literal(val, XSD_STRING), graph))
                self.triples.append(
                    (b, iri(RDF + "language"),
                     literal(lang.lower(), XSD_STRING), graph))
                self.triples.append(
                    (b, iri(RDF + "direction"),
                     literal(d, XSD_STRING), graph))
                return b
            # default: native RDF 1.2 initial-text-direction literal
            # (sophia's term model carries direction natively)
            direction = DIR_LTR if d == "ltr" else DIR_RTL if d == "rtl" else 0
            return langlit(val, lang, direction)
        return literal(val, XSD_STRING)

    def _make_list(self, items: list, ctx: _Context, graph: Optional[Term],
                   tdef: dict) -> Term:
        if not items:
            return iri(RDF_NIL)
        nodes = [self.fresh_bnode() for _ in items]
        for i, (n, item) in enumerate(zip(nodes, items)):
            o = self._value(item, ctx, graph, tdef)
            if o is not None:
                self.triples.append((n, iri(RDF_FIRST), o, graph))
            rest: Term = nodes[i + 1] if i + 1 < len(nodes) else iri(RDF_NIL)
            self.triples.append((n, iri(RDF_REST), rest, graph))
        return nodes[0]


def jsonld_to_triples(
    text: str, base: Optional[str] = None,
    options: Optional[JsonLdOptions] = None,
) -> Tuple[List[Tuple[Term, Term, Term, Optional[Term]]], Optional[str]]:
    """Parse + expand one JSON-LD document → (triples, error). Parse errors
    are returned, not raised (per-row error semantics)."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        return [], f"json: {e}"
    try:
        return JsonLdExpander(base, options).to_rdf(doc), None
    except (RecursionError, ValueError, TypeError, KeyError) as e:
        return [], f"jsonld: {e}"


# ---------------------------------------------------------------------------
# serializer (reference jsonld/src/serializer.rs:26 — quads → JSON-LD;
# we emit the FLATTENED-EXPANDED form: one node object per subject,
# "@type" for rdf:type IRIs, value objects for literals)
# ---------------------------------------------------------------------------

_RDF_TYPE_IRI = RDF + "type"
_XSD_STRING_IRI = "http://www.w3.org/2001/XMLSchema#string"


_XSD_INTEGER_IRI = "http://www.w3.org/2001/XMLSchema#integer"
_XSD_BOOLEAN_IRI = "http://www.w3.org/2001/XMLSchema#boolean"
_XSD_DOUBLE_IRI = "http://www.w3.org/2001/XMLSchema#double"


def _term_to_jsonld(t: Term, use_native_types: bool = False):

    if t[0] == KIND_IRI:
        return {"@id": t[1]}
    if t[0] == KIND_BNODE:
        return {"@id": "_:" + t[1]}
    if t[0] == KIND_LITERAL:
        kind, lex, dt, lang, _dir = t
        if lang:
            return {"@value": lex, "@language": lang}
        if use_native_types:
            # fromRdf useNativeTypes (reference options.rs:126-133):
            # convert when the native JSON value round-trips the lexical
            # form; otherwise keep the typed string form
            if dt == _XSD_INTEGER_IRI:
                try:
                    return {"@value": int(lex)}
                except ValueError:
                    pass
            elif dt == _XSD_BOOLEAN_IRI and lex in ("true", "false"):
                return {"@value": lex == "true"}
            elif dt == _XSD_DOUBLE_IRI:
                try:
                    f = float(lex)
                    if canonical_double(f) == lex:
                        return {"@value": f}
                except (ValueError, OverflowError):
                    pass
        if dt and dt != _XSD_STRING_IRI:
            return {"@value": lex, "@type": dt}
        return {"@value": lex}
    raise ValueError(f"JSON-LD cannot serialize term kind {t[0]}")


_RDF_FIRST_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#first"
_RDF_REST_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest"
_RDF_NIL_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil"


def _build_nodes(triples, fold_lists: bool = False,
                 use_native_types: bool = False,
                 use_rdf_type: bool = False):
    """Triples → (subject order, {id: expanded node}); with
    ``fold_lists``, single-reference rdf:first/rest chains collapse
    into ``{"@list": […]}`` values and their nodes are dropped.
    ``use_rdf_type`` keeps rdf:type as a plain property instead of
    ``@type`` (fromRdf useRdfType, reference options.rs:135-142)."""
    nodes: dict = {}
    order: list = []
    obj_refs: dict = {}
    for s, p, o in triples:
        sid = ("_:" + s[1]) if s[0] == KIND_BNODE else s[1]
        if sid not in nodes:
            nodes[sid] = {"@id": sid}
            order.append(sid)
        node = nodes[sid]
        if p[1] == _RDF_TYPE_IRI and o[0] == KIND_IRI and not use_rdf_type:
            node.setdefault("@type", []).append(o[1])
        else:
            node.setdefault(p[1], []).append(
                _term_to_jsonld(o, use_native_types))
        if o[0] == KIND_BNODE:
            oid = "_:" + o[1]
            obj_refs[oid] = obj_refs.get(oid, 0) + 1
    if not fold_lists:
        return order, nodes

    def chain(head: str):
        elems, consumed = [], []
        cur = head
        while True:
            n = nodes.get(cur)
            if n is None or set(n) != {"@id", _RDF_FIRST_IRI,
                                       _RDF_REST_IRI}:
                return None
            if len(n[_RDF_FIRST_IRI]) != 1 or len(n[_RDF_REST_IRI]) != 1:
                return None
            consumed.append(cur)
            elems.append(n[_RDF_FIRST_IRI][0])
            nxt = n[_RDF_REST_IRI][0]
            nid = nxt.get("@id") if isinstance(nxt, dict) else None
            if nid == _RDF_NIL_IRI:
                return elems, consumed
            if nid is None or not nid.startswith("_:") \
                    or obj_refs.get(nid, 0) != 1 or nid in consumed:
                return None
            cur = nid

    consumed_all: set = set()
    for sid in order:
        node = nodes[sid]
        for key, vals in list(node.items()):
            if key == "@id":
                continue
            for i, v in enumerate(vals if key != "@type" else []):
                vid = v.get("@id") if isinstance(v, dict) else None
                if vid is None or not vid.startswith("_:") \
                        or obj_refs.get(vid, 0) != 1 \
                        or vid in consumed_all or vid == sid:
                    continue
                got = chain(vid)
                if got is None:
                    continue
                elems, consumed = got
                # elements may themselves be folded heads; resolve after
                vals[i] = {"@list": elems}
                consumed_all.update(consumed)
    if consumed_all:
        order = [sid for sid in order if sid not in consumed_all]
        for sid in consumed_all:
            nodes.pop(sid, None)
    return order, nodes


def serialize_jsonld(triples, context: Optional[dict] = None,
                     compact_arrays: bool = True,
                     use_native_types: bool = False,
                     use_rdf_type: bool = False) -> str:
    """Triples (Term tuples) → JSON-LD text.

    Default: flattened expanded form (deterministic: nodes in
    first-seen subject order, values in input order, keys sorted per
    node).  With ``context``, the document is COMPACTED against it
    (JSON-LD 1.1 Compaction; reference
    ``jsonld/src/serializer/engine.rs`` options surface): term and
    CURIE substitution for IRIs, @vocab-relative keys, typed-value /
    language compaction per term definition, @container @list/@set
    handling (rdf:first/rest chains fold into ``@list``), and
    single-element arrays collapse unless ``compact_arrays=False``."""
    if context is None:
        order, nodes = _build_nodes(triples,
                                    use_native_types=use_native_types,
                                    use_rdf_type=use_rdf_type)
        out = [dict(sorted(nodes[sid].items())) for sid in order]
        return json.dumps(out, ensure_ascii=False, sort_keys=False)

    order, nodes = _build_nodes(triples, fold_lists=True,
                                use_native_types=use_native_types,
                                use_rdf_type=use_rdf_type)
    comp = _Compactor(context, compact_arrays)
    out = [comp.node(dict(sorted(nodes[sid].items()))) for sid in order]
    doc: dict = {"@context": context}
    if len(out) == 1:
        doc.update(out[0])
    else:
        doc["@graph"] = out
    return json.dumps(doc, ensure_ascii=False, sort_keys=False)


class _Compactor:
    """Scoped JSON-LD 1.1 compaction against a caller-supplied
    context: exact-term, CURIE, and @vocab IRI compaction + value
    compaction driven by the term definitions."""

    def __init__(self, context: dict, compact_arrays: bool = True):
        self.compact_arrays = compact_arrays
        # FIRST pass: @vocab and prefix-shaped string terms, so a term
        # definition without @id gets vocab-expanded regardless of
        # where '@vocab' sits in insertion order (r3 ADVICE), and @id
        # CURIEs can expand against prefixes defined later
        self.vocab = context.get("@vocab")
        prefix_map: dict = {}
        for term, d in context.items():
            if not term.startswith("@") and isinstance(d, str) \
                    and d[-1:] in ("/", "#", ":"):
                prefix_map.setdefault(term, d)

        def expand(iri):
            if iri is None or iri.startswith("@"):
                return iri
            head, sep, rest = iri.partition(":")
            if sep and head in prefix_map and not rest.startswith("//"):
                return prefix_map[head] + rest
            return iri

        self.defs: dict = {}          # term -> normalized definition
        self.by_iri: dict = {}        # iri -> term (first wins)
        self.prefixes: list = []      # (iri-prefix, term), longest first
        for term, d in context.items():
            if term.startswith("@"):
                continue
            dd = {"@id": d} if isinstance(d, str) else dict(d)
            iri = expand(dd.get("@id"))
            if iri is None and self.vocab:
                iri = self.vocab + term
            if iri is not None:
                dd["@id"] = iri
            self.defs[term] = dd
            if iri and iri not in self.by_iri:
                self.by_iri[iri] = term
            if isinstance(d, str) and d[-1:] in ("/", "#", ":"):
                self.prefixes.append((d, term))
        self.prefixes.sort(key=lambda pr: -len(pr[0]))

    def iri(self, iri: str, vocab: bool = True) -> str:
        if vocab and iri in self.by_iri:
            return self.by_iri[iri]
        if vocab and self.vocab and iri.startswith(self.vocab) \
                and len(iri) > len(self.vocab):
            suffix = iri[len(self.vocab):]
            if suffix not in self.defs:
                return suffix
        for prefix, term in self.prefixes:
            if iri.startswith(prefix) and len(iri) > len(prefix):
                return f"{term}:{iri[len(prefix):]}"
        return iri

    def value(self, term_def: dict, v):
        if isinstance(v, dict) and "@list" in v:
            inner = [self.value(term_def, x) for x in v["@list"]]
            if term_def.get("@container") == "@list":
                return inner            # container absorbs the keyword
            return {"@list": inner}
        if isinstance(v, dict) and set(v) == {"@id"}:
            cid = self.iri(v["@id"], vocab=False)
            if term_def.get("@type") == "@id":
                return cid
            return {"@id": cid}
        if isinstance(v, dict) and "@value" in v:
            dt = v.get("@type")
            lang = v.get("@language")
            if dt and term_def.get("@type") == dt:
                return v["@value"]
            if lang and term_def.get("@language") == lang:
                return v["@value"]
            if not dt and not lang:
                # a bare string under a typed/language-coercing term
                # would EXPAND back as coerced — keep it wrapped
                if term_def.get("@type") or term_def.get("@language"):
                    return {"@value": v["@value"]}
                return v["@value"]
            out = {"@value": v["@value"]}
            if dt:
                out["@type"] = self.iri(dt)
            if lang:
                out["@language"] = lang
            return out
        return v

    def node(self, node: dict) -> dict:
        out: dict = {}
        nid = node.get("@id")
        if nid is not None and not nid.startswith("_:"):
            out["@id"] = self.iri(nid, vocab=False)
        elif nid is not None:
            out["@id"] = nid
        for key, vals in node.items():
            if key == "@id":
                continue
            if key == "@type":
                tv = [self.iri(t) for t in vals]
                out["@type"] = tv[0] if len(tv) == 1 \
                    and self.compact_arrays else tv
                continue
            term = self.iri(key)
            if term in out:
                # two distinct predicates compacting to the same key
                # must not silently merge — keep the full IRI for the
                # later one (r3 ADVICE)
                term = key
            term_def = self.defs.get(term, {})
            cv = [self.value(term_def, v) for v in vals]
            keep_array = term_def.get("@container") in ("@set",) \
                or not self.compact_arrays
            if term_def.get("@container") == "@list" and len(cv) == 1 \
                    and isinstance(cv[0], list):
                out[term] = cv[0]
            else:
                out[term] = cv[0] if len(cv) == 1 and not keep_array \
                    else cv
        return out


def format_jsonld_batch(batch):
    """NT-text (s, p, o) batch → one JSON-LD document per batch."""

    trs = [(parse_term_text(s), parse_term_text(p), parse_term_text(o))
           for s, p, o in zip(batch["s"], batch["p"], batch["o"])]
    return {"jsonld": [serialize_jsonld(trs)]}
