"""Deterministic single-pass HTML page extractor.

North-rule stage (not in the reference — SURVEY.md §2.1 "north-rule-only
sources"): pulls four things out of a Common-Crawl-style page in ONE pass
over its parser events (the fast tokenizer at the end of this module,
or the stdlib ``html.parser.HTMLParser`` it falls back to):

1. embedded JSON-LD blocks (``<script type="application/ld+json">``),
2. microdata items (itemscope/itemtype/itemprop/itemid),
3. RDFa-Lite statements (vocab/typeof/property/resource/about/content),
4. **visible text** under the byte-identical-per-url invariant
   (BASELINE.json ``input_hint``).

Visible-text spec (the oracle contract — the synthetic page generator
computes the expected text from the same rules without running this
parser):

- content of ``script``/``style``/``template``/``noscript`` and comments
  is invisible;
- every text node is whitespace-normalized (runs of ``\\s+`` → one
  space);
- a *block* boundary is opened/closed by: p, div, li, ul, ol, h1-h6, br,
  tr, table, title, section, article, header, footer, blockquote, pre,
  main, nav, aside, figcaption, span? (NO — span/a/em/strong/b/i are
  inline);
- the page text = ``"\\n".join`` of the non-empty trimmed block texts.

The extractor is pure per-document state → a stateless ``map_batches``
task in the pipeline.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser
from typing import Dict, List, Optional, Tuple

_WS_RUN = re.compile(r"\s+")

BLOCK_TAGS = frozenset(
    "p div li ul ol h1 h2 h3 h4 h5 h6 br tr table title section article "
    "header footer blockquote pre main nav aside figcaption td th thead "
    "tbody form".split()
)
SKIP_TAGS = frozenset("script style template noscript".split())
VOID_TAGS = frozenset("br img meta link input hr area base col embed source track wbr".split())


class _MicroItem:
    __slots__ = ("types", "itemid", "props")

    def __init__(self, types: List[str], itemid: Optional[str]):
        self.types = types
        self.itemid = itemid
        self.props: List[Tuple[str, object]] = []  # (name, str | _MicroItem)


class _RdfaNode:
    __slots__ = ("types", "about", "vocab", "props")

    def __init__(self, types: List[str], about: Optional[str], vocab: Optional[str]):
        self.types = types
        self.about = about
        self.vocab = vocab
        self.props: List[Tuple[str, str, object]] = []  # (prop, kind, value)
        # kind ∈ {"literal", "iri", "node"}


class PageExtractor(HTMLParser):
    """One-pass extractor; feed() then read .jsonld_blocks, .micro_items,
    .rdfa_roots, .visible_text()."""

    def __init__(self, collect_text: bool = True) -> None:
        super().__init__(convert_charrefs=True)
        #: the flagship triples path never reads visible_text(); with
        #: collect_text=False text nodes skip block assembly entirely
        #: (prop/ld buffers still fill — they feed structured output)
        self._collect_text = collect_text
        self.jsonld_blocks: List[str] = []
        self.micro_items: List[_MicroItem] = []
        self.rdfa_roots: List[_RdfaNode] = []
        self._blocks: List[str] = []
        self._cur: List[str] = []
        self._skip_depth = 0
        self._in_ldjson = False
        self._ld_buf: List[str] = []
        # stacks
        self._tags: List[str] = []
        self._micro_stack: List[Tuple[int, _MicroItem]] = []
        self._prop_stack: List[Tuple[int, List[str], List[str]]] = []  # (depth, names, buf)
        self._rdfa_stack: List[Tuple[int, _RdfaNode]] = []
        self._rdfa_prop_stack: List[Tuple[int, _RdfaNode, str, List[str]]] = []
        self._vocab_stack: List[Tuple[int, str]] = []
        #: depths of the open elements that carried microdata/RDFa
        #: trigger attributes, innermost last (see ``_pop_tag``)
        self._marks: List[int] = []

    # -- visible text ---------------------------------------------------

    def _flush_block(self) -> None:
        if not self._cur:
            return
        text = _WS_RUN.sub(" ", "".join(self._cur)).strip()
        if text:
            self._blocks.append(text)
        self._cur = []

    def visible_text(self) -> str:
        return "\n".join(self._blocks)

    # -- parser events --------------------------------------------------

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in VOID_TAGS:
            self.handle_startendtag(tag, attrs)
            return
        a = attrs if type(attrs) is dict else _attr_dict(attrs)
        self._tags.append(tag)
        if tag in SKIP_TAGS:
            self._skip_depth += 1
            if tag == "script" and (a.get("type") or "").strip().lower() == "application/ld+json":
                self._in_ldjson = True
                self._ld_buf = []
            return
        if tag in BLOCK_TAGS and self._collect_text:
            self._flush_block()
        if a:  # attr-less tags cannot open microdata/RDFa structure
            self._open_structs(tag, a)

    def _open_structs(self, tag: str, a: Dict[str, str]) -> None:
        """Open the microdata/RDFa structure of the element just pushed
        (the trigger-attr checks are inlined: _start_* are no-ops
        without them, and most attred tags carry neither family)."""
        micro = "itemscope" in a or "itemprop" in a
        rdfa = "vocab" in a or "typeof" in a or "property" in a
        if micro or rdfa:
            depth = len(self._tags)
            self._marks.append(depth)
            if micro:
                self._start_microdata(depth, tag, a)
            if rdfa:
                self._start_rdfa(depth, tag, a)

    def handle_startendtag(self, tag: str, attrs) -> None:
        a = attrs if type(attrs) is dict else _attr_dict(attrs)
        if tag == "br":
            self._flush_block()
            return
        # void elements can carry itemprop/property via content/href/src
        if "itemprop" in a and self._micro_stack and "itemscope" not in a:
            v = self._micro_value_from_attrs(tag, a)
            if v is not None:
                item = self._micro_stack[-1][1]
                for name in a["itemprop"].split():
                    item.props.append((name, v))
        if "property" in a and self._rdfa_stack:
            node = self._rdfa_stack[-1][1]
            if "content" in a:
                for p in a["property"].split():
                    node.props.append((p, "literal", a["content"]))
            elif "href" in a or "src" in a:
                v = a.get("href", a.get("src", ""))
                for p in a["property"].split():
                    node.props.append((p, "iri", v))

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_TAGS:
            return
        tags = self._tags
        # fast path: well-formed close of the innermost element — skip
        # the O(depth) membership scan of the recovery path below
        if tags and tags[-1] == tag:
            self._pop_tag()
            return
        # pop back to the matching open tag (tolerate unbalanced HTML)
        if tag not in tags:
            return
        while tags:
            if self._pop_tag() == tag:
                break

    def _pop_tag(self) -> str:
        """Close the innermost open element; return its tag."""
        depth = len(self._tags)
        tag = self._tags.pop()
        if tag in SKIP_TAGS:
            self._skip_depth = max(0, self._skip_depth - 1)
            if tag == "script" and self._in_ldjson:
                self.jsonld_blocks.append("".join(self._ld_buf))
                self._in_ldjson = False
            return tag
        if self._collect_text and tag in BLOCK_TAGS:
            self._flush_block()
        # only an element that carried microdata/RDFa attributes can
        # have pushed structure at its depth
        marks = self._marks
        if marks and marks[-1] == depth:
            marks.pop()
            self._end_structs(depth)
        return tag

    def handle_data(self, data: str) -> None:
        if self._in_ldjson:
            self._ld_buf.append(data)
            return
        if self._skip_depth:
            return
        if self._collect_text:
            self._cur.append(data)
        if self._prop_stack:
            for _, _, buf in self._prop_stack:
                buf.append(data)
        if self._rdfa_prop_stack:
            for _, _, _, buf in self._rdfa_prop_stack:
                buf.append(data)

    def close(self) -> None:
        super().close()
        self.finish()

    def finish(self) -> None:
        """End of document: close every open element (flushing any
        unclosed structure) and the last text block."""
        while self._tags:
            self._pop_tag()
        self._flush_block()

    # -- microdata ------------------------------------------------------

    @staticmethod
    def _micro_value_from_attrs(tag: str, a: Dict[str, str]) -> Optional[str]:
        if "content" in a:
            return a["content"]
        if tag in ("a", "area", "link") and "href" in a:
            return ("@iri", a["href"])  # type: ignore[return-value]
        if tag in ("img", "audio", "video", "embed", "iframe", "source") and "src" in a:
            return ("@iri", a["src"])  # type: ignore[return-value]
        if tag == "time" and "datetime" in a:
            return a["datetime"]
        if tag == "meta":
            return a.get("content", "")
        return None

    def _start_microdata(self, depth: int, tag: str, a: Dict[str, str]) -> None:
        if "itemscope" in a:
            types = (a.get("itemtype") or "").split()
            item = _MicroItem(types, a.get("itemid"))
            if "itemprop" in a and self._micro_stack:
                parent = self._micro_stack[-1][1]
                for name in a["itemprop"].split():
                    parent.props.append((name, item))
            else:
                self.micro_items.append(item)
            self._micro_stack.append((depth, item))
        elif "itemprop" in a and self._micro_stack:
            v = self._micro_value_from_attrs(tag, a)
            names = a["itemprop"].split()
            if v is not None:
                item = self._micro_stack[-1][1]
                for name in names:
                    item.props.append((name, v))
            else:
                self._prop_stack.append((depth, names, []))

    # -- RDFa Lite ------------------------------------------------------

    def _cur_vocab(self) -> Optional[str]:
        return self._vocab_stack[-1][1] if self._vocab_stack else None

    def _start_rdfa(self, depth: int, tag: str, a: Dict[str, str]) -> None:
        if "vocab" in a:
            self._vocab_stack.append((depth, a["vocab"]))
        if "typeof" in a:
            about = a.get("about", a.get("resource"))
            node = _RdfaNode((a.get("typeof") or "").split(), about, self._cur_vocab())
            if "property" in a and self._rdfa_stack:
                parent = self._rdfa_stack[-1][1]
                for p in a["property"].split():
                    parent.props.append((p, "node", node))
            else:
                self.rdfa_roots.append(node)
            self._rdfa_stack.append((depth, node))
        elif "property" in a and self._rdfa_stack:
            node = self._rdfa_stack[-1][1]
            if "content" in a:
                for p in a["property"].split():
                    node.props.append((p, "literal", a["content"]))
            elif "resource" in a:
                for p in a["property"].split():
                    node.props.append((p, "iri", a["resource"]))
            elif "href" in a:
                for p in a["property"].split():
                    node.props.append((p, "iri", a["href"]))
            else:
                for p in a["property"].split():
                    self._rdfa_prop_stack.append((depth, node, p, []))

    # -- structure close (both families) -------------------------------

    def _end_structs(self, depth: int) -> None:
        """Close the microdata/RDFa structure opened at ``depth``."""
        if self._micro_stack and self._micro_stack[-1][0] == depth:
            self._micro_stack.pop()
        if self._prop_stack and self._prop_stack[-1][0] == depth:
            _, names, buf = self._prop_stack.pop()
            value = _WS_RUN.sub(" ", "".join(buf)).strip()
            if self._micro_stack:
                item = self._micro_stack[-1][1]
                for name in names:
                    item.props.append((name, value))
        while self._rdfa_prop_stack and self._rdfa_prop_stack[-1][0] == depth:
            _, node, p, buf = self._rdfa_prop_stack.pop()
            node.props.append((p, "literal", _WS_RUN.sub(" ", "".join(buf)).strip()))
        if self._rdfa_stack and self._rdfa_stack[-1][0] == depth:
            self._rdfa_stack.pop()
        if self._vocab_stack and self._vocab_stack[-1][0] == depth:
            self._vocab_stack.pop()


# ---------------------------------------------------------------------------
# fast tokenizer front end
# ---------------------------------------------------------------------------
# PageExtractor consumes SAX events, so the stdlib parser is replaceable.
# ``_fast_feed`` emits the events ``HTMLParser.feed`` + ``close`` emit
# (convert_charrefs=True; the Python 3.11 tokenizer rules, quoted below
# as "stdlib") without their per-token Python dispatch and line
# counting.  Start tags are taken in a strict grammar whose stdlib parse
# is known: space-separated attributes, values quoted or bare, optional
# ``/`` right before ``>``.  Any other ``<letter`` (an attribute glued
# to a quote, ``a==b``, an unterminated tag) and every ``<![`` section
# raise ``_Fallback``, and ``extract_page`` parses that document again
# with the stdlib parser.  End tags, comments, declarations,
# processing instructions, script/style bodies and unterminated
# constructs follow the stdlib rules exactly.  The output equals the
# stdlib front end's on every document (differential and seeded fuzz
# tests in tests/test_extract_fast.py); on the synthetic corpus no
# document falls back.


class _Fallback(Exception):
    """Markup outside the fast grammar: parse the page with the stdlib."""


#: html.parser's CDATA_CONTENT_ELEMENTS — stdlib does NOT raw-text
#: textarea/title, so neither do we
_RAWTEXT_TAGS = frozenset(("script", "style"))
_ASCII_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz"
                           "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
#: one match per tag: an end tag (stdlib ``endtagfind``) or a start tag
#: in the strict grammar (stdlib tag name, then whitespace-separated
#: attributes with a quoted or bare value, optional '/' before '>')
_TAG_RE = re.compile(
    r"<(?:/\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>"          # end tag
    r"|([a-zA-Z][^\t\n\r\f />\x00]*+)"                # start tag name
    r"((?:\s++[^\s/>\"'=]++"                           # attribute name
    r"(?:\s*+=\s*+(?:\"[^\"]*+\"|'[^']*+'"             # quoted value
    r"|[^\s\"'=>][^\s\"'>]*+)?+)?+)*+)"                # bare value
    r"\s*+(/?)>)")
_ATTR_RE = re.compile(
    r"([^\s/>\"'=]+)(?:\s*(=)\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s\"'>]*)))?")
#: stdlib ``tagfind_tolerant`` / ``commentclose``
_TAG_NAME = re.compile(r"[a-zA-Z][^\t\n\r\f />\x00]*")
_COMMENT_END = re.compile(r"--\s*>")
#: stdlib ``set_cdata_mode``: a raw-text body ends only at this tag
_RAW_END = {t: re.compile(rf"</\s*{t}\s*>", re.I) for t in _RAWTEXT_TAGS}


def _attr_dict(attrs) -> dict:
    """The stdlib's (name, value) attr list as a dict, the last
    occurrence winning.  A valueless attribute reads as '' (the stdlib
    reports None), as the HTML spec and the fast front end read it."""
    return {k: "" if v is None else v for k, v in attrs}


def _parse_attrs(soup: str) -> dict:
    """Attrs of a strict-grammar soup as a dict, as :func:`_attr_dict`
    reads the stdlib list (last occurrence wins, valueless → '')."""
    a = {name.lower(): dq or sq or bare
         for name, _eq, dq, sq, bare in _ATTR_RE.findall(soup)}
    if "&" in soup:
        for k, v in a.items():
            if v and "&" in v:
                a[k] = unescape(v)
    return a


#: extraction only consults these attribute names (script's ``type``,
#: microdata item*, RDFa Lite, and the literal-bearing value attrs) —
#: an attr soup with no marker substring cannot change the output, so
#: the tokenizer skips parsing it (values that merely contain a marker
#: are parsed for nothing, which is safe)
_RELEVANT_ATTRS = re.compile(
    r"item|prop|typ|vocab|about|resour|content|href|src|datetime", re.I)
_NO_ATTRS: dict = {}
_ATTR_CACHE: Dict[str, dict] = {}


def _attrs_of(soup: str) -> dict:
    """Parsed attrs as a dict; ``_NO_ATTRS`` when no relevant name.

    IMMUTABILITY CONTRACT: the returned dict is a shared, cached object
    (``_ATTR_CACHE`` entry or the module-global ``_NO_ATTRS``) handed to
    every later document in the worker that repeats the same attr soup
    (``itemprop="name"`` recurs on every page of a site).  Handlers
    must treat it as read-only; one that needs to mutate must
    ``dict(a)`` first."""
    v = _ATTR_CACHE.get(soup)
    if v is None:
        v = _parse_attrs(soup) if _RELEVANT_ATTRS.search(soup) \
            else _NO_ATTRS
        if len(_ATTR_CACHE) < 65536:
            _ATTR_CACHE[soup] = v
    return v


#: tag-name lowercase memo: tag spellings repeat endlessly across a
#: worker's documents, so the (scan + alloc) of str.lower runs once per
#: distinct spelling (read-only values; same lifecycle as _ATTR_CACHE)
_TAG_LOWER: Dict[str, str] = {}

#: start tags without relevant attrs that still need handle_starttag:
#: skip-content elements (script/style/...) and, when the caller
#: collects text, block tags (text-block flush; ``br`` is one)
_SPECIAL_START_TEXT = frozenset(SKIP_TAGS | BLOCK_TAGS)
_SPECIAL_START_NOTEXT = frozenset(SKIP_TAGS)


def _lower(raw: str) -> str:
    tag = _TAG_LOWER.get(raw)
    if tag is None:
        if len(_TAG_LOWER) >= 4096:
            _TAG_LOWER.clear()
        _TAG_LOWER[raw] = tag = raw.lower()
    return tag


def _fast_feed(h: PageExtractor, text: str) -> None:
    """Emit handle_starttag/startendtag/endtag/data events like
    ``HTMLParser(convert_charrefs=True)`` ``feed`` + ``close`` (charrefs
    decoded in text and attribute values, not inside raw-text
    elements); raise ``_Fallback`` outside the fast grammar."""
    pos, n = 0, len(text)
    find = text.find
    handle_data = h.handle_data
    handle_starttag = h.handle_starttag
    handle_endtag = h.handle_endtag
    pop_tag = h._pop_tag
    open_structs = h._open_structs
    tag_match = _TAG_RE.match
    tag_lower = _TAG_LOWER
    tags = h._tags
    tags_append = tags.append
    marks = h._marks
    letters = _ASCII_LETTERS
    # outside this set a start tag reduces to ``self._tags.append(tag)``
    # + ``_open_structs`` in handle_starttag (a void tag without
    # relevant attrs to nothing), and its end tag with no structure at
    # its depth to ``self._tags.pop()`` — inline both
    special_start = _SPECIAL_START_TEXT if h._collect_text \
        else _SPECIAL_START_NOTEXT
    # a data segment only matters while something consumes it (visible
    # text, or an open itemprop/RDFa literal span — ld+json bodies go
    # through the raw-text branch); otherwise skip the slice + dispatch
    collect = h._collect_text
    prop_stack = h._prop_stack
    rdfa_prop_stack = h._rdfa_prop_stack
    while pos < n:
        lt = find("<", pos)
        if lt < 0:
            if collect or prop_stack or rdfa_prop_stack:
                data = text[pos:]
                handle_data(unescape(data) if "&" in data else data)
            return
        if lt > pos and (collect or prop_stack or rdfa_prop_stack):
            data = text[pos:lt]
            handle_data(unescape(data) if "&" in data else data)
        m = tag_match(text, lt)
        if m is not None:
            raw_tag, raw_start, soup, selfclose = m.group(1, 2, 3, 4)
            pos = m.end()
            if raw_tag is not None:
                # open tags are lowercase: a close spelled like the top
                # needs no lowering
                if tags and tags[-1] == raw_tag:
                    if raw_tag in special_start or (marks and
                                                    marks[-1] == len(tags)):
                        pop_tag()
                    else:
                        tags.pop()
                else:
                    handle_endtag(tag_lower.get(raw_tag) or _lower(raw_tag))
                continue
            tag = tag_lower.get(raw_start) or _lower(raw_start)
            attrs = _attrs_of(soup) if soup else _NO_ATTRS
            if selfclose:
                h.handle_startendtag(tag, attrs)
                continue
            if tag in VOID_TAGS:
                if attrs is not _NO_ATTRS or tag in special_start:
                    h.handle_startendtag(tag, attrs)
                continue
            if tag not in special_start:
                tags_append(tag)
                if attrs:
                    open_structs(tag, attrs)
                continue
            handle_starttag(tag, attrs)
            if tag in _RAWTEXT_TAGS:
                m = _RAW_END[tag].search(text, pos)
                if m is None:
                    return        # stdlib swallows an unterminated body
                if m.start() > pos:
                    handle_data(text[pos:m.start()])   # no unescape
                pop_tag()
                pos = m.end()
            continue
        nxt = text[lt + 1] if lt + 1 < n else ""
        if nxt in letters:
            raise _Fallback
        elif nxt == "/":
            gt = find(">", lt + 2)
            if gt < 0:
                pos = _incomplete(h, text, lt)
                continue
            # stdlib: a name right after '</' is an end tag up to the
            # '>'; '</>' and anything else is a bogus comment
            m = _TAG_NAME.match(text, lt + 2)
            if m is not None:
                handle_endtag(m.group().lower())
            pos = gt + 1
        elif nxt == "!":
            if text.startswith("<!--", lt):
                m = _COMMENT_END.search(text, lt + 4)
                pos = m.end() if m is not None else _incomplete(h, text, lt)
            elif text.startswith("<![", lt):
                raise _Fallback   # marked sections: stdlib may raise
            else:                 # doctype / bogus comment: up to '>'
                gt = find(">", lt + 2)
                pos = gt + 1 if gt >= 0 else _incomplete(h, text, lt)
        elif nxt == "?":          # processing instruction: up to '>'
            gt = find(">", lt + 2)
            pos = gt + 1 if gt >= 0 else _incomplete(h, text, lt)
        else:                     # lone '<' is text
            if collect or prop_stack or rdfa_prop_stack:
                handle_data("<")
            pos = lt + 1


def _incomplete(h: PageExtractor, text: str, lt: int) -> int:
    """stdlib at EOF for an unterminated construct at ``lt``: its text
    up to the next '>' (inclusive) or the next '<' is data."""
    k = text.find(">", lt + 1)
    if k < 0:
        k = text.find("<", lt + 1)
        if k < 0:
            k = lt + 1
    else:
        k += 1
    data = text[lt:k]
    h.handle_data(unescape(data) if "&" in data else data)
    return k


def extract_page(html: str, *, engine: str = "fast",
                 want_text: bool = True):
    """Parse one HTML document → (visible_text, jsonld_blocks, micro_items,
    rdfa_roots). Never raises on malformed HTML (best-effort recovery).
    ``engine="stdlib"`` forces the html.parser front end (the oracle;
    the fast tokenizer falls back to it per document outside its
    grammar or on any error).  ``want_text=False`` skips visible-text
    block assembly (the triples path never reads it); structured
    outputs are identical either way (differential-pinned in tests)."""
    if engine == "fast":
        p = PageExtractor(collect_text=want_text)
        try:
            _fast_feed(p, html)
            p.finish()    # the stdlib buffer was never fed
            return (p.visible_text(), p.jsonld_blocks, p.micro_items,
                    p.rdfa_roots)
        except Exception:  # noqa: BLE001 — _Fallback or a tokenizer bug
            pass
    p = PageExtractor(collect_text=want_text)
    try:
        p.feed(html)
        p.close()
    except Exception:  # noqa: BLE001 — malformed page must not kill a batch
        p._flush_block()
    return p.visible_text(), p.jsonld_blocks, p.micro_items, p.rdfa_roots
