"""Differential gate for the fast HTML tokenizer: on the synthetic
page corpus, a malformed-HTML gauntlet and seeded random HTML, the fast
front end must produce byte-identical extraction output (visible text,
JSON-LD blocks, microdata, RDFa) to the stdlib ``html.parser`` front
end, and the synthetic corpus must never need the stdlib fallback."""

import random
from functools import lru_cache

import pyarrow as pa
import pytest

from sophia_rs_ray.extract import html_page
from sophia_rs_ray.extract.html_page import PageExtractor, extract_page


def _norm(result):
    text, ld, micro, rdfa = result

    def mi(item):
        return (tuple(item.types), item.itemid,
                tuple((n, mi(v) if hasattr(v, "props") else v)
                      for n, v in item.props))

    def rn(node):
        return (tuple(node.types), node.about, node.vocab,
                tuple((p, k, rn(v) if hasattr(v, "props") else v)
                      for p, k, v in node.props))

    return (text, tuple(ld), tuple(mi(i) for i in micro),
            tuple(rn(r) for r in rdfa))


def _both(html, want_text=True):
    return (_norm(extract_page(html, engine="fast", want_text=want_text)),
            _norm(extract_page(html, engine="stdlib", want_text=want_text)))


@lru_cache(maxsize=1)
def _corpus():
    from sophia_rs_ray.sources.pages import gen_pages_batch

    batch = gen_pages_batch(
        pa.table({"id": pa.array(range(500), pa.int64())}), 5000)
    return [bytes(raw).decode("utf-8")
            if isinstance(raw, (bytes, bytearray)) else raw
            for raw in batch["html"].to_pylist()]


def test_synthetic_corpus_identical():
    for html in _corpus():
        for want_text in (True, False):
            fast, std = _both(html, want_text)
            assert fast == std


def test_synthetic_corpus_never_falls_back(monkeypatch):
    # the stdlib path is the only caller of PageExtractor.feed, and
    # extract_page swallows its errors: record the call instead
    fed = []

    def feed(self, data):
        fed.append(data)
        raise AssertionError("stdlib fallback taken")

    monkeypatch.setattr(PageExtractor, "feed", feed)
    for html in _corpus():
        for want_text in (True, False):
            extract_page(html, want_text=want_text)
    assert fed == []


GAUNTLET = [
    "",
    "plain text only",
    "<p>unclosed paragraph",
    "<p>a<p>b</p>",
    "<div><span>x</span> &amp; <b>y</b></div>",
    "<ul><li>one<li>two</ul>",
    "<script>var a = '<div>not text</div>';</script><p>after</p>",
    '<script type="application/ld+json">{"@id": "x", "v": "a&b"}'
    "</script>",
    "<style>p::before{content:'<'}</style><p>t</p>",
    "<!-- comment with <p>tag</p> --><p>real</p>",
    "<!DOCTYPE html><html><body><p>x</p></body></html>",
    "<p>1 < 2 and 3 > 2</p>",
    "<p title=\"a>b\">quoted gt</p>",
    "<p title='a\"b'>quote mix</p>",
    "<meta content=\"x&quot;y\"><p>entity in attr</p>",
    "<br><br/><hr>",
    "<div itemscope itemtype=\"http://schema.org/Person\">"
    "<span itemprop=\"name\">Ann</span></div>",
    "<div vocab=\"http://schema.org/\" typeof=\"Person\">"
    "<span property=\"name\">Bo</span></div>",
    "<a href=\"http://e/?a=1&amp;b=2\">link</a>",
    "<p>text &#65; &#x42; &amp; &unknown; end</p>",
    "<P CLASS=\"Upper\">case</P>",
    "<textarea><p>not a tag</p></textarea>done",
    "<title>ti<tle</title><p>x</p>",
    "<div><p>deep<div>nest</p></div></div>",
    "<?xml version=\"1.0\"?><p>pi</p>",
    "<![CDATA[ raw ]]><p>y</p>",
    "<p>trailing lone < bracket</p>",
    "<script type=\"application/ld+json\">{\"unterminated\": 1}",
    "<p  a   =   v  b>spacey attrs</p>",
    "<div itemscope><meta itemprop=\"k\" content=\"v\"></div>",
]


@pytest.mark.parametrize("html", GAUNTLET,
                         ids=[f"case{i}" for i in range(len(GAUNTLET))])
def test_malformed_gauntlet_identical(html):
    fast, std = _both(html)
    assert fast == std


def test_fast_engine_is_default():
    # the pipeline batch fn goes through the fast path
    text, ld, _m, _r = extract_page(
        '<script type="application/ld+json">{"a":1}</script><p>t</p>')
    assert ld == ['{"a":1}'] and text == "t"


@pytest.mark.parametrize("engine", ["fast", "stdlib"])
def test_valueless_attributes_read_as_empty(engine):
    """A valueless attribute is '' as in the HTML spec: a bare
    ``property`` names no property, and the rest of the page (text,
    JSON-LD) is still extracted; a bare ``content`` is the empty
    literal, never the string 'None'."""
    text, ld, _m, rdfa = extract_page(
        '<div vocab="http://schema.org/" typeof="T"><span property>x'
        '</span></div><script type="application/ld+json">{"a":1}</script>'
        '<p>after</p>', engine=engine)
    assert (text, ld) == ("x\nafter", ['{"a":1}'])
    assert [(r.types, r.props) for r in rdfa] == [(["T"], [])]
    _t, _l, _m, rdfa = extract_page(
        '<div vocab="http://schema.org/" typeof="Person">'
        '<meta property="name" content></div>', engine=engine)
    assert [r.props for r in rdfa] == [[("name", "literal", "")]]


# ---------------------------------------------------------------------------
# seeded random HTML
# ---------------------------------------------------------------------------

_TAGS = ("div", "span", "p", "a", "li", "ul", "section", "b", "td", "time",
         "h2", "noscript", "template", "title")
_VOIDS = ("meta", "link", "img", "br", "hr", "source")
_ATTR_NAMES = ("itemscope", "itemprop", "itemtype", "itemid", "vocab",
               "typeof", "property", "content", "href", "src", "resource",
               "about", "datetime", "class", "id", "title")
_VALUES = ("name", "worksFor", "http://schema.org/Person", "Person",
           "http://schema.org/", "/rel/x", "a>b", "x&amp;y", "a/b", "&lt;",
           "", "v 2", "2024-01-02", "#frag", "it's", 'say "hi"')
_TEXT = ("Ann", " works at ", "Acme", "\n  ", "a &amp; b", "x < y",
         "&#65;&#x42;", "caf\u00e9", "  spaced   out  ", "1 > 0")
_ODD = ("<!-->", "<!--->", "<!-- c -->", "<!-- c -- >", "<!-- open",
        "</ >", "</>", "< p>", "<?pi x?>", "<?pi open", "<![CDATA[ x ]]>",
        "<!DOCTYPE html>", "<!doctype", "<!bogus>", "</p>", "</div>",
        "</nope>", "</SPAN >", "</ div>", "</b\x00>", "&", "<", "</",
        "<br/>", "</br>")


def _case(rng, word):
    if rng.random() < 0.3:
        return "".join(c.upper() if rng.random() < 0.5 else c
                       for c in word)
    return word


def _attr(rng):
    name = _case(rng, rng.choice(_ATTR_NAMES))
    value = rng.choice(_VALUES)
    r = rng.random()
    if r < 0.2:
        return name                                   # no value
    if r < 0.55:
        return f'{name}="{value}"' if '"' not in value \
            else f"{name}='{value}'"
    if r < 0.7:
        return f"{name}='{value}'" if "'" not in value \
            else f'{name}="{value}"'
    if r < 0.85:                                      # bare value
        bare = "".join(c for c in value if c not in " \"'>") or "v"
        return f"{name}={bare}"
    if r < 0.9:
        return f"{name} = \"{value}\""
    if r < 0.94:
        return f'{name}="{value}'                     # unterminated quote
    if r < 0.97:
        return f'{name}="{value}"x'                   # glued to a quote
    return f"{name}=={value}"


def _start(rng, tag, attrs, close=""):
    soup = " ".join(attrs)
    return f"<{_case(rng, tag)}{' ' if soup else ''}{soup}{close}>"


def _structured(rng):
    """Attributes that open microdata or RDFa structure."""
    r = rng.random()
    if r < 0.3:
        return ["itemscope", 'itemtype="http://schema.org/Thing"',
                'itemprop="part"'][:rng.randint(1, 3)]
    if r < 0.5:
        return ['itemprop="name"']
    if r < 0.7:
        return ['vocab="http://schema.org/"', 'typeof="Event"',
                'property="sub"'][:rng.randint(1, 3)]
    return ['property="name"'] + (['content="c"'] if rng.random() < 0.3
                                  else [])


def _random_html(rng, depth=0):
    out = []
    for _ in range(rng.randint(1, 5)):
        r = rng.random()
        if r < 0.4 and depth < 5:
            tag = rng.choice(_TAGS)
            attrs = [_attr(rng) for _ in range(rng.randint(0, 2))]
            if rng.random() < 0.5:
                attrs += _structured(rng)
            close = "/" if rng.random() < 0.05 else ""
            out.append(_start(rng, tag, attrs, close))
            out.append(_random_html(rng, depth + 1))
            r2 = rng.random()
            if r2 < 0.75:
                out.append(f"</{_case(rng, tag)}>")
            elif r2 < 0.85:
                out.append(f"</{rng.choice(_TAGS)}>")       # unbalanced
        elif r < 0.5:
            attrs = _structured(rng) if rng.random() < 0.6 else []
            attrs += [_attr(rng)
                      for _ in range(rng.randint(0, 1))]
            out.append(_start(rng, rng.choice(_VOIDS), attrs,
                              "/" if rng.random() < 0.3 else ""))
        elif r < 0.58:
            raw = rng.choice(("script", "style"))
            typ = ' type="application/ld+json"' \
                if raw == "script" and rng.random() < 0.5 else ""
            body = rng.choice(('{"@id": "x", "v": "a&amp;b"}', "a<b>c",
                               "</div>", "x</scrip>", "</script foo>"))
            end = rng.choice((f"</{raw}>", f"</{raw.upper()} >",
                              f"</ {raw}>", f"</{raw}\n>", ""))
            out.append(f"<{_case(rng, raw)}{typ}>{body}{end}")
        elif r < 0.8:
            out.append(rng.choice(_TEXT))
        else:
            out.append(rng.choice(_ODD))
    return "".join(out)


def test_random_html_matches_stdlib():
    rng = random.Random(20261019)
    docs = [_random_html(rng) for _ in range(2000)]
    fast_only = 0
    for html in docs:
        for want_text in (True, False):
            fast, std = _both(html, want_text)
            assert fast == std, (want_text, html)
        try:
            html_page._fast_feed(PageExtractor(), html)
            fast_only += 1
        except Exception:  # noqa: BLE001 — counted as a fallback
            pass
    # the grammar's fallback must not make the comparison vacuous
    assert fast_only >= len(docs) // 2, fast_only
