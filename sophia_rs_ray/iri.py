"""IRI validation and reference resolution (RFC 3986/3987).

Re-implements the semantics of the reference's ``iri`` crate
(``iri/src/resolve.rs:28-47`` — oxiri-backed strict RFC 3986 §5 resolution;
validation regex in ``iri/src/_regex.rs``): parse via the RFC 3986
appendix-B regex, merge paths per §5.2.3, ``remove_dot_segments`` per
§5.2.4, recompose per §5.3. Strict mode (no backward-compat same-scheme
shortcut), matching oxiri.

Used inside parser/extractor ``map_batches`` stages; resolution is
per-document state (one base IRI per page), so it needs no distributed
coordination.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional, Tuple

# RFC 3986 appendix B
_RFC3986 = re.compile(
    r"^(?:([A-Za-z][A-Za-z0-9+.\-]*):)?(?://([^/?#]*))?([^?#]*)(?:\?([^#]*))?(?:#(.*))?$",
    re.S,
)

# IRI validation: RFC 3987 <ucschar> extends unreserved; we check the
# coarse structure + absence of forbidden chars (whitespace, <>"{}|^`\).
_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')
_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*$")


def split_iri(iri: str) -> Tuple[Optional[str], Optional[str], str, Optional[str], Optional[str]]:
    """→ (scheme, authority, path, query, fragment); None = absent."""
    m = _RFC3986.match(iri)
    assert m is not None  # the regex matches any string
    return m.group(1), m.group(2), m.group(3) or "", m.group(4), m.group(5)


#: the scheme group of ``_RFC3986`` participates exactly when this matches
_SCHEME_PREFIX = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*:")


@lru_cache(maxsize=8192)
def is_absolute_iri(text: str) -> bool:
    # cached: extraction re-checks the same predicate/type IRIs constantly
    return _SCHEME_PREFIX.match(text) is not None \
        and not _FORBIDDEN.search(text)


def is_valid_iri_ref(text: str) -> bool:
    """Generalized-RDF validity: any IRI reference without forbidden chars."""
    return not _FORBIDDEN.search(text)


#: RFC 3987 iprivate ranges (allowed ONLY in the query component)
_PRIVATE = ((0xE000, 0xF8FF), (0xF0000, 0xFFFFD), (0x100000, 0x10FFFD))


def _component_ok(s: str, *, allow_private: bool) -> bool:
    for ch in s:
        o = ord(ch)
        if o <= 0x20 or ch in '<>"{}|^`\\[]':
            return False
        if not allow_private and any(lo <= o <= hi for lo, hi in _PRIVATE):
            return False
    return True


def is_strict_iri_ref(text: str) -> bool:
    """Strict RFC 3987 IRI-reference validation (component-level char
    classes), matching the reference's regex validator
    (``iri/src/_regex.rs``; corpus ``iri/src/test.rs`` POSITIVE_IRIS /
    NEGATIVE_IRIS): brackets only as an authority IP-literal, iprivate
    characters only in the query component."""
    scheme, auth, path, query, frag = split_iri(text)
    if scheme is not None and not _SCHEME.match(scheme):
        return False
    if auth is not None:
        host = auth
        if "@" in host:
            userinfo, host = host.rsplit("@", 1)
            if not _component_ok(userinfo, allow_private=False):
                return False
        if host.startswith("["):
            end = host.find("]")
            if end < 0:
                return False
            inner, rest = host[1:end], host[end + 1:]
            if not all(c in "0123456789abcdefABCDEF:.vV" for c in inner):
                return False
            if rest and not (rest.startswith(":")
                             and rest[1:].isdigit() or rest == ":"):
                return False
        elif not _component_ok(host, allow_private=False):
            return False
    if not _component_ok(path, allow_private=False):
        return False
    if query is not None and not _component_ok(query, allow_private=True):
        return False
    if frag is not None and not _component_ok(frag, allow_private=False):
        return False
    return True


def remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4."""
    out = []
    while path:
        if path.startswith("../"):
            path = path[3:]
        elif path.startswith("./"):
            path = path[2:]
        elif path.startswith("/./"):
            path = "/" + path[3:]
        elif path == "/.":
            path = "/"
        elif path.startswith("/../"):
            path = "/" + path[4:]
            if out:
                out.pop()
        elif path == "/..":
            path = "/"
            if out:
                out.pop()
        elif path in (".", ".."):
            path = ""
        else:
            i = path.find("/", 1)
            if i < 0:
                out.append(path)
                path = ""
            else:
                out.append(path[:i])
                path = path[i:]
    return "".join(out)


def _merge(base_auth: Optional[str], base_path: str, ref_path: str) -> str:
    """RFC 3986 §5.2.3."""
    if base_auth is not None and base_path == "":
        return "/" + ref_path
    i = base_path.rfind("/")
    if i < 0:
        return ref_path
    return base_path[: i + 1] + ref_path


def resolve(base: str, ref: str) -> str:
    """Resolve ``ref`` against absolute ``base`` (RFC 3986 §5.2.2, strict)."""
    b_scheme, b_auth, b_path, b_query, _ = split_iri(base)
    r_scheme, r_auth, r_path, r_query, r_frag = split_iri(ref)

    if r_scheme is not None:
        scheme, auth, path, query = r_scheme, r_auth, remove_dot_segments(r_path), r_query
    elif r_auth is not None:
        scheme, auth, path, query = b_scheme, r_auth, remove_dot_segments(r_path), r_query
    elif r_path == "":
        scheme, auth, path = b_scheme, b_auth, b_path
        query = r_query if r_query is not None else b_query
    elif r_path.startswith("/"):
        scheme, auth, path, query = b_scheme, b_auth, remove_dot_segments(r_path), r_query
    else:
        scheme, auth = b_scheme, b_auth
        path = remove_dot_segments(_merge(b_auth, b_path, r_path))
        query = r_query

    out = []
    if scheme is not None:
        out += [scheme, ":"]
    if auth is not None:
        out += ["//", auth]
    out.append(path)
    if query is not None:
        out += ["?", query]
    if r_frag is not None:
        out += ["#", r_frag]
    return "".join(out)


class BaseIri:
    """Pre-split base for resolving many refs against one document base
    (the per-document analogue of the reference's ``BaseIri``)."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        if not is_absolute_iri(text):
            raise ValueError(f"not an absolute IRI: {text!r}")
        self.text = text

    def resolve(self, ref: str) -> str:
        if not ref:
            # same-document reference: base without fragment
            s, a, p, q, _ = split_iri(self.text)
            out = f"{s}:"
            if a is not None:
                out += "//" + a
            out += p
            if q is not None:
                out += "?" + q
            return out
        return resolve(self.text, ref)


class Relativizer:
    """Relativize IRIs against a fixed base (the inverse of `resolve`;
    reference ``iri/src/relativize.rs:22``).  Produces at most
    ``parents`` levels of ``../``; returns None when the IRI cannot be
    expressed relative to the base (different scheme/authority or above
    the pseudo-root).  Invariant (tested): ``resolve(base, rel) ==
    iri`` whenever a relative form is returned."""

    def __init__(self, base: str, parents: int = 2):
        self.base = base
        scheme, auth, path, _q, _f = split_iri(base)
        if scheme is None:
            raise ValueError(f"base must be absolute: {base!r}")
        path_begin = len(scheme) + 1 + (len(auth) + 2 if auth is not None
                                        else 0)
        # split_iri already excludes query/fragment from path
        self.path_end = path_begin + len(path)
        rest = base[self.path_end:]
        hash_i = rest.find("#")
        self.query_end = self.path_end + (hash_i if hash_i >= 0
                                          else len(rest))
        slashes = []
        pos = self.path_end
        for _ in range(parents + 1):
            i = base.rfind("/", path_begin, pos)
            if i > path_begin:  # a slash strictly inside the path
                pos = i
                slashes.append(pos)
            else:
                break
        has_root = base[path_begin:path_begin + 1] == "/"
        if len(slashes) > parents:
            self.pseudoroot = slashes.pop() + 1
        elif has_root:
            self.pseudoroot = path_begin + 1
        else:
            self.pseudoroot = path_begin
        self.slashes = slashes

    def relativize(self, iri: str) -> Optional[str]:
        base = self.base
        n = 0
        for a, b in zip(base, iri):
            if a != b:
                break
            n += 1
        lcp = n
        if lcp < self.pseudoroot:
            return None
        if lcp < self.path_end or (
            lcp == self.path_end and (
                (len(iri) > lcp and iri[lcp] not in "?#")
                or (base[lcp:lcp + 1] == "?"
                    and (len(iri) == lcp or iri[lcp:lcp + 1] == "#")))):
            for nb, slash in enumerate(self.slashes):
                if lcp > slash:
                    if nb == 0:
                        tail = iri[slash + 1:]
                        if not tail or tail[0] in "?#":
                            return "./" + tail
                        return tail
                    parts = [".."] * (nb + 1)
                    parts[nb] = iri[slash + 1:]
                    return "/".join(parts)
            if not self.slashes:
                tail = iri[self.pseudoroot:]
                if iri[self.pseudoroot - 1:self.pseudoroot] == "/" and (
                        not tail or tail[0] in "?#"):
                    return "./" + tail
                return tail
            nb = len(self.slashes)
            parts = [".."] * (nb + 1)
            parts[nb] = iri[self.pseudoroot:]
            return "/".join(parts)
        if lcp < self.query_end or (
                len(iri) > self.query_end
                and iri[self.query_end] != "#"):
            return iri[self.path_end:]
        return iri[self.query_end:]
