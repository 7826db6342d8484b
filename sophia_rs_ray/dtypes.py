"""Recognized-datatype machinery for D-entailment.

Re-implements the semantics of the reference's ``Recognized`` trait
(``reasoner/src/d_entailment.rs``: ``try_normalize`` /
``datatypes_for``) for the SPARQL-11 datatype set (its ``Sparql``
implementation): the XSD numeric tower, boolean, string, dateTime,
float/double/decimal.

- ``normalize(lex, dt)`` → (canonical_lex, canonical_dt) or raises
  ``IllTypedLiteral`` when the lexical form is not in the datatype's
  lexical space;
- ``datatypes_for(lex, dt)`` → every recognized datatype whose value
  space contains the (canonical) literal's value — drives the
  "42 a xsd:byte, xsd:positiveInteger, …" D-entailments and the
  incompatible-type inconsistency checks.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

XSD = "http://www.w3.org/2001/XMLSchema#"

_INT_BOUNDS: Dict[str, Tuple[Optional[int], Optional[int]]] = {
    XSD + "integer": (None, None),
    XSD + "long": (-(2 ** 63), 2 ** 63 - 1),
    XSD + "int": (-(2 ** 31), 2 ** 31 - 1),
    XSD + "short": (-(2 ** 15), 2 ** 15 - 1),
    XSD + "byte": (-(2 ** 7), 2 ** 7 - 1),
    XSD + "unsignedLong": (0, 2 ** 64 - 1),
    XSD + "unsignedInt": (0, 2 ** 32 - 1),
    XSD + "unsignedShort": (0, 2 ** 16 - 1),
    XSD + "unsignedByte": (0, 2 ** 8 - 1),
    XSD + "nonNegativeInteger": (0, None),
    XSD + "nonPositiveInteger": (None, 0),
    XSD + "positiveInteger": (1, None),
    XSD + "negativeInteger": (None, -1),
}

_RECOGNIZED = (frozenset(_INT_BOUNDS)
               | {XSD + d for d in ("decimal", "double", "float", "boolean",
                                    "string", "dateTime")})


class IllTypedLiteral(ValueError):
    def __init__(self, lex: str, datatype: str):
        super().__init__(f"Ill-typed literal {lex!r}^^<{datatype}>")
        self.lex = lex
        self.datatype = datatype


def is_recognized(dt: str) -> bool:
    return dt in _RECOGNIZED


_INT_RE = re.compile(r"^[+-]?[0-9]+$")
_DEC_RE = re.compile(r"^[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)$")
_FLT_RE = re.compile(
    r"^(?:[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    r"|[+-]?INF|NaN)$")
_DT_RE = re.compile(
    r"^-?\d{4,}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(?:\.\d+)?"
    r"(?:Z|[+-]\d{2}:\d{2})?$")


def _canon_decimal(lex: str) -> str:
    neg = lex.startswith("-")
    lex = lex.lstrip("+-")
    if "." in lex:
        ip, fp = lex.split(".", 1)
    else:
        ip, fp = lex, ""
    ip = ip.lstrip("0") or "0"
    fp = fp.rstrip("0")
    out = ip + "." + (fp or "0")
    return ("-" if neg and out != "0.0" else "") + out


def _canon_float(lex: str, digits: int) -> str:
    if lex == "NaN":
        return "NaN"
    if lex in ("INF", "+INF"):
        return "INF"
    if lex == "-INF":
        return "-INF"
    v = float(lex)
    # canonical xsd float/double: mantissa E exponent
    s = f"{v:.{digits}E}"
    mant, exp = s.split("E")
    mant = mant.rstrip("0")
    if mant.endswith("."):
        mant += "0"
    return f"{mant}E{int(exp)}"


def normalize(lex: str, dt: str) -> Tuple[str, str]:
    """→ (canonical lex, canonical dt); unrecognized datatypes pass
    through unchanged; ill-typed recognized literals raise."""
    if dt not in _RECOGNIZED:
        return lex, dt
    if dt in _INT_BOUNDS:
        if not _INT_RE.match(lex):
            raise IllTypedLiteral(lex, dt)
        v = int(lex)
        lo, hi = _INT_BOUNDS[dt]
        if (lo is not None and v < lo) or (hi is not None and v > hi):
            raise IllTypedLiteral(lex, dt)
        return str(v), dt
    if dt == XSD + "decimal":
        if not _DEC_RE.match(lex):
            raise IllTypedLiteral(lex, dt)
        return _canon_decimal(lex), dt
    if dt in (XSD + "double", XSD + "float"):
        if not _FLT_RE.match(lex):
            raise IllTypedLiteral(lex, dt)
        return _canon_float(lex, 17 if dt.endswith("double") else 9), dt
    if dt == XSD + "boolean":
        if lex in ("true", "1"):
            return "true", dt
        if lex in ("false", "0"):
            return "false", dt
        raise IllTypedLiteral(lex, dt)
    if dt == XSD + "string":
        return lex, dt
    # dateTime
    if not _DT_RE.match(lex):
        raise IllTypedLiteral(lex, dt)
    return lex, dt


def datatypes_for(lex: str, dt: str) -> Optional[List[str]]:
    """All recognized datatypes (beyond ``dt``) whose value space
    contains this (canonical) literal's value; None if ``dt`` is not
    recognized (mirrors ``Recognized::datatypes_for``)."""
    if dt not in _RECOGNIZED:
        return None
    out: List[str] = []
    if dt in _INT_BOUNDS:
        v = int(lex)
        for d2, (lo, hi) in _INT_BOUNDS.items():
            if d2 == dt:
                continue
            if (lo is None or v >= lo) and (hi is None or v <= hi):
                out.append(d2)
        out.append(XSD + "decimal")
    elif dt == XSD + "decimal":
        from fractions import Fraction

        v = Fraction(lex)
        if v.denominator == 1:
            iv = v.numerator
            for d2, (lo, hi) in _INT_BOUNDS.items():
                if (lo is None or iv >= lo) and (hi is None or iv <= hi):
                    out.append(d2)
    return out
