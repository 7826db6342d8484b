"""SPARQL 1.1 text → algebra compiler (SELECT / ASK / CONSTRUCT subset).

The reference parses query strings with spargebra and walks the algebra
tree (`sparql/src/lib.rs`, exec dispatch `sparql/src/exec.rs:125-181`);
our equivalent compiles the same surface into the Dataset-DAG algebra of
`sophia_rs_ray.sparql.algebra`, evaluated by `evaluate()`.

Supported grammar (the operator inventory of SURVEY §2.5-2.9):
  PREFIX/BASE prologue; SELECT [DISTINCT] (?v | (expr AS ?v) | *) /
  ASK / CONSTRUCT {template}; group graph patterns with triple blocks
  (`;` `,` `a`, `[ ]` bnode lists, `( )` collections), OPTIONAL,
  UNION, MINUS,
  FILTER (incl. [NOT] EXISTS), BIND, VALUES (single- and multi-var
  with UNDEF), GRAPH; GROUP BY +
  COUNT/SUM/AVG/MIN/MAX/SAMPLE/GROUP_CONCAT([DISTINCT] …; SEPARATOR=…),
  HAVING, ORDER BY ASC/DESC, LIMIT/OFFSET; property paths: ^ / |
  compositions rewritten to joins/unions; `+` `*` `?` over arbitrary
  sub-paths with free endpoints and negated property sets `!(p|^q)`
  via the general PathPattern evaluator (one transitive closure,
  ``functions.components``); SubSelect `{ SELECT … }` groups (with their own modifiers
  and trailing VALUES clause, SPARQL 1.1 §18.2.2.11); DESCRIBE.

Restrictions are explicit errors, not silent misparses.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from ..terms import (
    KIND_BNODE, KIND_IRI, KIND_LITERAL, KIND_VARIABLE, RDF as RDF_NS,
    RDF_TYPE, XSD, XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER,
    Term, format_term, iri, langlit, literal,
)
from ..ntriples import unescape_string
from .algebra import (
    Agg, BGP, Distinct, Exists, Extend, Filter, Group, Join, LeftJoin,
    Minus, Node, OrderBy, PathPattern, Project, Slice, Union,
)
from .expr import Const, Expr, FnCall, Var

__all__ = ["parse_query", "SparqlParseError", "SelectQuery", "AskQuery",
           "ConstructQuery", "DescribeQuery"]


class SparqlParseError(ValueError):
    pass


def _path_has_var(path) -> bool:
    """Does a path AST contain a variable predicate anywhere?"""
    kind = path[0]
    if kind == "term":
        return isinstance(path[1], Var)
    if kind == "neg":
        return False
    if kind in ("seq", "alt"):
        return any(_path_has_var(p) for p in path[1])
    return _path_has_var(path[1])  # inv/plus/star/opt


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<WS>\s+|\#[^\n]*)
  | (?P<IRIREF><[^<>"{}|^`\\\s]*>)
  | (?P<STRING>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | (?P<LANGTAG>@[A-Za-z][A-Za-z0-9-]*)
  | (?P<NUMBER>[+-]?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?
                    |\d+(?:[eE][+-]?\d+)?))
  | (?P<VAR>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<BNODE>_:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)
  | (?P<PNAME>(?:[A-Za-z_][A-Za-z0-9_.-]*?)?:[A-Za-z0-9_][A-Za-z0-9_.%-]*
             |(?:[A-Za-z_][A-Za-z0-9_.-]*?)?:)
  | (?P<KEYWORD>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP><<\(|\)>>|<<|>>|\^\^|&&|\|\||!=|<=|>=|[{}()\[\];,.=<>!+*/|^?~-])
""", re.VERBOSE)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SparqlParseError(
                f"unexpected character {text[pos]!r} at offset {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "WS":
            out.append((kind, m.group()))
    out.append(("EOF", ""))
    return out


# ---------------------------------------------------------------------------
# query result containers
# ---------------------------------------------------------------------------

class SelectQuery:
    def __init__(self, node: Node, vars_: List[str], dataset=((), ())):
        self.node = node
        self.vars = vars_
        self.dataset = dataset  # (FROM iris, FROM NAMED iris), NT text


class AskQuery:
    def __init__(self, node: Node, dataset=((), ())):
        self.node = node
        self.dataset = dataset


class ConstructQuery:
    def __init__(self, node: Node, template: List[Tuple],
                 dataset=((), ())):
        self.node = node
        self.template = template  # triples of Term | Var
        self.dataset = dataset


class DescribeQuery:
    def __init__(self, node: Optional[Node], terms: List, vars_: List[str],
                 dataset=((), ())):
        self.node = node      # None when only constant IRIs are described
        self.terms = terms    # constant Terms to describe
        self.vars = vars_     # variables bound by node to describe
        self.dataset = dataset


_AGG_FNS = {"COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT"}

# builtins usable in expressions (names as expr._apply expects)
_BUILTINS = {
    "STR", "LANG", "LANGMATCHES", "DATATYPE", "BOUND", "IRI", "URI",
    "STRDT", "STRLANG", "ISIRI", "ISURI", "ISBLANK", "ISLITERAL",
    "ISNUMERIC", "ISTRIPLE", "SAMETERM", "STRLEN", "UCASE", "LCASE",
    "CONTAINS", "STRSTARTS", "STRENDS", "STRBEFORE", "STRAFTER",
    "SUBSTR", "CONCAT", "REPLACE", "REGEX", "ENCODE_FOR_URI", "ABS",
    "CEIL", "FLOOR", "ROUND", "COALESCE", "IF", "YEAR", "MONTH", "DAY",
    "HOURS", "MINUTES", "SECONDS", "TIMEZONE", "TZ", "MD5", "SHA1",
    "SHA256", "SHA384", "SHA512", "SUBJECT", "PREDICATE", "OBJECT",
    "LANGDIR", "HASLANG", "HASLANGDIR", "STRLANGDIR",
    "TRIPLE", "BNODE", "NOW", "RAND", "UUID", "STRUUID",
}


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.prefixes: Dict[str, str] = {}
        self.base = ""
        self._bind_ctr = 0
        # when parsing a HAVING condition or a SELECT expression,
        # aggregates are legal and are appended here (hoisted into the
        # Group node under a synthetic alias) instead of erroring
        self._having_sink: Optional[List[Agg]] = None
        # aggregates hoisted out of SELECT expressions, drained into the
        # Group's agg list by _parse_select_body (per nesting level)
        self._pre_aggs: List[Agg] = []
        # one-shot pre-consumed primary for parse_expr(seed=…)
        self._seed_expr: Optional[Expr] = None

    # --- token helpers -----------------------------------------------------
    def peek(self, k: int = 0) -> Tuple[str, str]:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self) -> Tuple[str, str]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at_kw(self, *words: str) -> bool:
        k, v = self.peek()
        return k == "KEYWORD" and v.upper() in words

    def eat_kw(self, word: str):
        if not self.at_kw(word):
            raise SparqlParseError(f"expected {word}, got {self.peek()[1]!r}")
        self.next()

    def at_op(self, op: str) -> bool:
        k, v = self.peek()
        return k == "OP" and v == op

    def eat_op(self, op: str):
        if not self.at_op(op):
            raise SparqlParseError(f"expected {op!r}, got {self.peek()[1]!r}")
        self.next()

    # --- prologue ----------------------------------------------------------
    def parse_prologue(self):
        while True:
            if self.at_kw("PREFIX"):
                self.next()
                k, v = self.next()
                if k != "PNAME" or not v.endswith(":"):
                    raise SparqlParseError(f"bad PREFIX name {v!r}")
                pfx = v[:-1] + ":"
                k2, v2 = self.next()
                if k2 != "IRIREF":
                    raise SparqlParseError(f"bad PREFIX iri {v2!r}")
                self.prefixes[pfx] = v2[1:-1]
            elif self.at_kw("BASE"):
                self.next()
                k2, v2 = self.next()
                if k2 != "IRIREF":
                    raise SparqlParseError(f"bad BASE iri {v2!r}")
                self.base = v2[1:-1]
            else:
                return

    # --- terms -------------------------------------------------------------
    def _expand_pname(self, v: str) -> str:
        if ":" not in v:
            raise SparqlParseError(f"not a prefixed name: {v!r}")
        pfx, local = v.split(":", 1)
        key = pfx + ":"
        if key not in self.prefixes:
            raise SparqlParseError(f"unknown prefix {key!r}")
        return self.prefixes[key] + local

    def parse_term(self):
        """Term | Var for triple positions and expression primaries."""
        k, v = self.peek()
        if k == "VAR":
            self.next()
            return Var(v[1:])
        if k == "IRIREF":
            self.next()
            t = v[1:-1]
            if self.base and not re.match(r"[A-Za-z][A-Za-z0-9+.-]*:", t):
                from ..iri import resolve
                t = resolve(self.base, t)
            return iri(t)
        if k == "PNAME":
            self.next()
            return iri(self._expand_pname(v))
        if k == "BNODE":
            self.next()
            return (KIND_BNODE, v[2:], "", "", 0)
        if k == "STRING":
            self.next()
            lex = unescape_string(v[1:-1])
            nk, nv = self.peek()
            if nk == "LANGTAG":
                self.next()
                tag = nv[1:]
                # RDF 1.2 directional language tag: @en--ltr / @en--rtl
                if tag.endswith("--ltr"):
                    return langlit(lex, tag[:-5], 1)
                if tag.endswith("--rtl"):
                    return langlit(lex, tag[:-5], 2)
                return langlit(lex, tag)
            if nk == "OP" and nv == "^^":
                self.next()
                dt = self.parse_term()
                if not isinstance(dt, tuple) or dt[0] != KIND_IRI:
                    raise SparqlParseError("datatype must be an IRI")
                return literal(lex, dt[1])
            return literal(lex)
        if k == "NUMBER":
            self.next()
            return self._number_term(v)
        if k == "KEYWORD" and v.upper() in ("TRUE", "FALSE"):
            self.next()
            return literal(v.lower(), XSD_BOOLEAN)
        if k == "KEYWORD" and v == "a":
            self.next()
            return iri(RDF_TYPE)
        if k == "OP" and v == "<<(":
            # RDF 1.2 triple term — constant only: the engine stores
            # triple terms as canonical-NT strings in the s/o columns,
            # so a constant pattern is an exact match while variables
            # inside would need per-row destructuring (explicit error,
            # not a misparse)
            self.next()
            parts = []
            for role in ("subject", "predicate", "object"):
                t = self.parse_term()
                if isinstance(t, Var):
                    raise SparqlParseError(
                        "variables inside triple terms are not "
                        f"supported (?{t.name} in {role} position)")
                parts.append(t)
            self.eat_op(")>>")
            from ..terms import triple_term
            return triple_term(*parts)
        raise SparqlParseError(f"expected term, got {v!r}")

    # --- expressions (precedence climbing) ---------------------------------
    def parse_expr(self, seed: Optional[Expr] = None) -> Expr:
        """``seed`` substitutes an already-consumed primary (a hoisted
        aggregate's alias variable) as the FIRST primary of the
        expression — the rest of the precedence chain parses normally."""
        self._seed_expr = seed
        return self._or_expr()

    def _or_expr(self) -> Expr:
        e = self._and_expr()
        while self.at_op("||"):
            self.next()
            e = FnCall("||", e, self._and_expr())
        return e

    def _and_expr(self) -> Expr:
        e = self._rel_expr()
        while self.at_op("&&"):
            self.next()
            e = FnCall("&&", e, self._rel_expr())
        return e

    def _rel_expr(self) -> Expr:
        e = self._add_expr()
        k, v = self.peek()
        if k == "OP" and v in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            return FnCall(v, e, self._add_expr())
        if self.at_kw("IN"):
            self.next()
            return FnCall("IN", e, *self._expr_list())
        if self.at_kw("NOT"):
            self.next()
            self.eat_kw("IN")
            return FnCall("!", FnCall("IN", e, *self._expr_list()))
        return e

    def _expr_list(self) -> List[Expr]:
        self.eat_op("(")
        out = []
        if not self.at_op(")"):
            out.append(self.parse_expr())
            while self.at_op(","):
                self.next()
                out.append(self.parse_expr())
        self.eat_op(")")
        return out

    def _number_term(self, v: str):
        """NUMBER token text → typed numeric literal (grammar rules
        NumericLiteral*: exponent → double, '.' → decimal, else int)."""
        if re.search(r"[eE]", v):
            return literal(v, XSD_DOUBLE)
        if "." in v:
            return literal(v, XSD_DECIMAL)
        return literal(v, XSD_INTEGER)

    def _add_expr(self) -> Expr:
        e = self._mul_expr()
        while True:
            if self.at_op("+") or self.at_op("-"):
                op = self.next()[1]
                e = FnCall(op, e, self._mul_expr())
                continue
            k, v = self.peek()
            if k == "NUMBER" and v[0] in "+-":
                # SPARQL AdditiveExpression: "40+2" lexes as 40, +2 —
                # the grammar folds the signed literal back into the
                # additive chain, allowing '*'/'/' continuations on it
                self.next()
                rhs: Expr = Const(self._number_term(v[1:]))
                while self.at_op("*") or self.at_op("/"):
                    mop = self.next()[1]
                    rhs = FnCall(mop, rhs, self._unary_expr())
                e = FnCall(v[0], e, rhs)
                continue
            return e

    def _mul_expr(self) -> Expr:
        e = self._unary_expr()
        while self.at_op("*") or self.at_op("/"):
            op = self.next()[1]
            e = FnCall(op, e, self._unary_expr())
        return e

    def _unary_expr(self) -> Expr:
        if self._seed_expr is not None:
            # consumed before the prefix checks: the token after a
            # seeded primary is a BINARY operator, not a unary prefix
            e, self._seed_expr = self._seed_expr, None
            return e
        if self.at_op("!"):
            self.next()
            return FnCall("!", self._unary_expr())
        if self.at_op("-"):
            self.next()
            return FnCall("-", self._unary_expr())
        if self.at_op("+"):
            # unary plus is NOT a no-op: +("42") must be a numeric
            # type error at evaluation (function tests, test.rs)
            self.next()
            return FnCall("+", self._unary_expr())
        return self._primary_expr()

    def _primary_expr(self) -> Expr:
        k, v = self.peek()
        if k == "OP" and v == "(":
            self.next()
            e = self.parse_expr()
            self.eat_op(")")
            return e
        if k == "KEYWORD":
            up = v.upper()
            if up in _BUILTINS:
                self.next()
                args = self._expr_list() if self.at_op("(") else []
                return FnCall(up, *args)
            if up in _AGG_FNS:
                if self._having_sink is not None:
                    # HAVING condition: hoist the aggregate into the
                    # Group node under a synthetic alias and reference
                    # it as a variable (SPARQL 1.1 §11.1; the alias
                    # column is pruned by the final Project)
                    # single-underscore prefix: ``__``-prefixed columns
                    # are internal and hidden from expression eval
                    agg = self._try_parse_agg()
                    agg.alias = f"_hv{self._bind_ctr}"
                    self._bind_ctr += 1
                    self._having_sink.append(agg)
                    return Var(agg.alias)
                raise SparqlParseError(
                    f"aggregate {up} only allowed in SELECT/HAVING")
        if k in ("PNAME", "IRIREF") and self.peek(1) == ("OP", "("):
            # constructor cast xsd:integer(?x) etc. (function.rs:434-440)
            t = self.parse_term()
            if t[1].startswith(XSD):
                return FnCall("XSD:" + t[1][len(XSD):].upper(),
                              *self._expr_list())
            raise SparqlParseError(f"unknown function <{t[1]}>")
        t = self.parse_term()
        if isinstance(t, Var):
            return t
        return Const(t)

    # --- group graph pattern ------------------------------------------------
    def parse_group(self) -> Node:
        """`{ ... }` → algebra node. FILTERs apply at group end (SPARQL
        scoping); EXISTS filters become Exists semi-joins. A group whose
        first token is SELECT is a SubSelect (SPARQL 1.1 §18.2.2.11,
        desugared by the reference's spargebra into the same nested
        Project/Group algebra — sparql/src/exec.rs:125-180): evaluated
        independently, only its projected variables join the outer
        scope."""
        self.eat_op("{")
        if self.at_kw("SELECT"):
            self.next()
            node, _, _ = self._parse_select_body(with_dataset=False)
            if self.at_kw("VALUES"):  # SubSelect trailing ValuesClause
                node = Join(node, self._parse_values())
            self.eat_op("}")
            return node
        acc: Optional[Node] = None
        filters: List[Expr] = []
        exists: List[Tuple[Node, bool]] = []

        def join(n: Optional[Node], m: Node) -> Node:
            return m if n is None else Join(n, m)

        while not self.at_op("}"):
            if self.at_kw("OPTIONAL"):
                self.next()
                right = self.parse_group()
                if acc is None:
                    raise SparqlParseError("OPTIONAL cannot start a group")
                acc = LeftJoin(acc, right)
            elif self.at_kw("MINUS"):
                self.next()
                acc = Minus(acc if acc is not None else BGP([]),
                            self.parse_group())
            elif self.at_kw("FILTER"):
                self.next()
                if self.at_kw("EXISTS"):
                    self.next()
                    exists.append((self.parse_group(), False))
                elif self.at_kw("NOT"):
                    self.next()
                    self.eat_kw("EXISTS")
                    exists.append((self.parse_group(), True))
                else:
                    filters.append(self.parse_expr())
            elif self.at_kw("BIND"):
                self.next()
                self.eat_op("(")
                e = self.parse_expr()
                self.eat_kw("AS")
                k, v = self.next()
                if k != "VAR":
                    raise SparqlParseError("BIND needs ?var")
                self.eat_op(")")
                acc = Extend(v[1:], e, acc if acc is not None else BGP([]))
            elif self.at_kw("GRAPH"):
                self.next()
                name = self.parse_term()
                if not isinstance(name, Var) and name[0] != KIND_IRI:
                    raise SparqlParseError("GRAPH needs a ?var or IRI")
                from .algebra import GraphPattern
                acc = join(acc, GraphPattern(name, self.parse_group()))
            elif self.at_kw("SERVICE"):
                self.next()
                silent = False
                if self.at_kw("SILENT"):
                    self.next()
                    silent = True
                endpoint = self.parse_term()
                if isinstance(endpoint, Var) or endpoint[0] != KIND_IRI:
                    raise SparqlParseError(
                        "SERVICE needs a constant IRI endpoint "
                        "(variable endpoints unsupported)")
                # validate the group, then forward its TOKEN TEXT
                # verbatim to the resolver (whitespace-normalized)
                start = self.i
                self.parse_group()
                toks = self.toks[start:self.i]
                # expand PNAMEs: the outer prologue is not forwarded
                raw = " ".join(
                    f"<{self._expand_pname(v)}>" if k == "PNAME" else v
                    for k, v in toks)
                svars = tuple(dict.fromkeys(
                    v[1:] for k, v in toks if k == "VAR"))
                if not svars:
                    raise SparqlParseError(
                        "SERVICE group binds no variables")
                from .algebra import Service
                acc = join(acc, Service(
                    endpoint, f"SELECT * WHERE {raw}", svars, silent))
            elif self.at_kw("VALUES"):
                acc = join(acc, self._parse_values())
            elif self.at_op("{"):
                sub = self.parse_group()
                while self.at_kw("UNION"):
                    self.next()
                    sub = Union(sub, self.parse_group())
                acc = join(acc, sub)
            else:
                acc = join(acc, self._parse_triples_block())
            if self.at_op("."):
                self.next()
        self.eat_op("}")

        node = acc if acc is not None else BGP([])
        for pat, neg in exists:
            node = Exists(node, pat, negated=neg)
        for f in filters:
            node = Filter(f, node)
        return node

    def _parse_values(self) -> Node:
        """VALUES ?v { t… } and VALUES (?a ?b) { (t t) … (UNDEF t) }."""
        from .algebra import InlineData

        self.eat_kw("VALUES")
        if self.at_op("("):
            self.next()
            names: List[str] = []
            while self.peek()[0] == "VAR":
                names.append(self.next()[1][1:])
            self.eat_op(")")
            if not names:
                raise SparqlParseError("empty VALUES variable list")
            self.eat_op("{")
            rows = []
            while not self.at_op("}"):
                self.eat_op("(")
                row = []
                for _ in names:
                    if self.at_kw("UNDEF"):
                        self.next()
                        row.append(None)
                        continue
                    t = self.parse_term()
                    if isinstance(t, Var):
                        raise SparqlParseError(
                            "VALUES data must be constant terms")
                    row.append(t)
                self.eat_op(")")
                rows.append(tuple(row))
            self.eat_op("}")
            return InlineData(names, rows)
        k, v = self.next()
        if k != "VAR":
            raise SparqlParseError("VALUES needs ?var or (?var …)")
        var = v[1:]
        self.eat_op("{")
        single: List[Term] = []
        while not self.at_op("}"):
            if self.at_kw("UNDEF"):
                raise SparqlParseError(
                    "UNDEF needs the (?var …) VALUES form")
            t = self.parse_term()
            if isinstance(t, Var):
                raise SparqlParseError("VALUES data must be constant terms")
            single.append(t)
        self.eat_op("}")
        return InlineData(var, single)

    # --- property paths (sparql/src/exec.rs:274-482) ------------------------
    # AST: ("term", Term|Var) | ("inv", p) | ("seq", [p…]) | ("alt", [p…])
    #    | ("plus", p) | ("star", p)

    def _parse_path(self):
        alts = [self._parse_path_seq()]
        while self.at_op("|"):
            self.next()
            alts.append(self._parse_path_seq())
        return alts[0] if len(alts) == 1 else ("alt", alts)

    def _parse_path_seq(self):
        elts = [self._parse_path_elt()]
        while self.at_op("/"):
            self.next()
            elts.append(self._parse_path_elt())
        return elts[0] if len(elts) == 1 else ("seq", elts)

    def _parse_path_elt(self):
        inv = False
        if self.at_op("^"):
            self.next()
            inv = True
        if self.at_op("!"):
            self.next()
            p = self._parse_negated_set()
        elif self.at_op("("):
            self.next()
            p = self._parse_path()
            self.eat_op(")")
        else:
            p = ("term", self.parse_term())
        if self.at_op("+"):
            self.next()
            p = ("plus", p)
        elif self.at_op("*"):
            self.next()
            p = ("star", p)
        elif self.at_op("?"):
            self.next()
            p = ("opt", p)
        return ("inv", p) if inv else p

    def _parse_negated_set(self):
        """``!iri`` / ``!^iri`` / ``!(iri|^iri|…)`` → ("neg", fwd, inv)
        with fwd/inv lists of predicate IRI Terms (SPARQL 1.1 §9.1
        PathNegatedPropertySet; reference exec path_neg handling)."""
        fwd: List[Term] = []
        inv: List[Term] = []

        def one():
            target = fwd
            if self.at_op("^"):
                self.next()
                target = inv
            t = self.parse_term()
            if isinstance(t, Var) or t[0] != KIND_IRI:
                raise SparqlParseError(
                    "negated property set needs IRIs")
            target.append(t)

        if self.at_op("("):
            self.next()
            if not self.at_op(")"):
                one()
                while self.at_op("|"):
                    self.next()
                    one()
            self.eat_op(")")
        else:
            one()
        return ("neg", fwd, inv)

    def _fresh_var(self) -> Var:
        # single underscore on purpose: '__'-prefixed columns are
        # internal markers invisible to _with_vars / join detection, and
        # path chain vars MUST join
        self._bind_ctr += 1
        return Var(f"_path_{self._bind_ctr}")

    def _compile_path(self, s, path, o) -> Node:
        """Recursive rewriting: ^p swaps endpoints, p1/p2 chains through
        a fresh variable, p1|p2 unions, p? with one constant endpoint
        becomes one hop ∪ the endpoint copy; every other ?, +, * and
        negated set compiles to one ``PathPattern``."""
        kind = path[0]
        if kind == "term":
            return BGP([(s, path[1], o)])
        if kind == "inv":
            return self._compile_path(o, path[1], s)
        if kind == "seq":
            parts = path[1]
            node: Optional[Node] = None
            cur = s
            for i, sub in enumerate(parts):
                nxt = o if i == len(parts) - 1 else self._fresh_var()
                seg = self._compile_path(cur, sub, nxt)
                node = seg if node is None else Join(node, seg)
                cur = nxt
            return node
        if kind == "alt":
            node = self._compile_path(s, path[1][0], o)
            for sub in path[1][1:]:
                node = Union(node, self._compile_path(s, sub, o))
            return node
        if kind == "opt" and isinstance(s, Var) != isinstance(o, Var) \
                and not _path_has_var(path[1]):
            # p? with exactly one constant endpoint: cheap rewrite as
            # one-hop UNION the zero-length endpoint copy.
            # ZeroOrOnePath has SET semantics (§18.4 — distinct
            # endpoint pairs), so the one-hop side projects to the
            # endpoints and dedups (drops any seq chain vars too)
            from .algebra import InlineData
            one = self._compile_path(s, path[1], o)
            end_vars = [t.name for t in (s, o) if isinstance(t, Var)]
            one = Project(end_vars, one)
            if isinstance(o, Var):
                zero = InlineData(o.name, [s])
            else:
                zero = InlineData(s.name, [o])
            # distinct over the WHOLE union: a one-hop self-loop match
            # equals the zero-length endpoint copy and must not repeat
            return Distinct(Union(one, zero))
        if kind in ("opt", "plus", "star", "neg"):
            # general evaluation: negated sets and closures over
            # arbitrary sub-paths with free endpoints (algebra.PathPattern,
            # parity target sparql/src/exec.rs:274-482 + path_or_more.rs)
            if _path_has_var(path):
                raise SparqlParseError(
                    "variable predicates inside +/*/?/! paths are not "
                    "supported")
            return PathPattern(s, path, o)
        raise SparqlParseError(f"unsupported path {path!r}")

    def _parse_template_vt(self, triples):
        """CONSTRUCT-template item (TriplesTemplate grammar): Term |
        Var | ``[]``/``[ po ]`` fresh-per-solution bnode | collection
        ``( … )`` (rdf:first/rest chain over fresh bnodes) | triple
        term ``<<( … )>>`` possibly holding variables (resolved per
        solution, marker ``("tt", parts)``)."""
        if self.at_op("["):
            self.next()
            b = self._fresh_template_bnode()
            if not self.at_op("]"):
                self._parse_template_po(b, triples)
            self.eat_op("]")
            return b
        if self.at_op("("):
            self.next()
            items = []
            while not self.at_op(")"):
                items.append(self._parse_template_vt(triples))
            self.eat_op(")")
            if not items:
                return iri(RDF_NS + "nil")
            heads = [self._fresh_template_bnode() for _ in items]
            for i, it in enumerate(items):
                triples.append((heads[i], iri(RDF_NS + "first"), it))
                nxt = iri(RDF_NS + "nil") if i == len(items) - 1 \
                    else heads[i + 1]
                triples.append((heads[i], iri(RDF_NS + "rest"), nxt))
            return heads[0]
        if self.at_op("<<("):
            self.next()
            parts = [self._parse_template_vt(triples) for _ in range(3)]
            self.eat_op(")>>")
            if not any(isinstance(t, Var) for t in parts):
                from ..terms import triple_term
                return triple_term(*parts)
            return ("tt", parts)
        return self.parse_term()

    def _fresh_template_bnode(self):
        self._bind_ctr += 1
        return (KIND_BNODE, f"t{self._bind_ctr}", "", "", 0)

    def _parse_template_po(self, s, triples):
        while True:
            p = self.parse_term()
            while True:
                o = self._parse_template_vt(triples)
                triples.append((s, p, o))
                if self.at_op(","):
                    self.next()
                    continue
                break
            if self.at_op(";"):
                self.next()
                while self.at_op(";"):
                    self.next()
                if self.at_op(".") or self.at_op("}"):
                    break
                continue
            break

    def _parse_vt(self, patterns, nodes):
        """Term | Var | bnode property list ``[ p o ; … ]`` | RDF
        collection ``( t… )`` — lists/collections introduce fresh
        non-distinguished variables (join like any var, dropped from
        SELECT * like path chain vars); a collection expands to its
        rdf:first/rdf:rest chain, ``()`` is rdf:nil.  An explicit
        ``_:label`` in a pattern is likewise a non-distinguished
        variable scoped to the query (SPARQL §4.1.4 — it can NEVER
        match a bnode constant by label; test.rs
        test_select_1_multiple_occurrences)."""
        if self.at_op("["):
            self.next()
            v = self._fresh_var()
            if not self.at_op("]"):
                self._parse_po_list(v, patterns, nodes)
            self.eat_op("]")
            return v
        if self.at_op("("):
            self.next()
            items = []
            while not self.at_op(")"):
                items.append(self._parse_vt(patterns, nodes))
            self.eat_op(")")
            if not items:
                return iri(RDF_NS + "nil")
            first = iri(RDF_NS + "first")
            rest = iri(RDF_NS + "rest")
            head = self._fresh_var()
            cur = head
            for i, item in enumerate(items):
                patterns.append((cur, first, item))
                nxt = iri(RDF_NS + "nil") if i == len(items) - 1 \
                    else self._fresh_var()
                patterns.append((cur, rest, nxt))
                cur = nxt
            return head
        if self.at_op("<<("):
            # RDF 1.2 triple-term pattern: all-constant terms stay
            # constants; variables / bnodes / [] inside destructure via
            # a TripleTermPattern wrapper once the term var is bound
            self.next()
            items = []
            for _ in range(3):
                if self.at_op("["):
                    self.next()
                    self.eat_op("]")
                    items.append(self._fresh_var())
                elif self.peek()[0] == "VAR":
                    items.append(Var(self.next()[1][1:]))
                elif self.peek()[0] == "BNODE":
                    items.append(Var(f"_path_bn_{self.next()[1][2:]}"))
                else:
                    items.append(self.parse_term())
            self.eat_op(")>>")
            if not any(isinstance(t, Var) for t in items):
                from ..terms import triple_term
                return triple_term(*items)
            v = self._fresh_var()
            nodes.append(("destructure", v, items))
            return v
        if self.at_op("<<"):
            # RDF 1.2 reified triple pattern << s p o (~ r)? >> —
            # expands to the pattern (r, rdf:reifies, <<( s p o )>>)
            # and evaluates to r (fresh non-distinguished var when
            # anonymous).  Inner terms must be constant (see the
            # triple-term note in parse_term); the reifier may be a
            # variable.
            self.next()
            parts = []
            for role in ("subject", "predicate", "object"):
                t = self.parse_term()
                if isinstance(t, Var):
                    raise SparqlParseError(
                        "variables inside reified triple patterns are "
                        f"not supported (?{t.name} in {role} position)")
                parts.append(t)
            if self.at_op("~"):
                self.next()
                r = self.parse_term()
            else:
                r = self._fresh_var()
            self.eat_op(">>")
            from ..terms import triple_term
            patterns.append((r, iri(RDF_NS + "reifies"),
                             triple_term(*parts)))
            return r
        t = self.parse_term()
        if isinstance(t, tuple) and t[0] == KIND_BNODE:
            # same label → same non-distinguished variable; the _path_
            # prefix keeps it joinable but dropped from SELECT *
            return Var(f"_path_bn_{t[1]}")
        return t

    def _parse_po_list(self, s, patterns, nodes):
        """predicate-object list with `;`/`,` sugar and property paths
        in the predicate position."""
        while True:
            if self.peek()[0] == "VAR":
                p = ("term", self.parse_term())
            else:
                p = self._parse_path()
            objs = [self._parse_vt(patterns, nodes)]
            while self.at_op(","):
                self.next()
                objs.append(self._parse_vt(patterns, nodes))
            for o in objs:
                if p[0] == "term":
                    patterns.append((s, p[1], o))
                else:
                    nodes.append(self._compile_path(s, p, o))
            if self.at_op(";"):
                self.next()
                while self.at_op(";"):
                    self.next()
                if self.at_op(".") or self.at_op("}") or self.at_op("]"):
                    break  # trailing ';'
                continue
            break

    def _parse_triples_block(self) -> Node:
        nodes: List[Node] = []
        patterns: List[Tuple] = []
        was_list = self.at_op("[")
        s = self._parse_vt(patterns, nodes)
        if was_list and (self.at_op(".") or self.at_op("}")):
            pass  # "[ … ] ." — subject list with no outer po-list
        else:
            self._parse_po_list(s, patterns, nodes)
        node: Optional[Node] = BGP(patterns) if patterns else None
        wraps = []
        for pnode in nodes:
            if isinstance(pnode, tuple) and pnode[0] == "destructure":
                wraps.append(pnode)
                continue
            node = pnode if node is None else Join(node, pnode)
        if node is None:
            node = BGP([])
        for _tag, v, items in wraps:
            from .algebra import TripleTermPattern
            node = TripleTermPattern(node, v.name, items)
        return node

    # --- SELECT clause ------------------------------------------------------
    def _parse_select_items(self):
        """→ (star, [(alias, Expr|None agg-free, Agg|None)])"""
        items = []
        if self.at_op("*"):
            self.next()
            return True, items
        while True:
            k, v = self.peek()
            if k == "VAR":
                self.next()
                items.append((v[1:], Var(v[1:]), None))
            elif self.at_op("("):
                self.next()
                agg = self._try_parse_agg()
                if agg is not None and not self.at_kw("AS"):
                    # the aggregate is a sub-expression, e.g.
                    # ((COUNT(*) + 1) AS ?n): hoist it like a HAVING
                    # aggregate and keep parsing the enclosing
                    # expression with Var(alias) already consumed —
                    # re-enter via the sink so any further aggregates
                    # hoist too
                    agg.alias = f"_hv{self._bind_ctr}"
                    self._bind_ctr += 1
                    self._pre_aggs.append(agg)
                    self._having_sink = self._pre_aggs
                    try:
                        e = self.parse_expr(seed=Var(agg.alias))
                    finally:
                        self._having_sink = None
                    agg = None
                elif agg is None:
                    self._having_sink = self._pre_aggs
                    try:
                        e = self.parse_expr()
                    finally:
                        self._having_sink = None
                else:
                    e = None
                self.eat_kw("AS")
                k2, v2 = self.next()
                if k2 != "VAR":
                    raise SparqlParseError("(expr AS ?var) needs ?var")
                self.eat_op(")")
                items.append((v2[1:], e, agg))
            else:
                break
        if not items:
            raise SparqlParseError("empty SELECT clause")
        return False, items

    def _try_parse_agg(self) -> Optional[Agg]:
        k, v = self.peek()
        if k != "KEYWORD" or v.upper() not in _AGG_FNS:
            return None
        fn = self.next()[1].upper()
        self.eat_op("(")
        distinct = False
        if self.at_kw("DISTINCT"):
            self.next()
            distinct = True
        expr: Optional[Expr] = None
        sep = " "
        if self.at_op("*"):
            self.next()
        else:
            expr = self.parse_expr()
        if self.at_op(";"):
            self.next()
            self.eat_kw("SEPARATOR")
            self.eat_op("=")
            k2, v2 = self.next()
            if k2 != "STRING":
                raise SparqlParseError("SEPARATOR needs a string")
            sep = unescape_string(v2[1:-1])
        self.eat_op(")")
        return Agg(fn, expr, alias="_agg", distinct=distinct, separator=sep)

    # --- solution modifiers -------------------------------------------------
    def _parse_modifiers(self, node: Node, group_vars, aggs,
                         select_items, star, distinct, reduced=False):
        having: List[Expr] = []
        if self.at_kw("HAVING"):
            self.next()
            self._having_sink = aggs
            having.append(self.parse_expr())
            # HavingCondition+ : further bracketted constraints chain
            while self.at_op("("):
                having.append(self.parse_expr())
            self._having_sink = None
            if star and any(a.alias.startswith("_hv") for a in aggs):
                raise SparqlParseError(
                    "SELECT * with aggregates in HAVING")
        order: List[Tuple[Expr, bool]] = []
        if self.at_kw("ORDER"):
            self.next()
            self.eat_kw("BY")
            while True:
                if self.at_kw("ASC") or self.at_kw("DESC"):
                    asc = self.next()[1].upper() == "ASC"
                    self.eat_op("(")
                    e = self.parse_expr()
                    self.eat_op(")")
                    order.append((e, asc))
                elif self.peek()[0] == "VAR":
                    order.append((Var(self.next()[1][1:]), True))
                elif self.at_op("("):
                    self.next()
                    e = self.parse_expr()
                    self.eat_op(")")
                    order.append((e, True))
                else:
                    break
        limit = offset = None
        while self.at_kw("LIMIT") or self.at_kw("OFFSET"):
            kw = self.next()[1].upper()
            k, v = self.next()
            if k != "NUMBER":
                raise SparqlParseError(f"{kw} needs a number")
            if kw == "LIMIT":
                limit = int(v)
            else:
                offset = int(v)

        # assemble: Group → HAVING → Extend → [Order/Slice] → Project →
        # Distinct → [Order/Slice].  ORDER BY evaluates BEFORE projection
        # (SPARQL 1.1 §18.2.5: sort keys may reference non-projected
        # variables); when every key IS projected we keep the sort after
        # Project/Distinct instead, which preserves the Slice∘OrderBy
        # top-k pushdown and re-establishes order after the Distinct
        # exchange.
        if aggs or group_vars:
            node = Group(group_vars, aggs, node)
        for h in having:
            node = Filter(h, node)
        proj: List[str] = []
        for alias, e, agg in select_items:
            if agg is not None:
                proj.append(alias)
            elif isinstance(e, Var) and e.name == alias:
                proj.append(alias)
            else:
                node = Extend(alias, e, node)
                proj.append(alias)

        def _expr_vars(e, out):
            if isinstance(e, Var):
                out.add(e.name)
            elif isinstance(e, FnCall):
                for a in e.args:
                    _expr_vars(a, out)

        order_vars: set = set()
        for e, _asc in order:
            _expr_vars(e, order_vars)
        pre_project_sort = bool(order) and not star \
            and not order_vars.issubset(set(proj))
        if pre_project_sort:
            if distinct or reduced:
                # With DISTINCT the slice counts distinct solutions, so
                # sorting/slicing before projection is wrong — and the
                # spec restricts ORDER BY under DISTINCT to projected
                # variables anyway.
                raise SparqlParseError(
                    "ORDER BY with DISTINCT/REDUCED may only use "
                    "projected variables")
            node = OrderBy(order, node)
            if limit is not None or offset:
                node = Slice(node, offset=offset or 0, limit=limit)
            node = Project(proj, node)
            return node, proj
        if not star:
            node = Project(proj, node)
        if distinct:
            node = Distinct(node)
        elif reduced:
            from .algebra import Reduced
            node = Reduced(node)
        if order:
            node = OrderBy(order, node)
        if limit is not None or offset:
            node = Slice(node, offset=offset or 0, limit=limit)
        return node, proj

    def _parse_dataset_clause(self):
        """FROM <g> / FROM NAMED <g> → (default-graph iris, named iris)
        as NT text (exec dataset selection, SPARQL 1.1 §13.2)."""
        froms: List[str] = []
        named: List[str] = []
        while self.at_kw("FROM"):
            self.next()
            target = froms
            if self.at_kw("NAMED"):
                self.next()
                target = named
            t = self.parse_term()
            if isinstance(t, Var) or t[0] != KIND_IRI:
                raise SparqlParseError("FROM needs an IRI")
            target.append(f"<{t[1]}>")
        return tuple(froms), tuple(named)

    def _parse_select_body(self, with_dataset: bool = True):
        """Everything after the SELECT keyword: DISTINCT/REDUCED,
        select items, [dataset clause], WHERE group, GROUP BY and
        solution modifiers. Shared by top-level SELECT and SubSelect
        groups. → (node, projected-var names, dataset clause)."""
        distinct = False
        reduced = False
        if self.at_kw("DISTINCT"):
            self.next()
            distinct = True
        elif self.at_kw("REDUCED"):
            self.next()  # strict REDUCED: adjacent-dup elimination
            reduced = True
        star, items = self._parse_select_items()
        # aggregates hoisted out of SELECT expressions belong to THIS
        # level's Group; drain before parse_group so a SubSelect's own
        # hoists don't leak into the outer query (and vice versa)
        hoisted, self._pre_aggs = self._pre_aggs, []
        dataset = self._parse_dataset_clause() if with_dataset \
            else ((), ())
        if self.at_kw("WHERE"):
            self.next()
        node = self.parse_group()
        group_vars: List[str] = []
        aggs: List[Agg] = []
        if self.at_kw("GROUP"):
            self.next()
            self.eat_kw("BY")
            while True:
                if self.peek()[0] == "VAR":
                    group_vars.append(self.next()[1][1:])
                elif self.at_op("("):
                    # GroupCondition '(' Expression ('AS' Var)? ')'
                    # (§11.1): bind the expression before grouping; an
                    # AS-less condition groups on a synthetic column
                    # that the final Project prunes
                    self.next()
                    e = self.parse_expr()
                    if self.at_kw("AS"):
                        self.next()
                        k2, v2 = self.next()
                        if k2 != "VAR":
                            raise SparqlParseError(
                                "GROUP BY (expr AS ?var) needs ?var")
                        name = v2[1:]
                    else:
                        self._bind_ctr += 1
                        name = f"__g{self._bind_ctr}"
                    self.eat_op(")")
                    node = Extend(name, e, node)
                    group_vars.append(name)
                else:
                    break
        for alias, e, agg in items:
            if agg is not None:
                agg.alias = alias
                aggs.append(agg)
        aggs.extend(hoisted)
        if aggs and star:
            raise SparqlParseError("SELECT * with aggregates")
        if group_vars and star:
            raise SparqlParseError("SELECT * with GROUP BY")
        node, proj = self._parse_modifiers(
            node, group_vars, aggs, items, star, distinct,
            reduced=reduced)
        return node, proj, dataset

    # --- top level ----------------------------------------------------------
    def parse(self):
        self.parse_prologue()
        if self.at_kw("SELECT"):
            self.next()
            node, proj, dataset = self._parse_select_body()
            if self.at_kw("VALUES"):
                # top-level trailing ValuesClause (§18.2.1: joined to
                # the complete query result; its variables join the
                # result columns)
                vals = self._parse_values()
                node = Join(node, vals)
                vn = list(vals.var) if isinstance(vals.var, (list, tuple)) \
                    else [vals.var]
                proj = proj + [v for v in vn if v not in proj]
            self._expect_eof()
            return SelectQuery(node, proj, dataset)
        if self.at_kw("ASK"):
            self.next()
            dataset = self._parse_dataset_clause()
            if self.at_kw("WHERE"):
                self.next()
            node = self.parse_group()
            self._expect_eof()
            return AskQuery(Slice(node, limit=1), dataset)
        if self.at_kw("CONSTRUCT"):
            self.next()
            if not self.at_op("{"):
                return self._parse_construct_where()
            self.eat_op("{")
            template: List[Tuple] = []
            while not self.at_op("}"):
                s = self._parse_template_vt(template)
                if not (self.at_op(".") or self.at_op("}")):
                    self._parse_template_po(s, template)
                if self.at_op("."):
                    self.next()
            self.eat_op("}")
            dataset = self._parse_dataset_clause()
            if self.at_kw("WHERE"):
                self.next()
            node = self.parse_group()
            node, _ = self._parse_modifiers(node, [], [],
                                            [], True, False)
            self._expect_eof()
            return ConstructQuery(node, template, dataset)
        if self.at_kw("DESCRIBE"):
            self.next()
            terms: List = []
            vars_: List[str] = []
            while True:
                k, v = self.peek()
                if k == "VAR":
                    self.next()
                    vars_.append(v[1:])
                elif k in ("IRIREF", "PNAME"):
                    terms.append(self.parse_term())
                else:
                    break
            if not terms and not vars_:
                raise SparqlParseError("empty DESCRIBE")
            dataset = self._parse_dataset_clause()
            node = None
            if self.at_kw("WHERE") or self.at_op("{"):
                if self.at_kw("WHERE"):
                    self.next()
                node = self.parse_group()
            if vars_ and node is None:
                raise SparqlParseError("DESCRIBE ?v needs a WHERE clause")
            self._expect_eof()
            return DescribeQuery(node, terms, vars_, dataset)
        raise SparqlParseError(
            f"expected SELECT/ASK/CONSTRUCT/DESCRIBE, got {self.peek()[1]!r}")

    def _parse_construct_where(self):
        """``CONSTRUCT [FROM …] WHERE { TriplesTemplate }`` shorthand
        (SPARQL 1.1 §10.2.3): the template doubles as the pattern.
        Blank nodes act as non-projected variables in the pattern and
        their bindings feed the template (the standard reading)."""
        dataset = self._parse_dataset_clause()
        self.eat_kw("WHERE")
        self.eat_op("{")
        template: List[Tuple] = []
        while not self.at_op("}"):
            s = self._parse_template_vt(template)
            if not (self.at_op(".") or self.at_op("}")):
                self._parse_template_po(s, template)
            if self.at_op("."):
                self.next()
        self.eat_op("}")

        def bv(t):
            if isinstance(t, tuple) and t and t[0] == "tt":
                raise SparqlParseError(
                    "triple terms need the full CONSTRUCT {…} WHERE form")
            if isinstance(t, tuple) and t and t[0] == KIND_BNODE:
                return Var(f"_cb_{t[1]}")
            return t

        template = [(bv(s), bv(p), bv(o)) for (s, p, o) in template]
        node = BGP(list(template))
        node, _ = self._parse_modifiers(node, [], [], [], True, False)
        self._expect_eof()
        return ConstructQuery(node, template, dataset)

    def _expect_eof(self):
        if self.peek()[0] != "EOF":
            raise SparqlParseError(
                f"trailing input at {self.peek()[1]!r}")


def parse_query(text: str):
    """SPARQL text → SelectQuery | AskQuery | ConstructQuery."""
    return _Parser(text).parse()
