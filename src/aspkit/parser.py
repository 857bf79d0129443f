"""Text format for ground programs and criteria facts.

Concrete syntax (whitespace-insensitive, ``%`` comments to end of line):

    rule      :=  [head] [":-" [body]] "."
    head      :=  atom ("|" atom)*  |  sum
    body      :=  bodylit ("," bodylit)*
    bodylit   :=  ["not"] (atom | sum)
    sum       :=  [int] ("{" lit ("," lit)* "}"
                         | "#sum" "[" wlit ("," wlit)* "]") [int]
    lit       :=  ["not"] atom
    wlit      :=  lit ["=" int]
    minimize  :=  "#minimize" "[" [mentry ("," mentry)*] "]" "."
    mentry    :=  lit ["=" int] ["@" int]

``{a1,...,ak}`` is shorthand for ``#sum[a1=1,...,ak=1]``; an omitted
entry weight defaults to 1 and an omitted minimize level to 1.  Atom
names are lowercase-initial; an uppercase-initial token anywhere is
rejected as non-ground input.  At most one ``#minimize`` statement is
accepted.  Criteria are a separate input of ``optimize(J,W,O).`` and
``prefer(L1,L2).`` facts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    Atom,
    Body,
    BodyLiteral,
    CriteriaSet,
    Disjunction,
    Literal,
    MinimizeEntry,
    MinimizeStatement,
    Program,
    Rule,
    SumConstraint,
    WeightedLiteral,
)


@dataclass(frozen=True)
class SourceSpan:
    """1-based line and column of a source position."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<hashword>\#[A-Za-z]+)
  | (?P<name>[a-z][A-Za-z0-9_]*)
  | (?P<upper>[A-Z_][A-Za-z0-9_]*)
  | (?P<int>-?[0-9]+)
  | (?P<arrow>:-)
  | (?P<punct>[.,|{}\[\]()=@])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _span(text: str, pos: int) -> SourceSpan:
    """The line and column of offset ``pos`` in ``text``."""
    return SourceSpan(text.count("\n", 0, pos) + 1,
                      pos - text.rfind("\n", 0, pos))


#: A token: kind, text and offset in the source.
_Token = tuple[str, str, int]


def tokenize(text: str) -> list[_Token]:
    """Lex program, criteria, or fact text into tokens, ending with eof."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        value = m.group()
        if kind == "name" and value == "not":
            kind = "not"
        elif kind == "upper":
            raise ParseError(f"non-ground input: variable-like token {value!r}",
                             _span(text, m.start()))
        elif kind == "bad":
            raise ParseError(f"unexpected character {value!r}",
                             _span(text, m.start()))
        tokens.append((kind, value, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _TokenStream:
    """A cursor over the tokens of ``text``; spans are made only for errors."""

    def __init__(self, text: str):
        self._text = text
        self._tokens = tokenize(text)
        self._pos = 0

    @property
    def current(self) -> _Token:
        return self._tokens[self._pos]

    def error(self, message: str, token: _Token) -> ParseError:
        return ParseError(message, _span(self._text, token[2]))

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self._tokens[self._pos]
        return tok[0] == kind and (value is None or tok[1] == value)

    def take(self, kind: str, value: str | None = None) -> _Token:
        tok = self._tokens[self._pos]
        if not self.at(kind, value):
            want = value if value is not None else kind
            raise self.error(f"expected {want!r}, found {tok[1]!r}", tok)
        self._pos += 1
        return tok

    def take_if(self, kind: str, value: str | None = None) -> _Token | None:
        if self.at(kind, value):
            return self.take(kind, value)
        return None


def _parse_atom(ts: _TokenStream) -> Atom:
    return Atom(ts.take("name")[1])


def _parse_literal(ts: _TokenStream) -> Literal:
    negated = ts.take_if("not") is not None
    return Literal(_parse_atom(ts), negated)


def _at_sum(ts: _TokenStream) -> bool:
    return ts.at("int") or ts.at("punct", "{") or ts.at("hashword", "#sum")


def _parse_sum(ts: _TokenStream) -> SumConstraint:
    lower = None
    if tok := ts.take_if("int"):
        lower = int(tok[1])
    elements: list[WeightedLiteral] = []
    if ts.take_if("punct", "{"):
        while True:
            elements.append(WeightedLiteral(_parse_literal(ts), 1))
            if not ts.take_if("punct", ","):
                break
        ts.take("punct", "}")
    else:
        ts.take("hashword", "#sum")
        ts.take("punct", "[")
        while True:
            literal = _parse_literal(ts)
            weight = 1
            if ts.take_if("punct", "="):
                wtok = ts.take("int")
                weight = int(wtok[1])
                if weight < 0:
                    raise ts.error("negative weight in #sum constraint", wtok)
            elements.append(WeightedLiteral(literal, weight))
            if not ts.take_if("punct", ","):
                break
        ts.take("punct", "]")
    upper = None
    if tok := ts.take_if("int"):
        upper = int(tok[1])
    return SumConstraint(lower, tuple(elements), upper)


def _parse_head(ts: _TokenStream):
    if _at_sum(ts):
        return _parse_sum(ts)
    atoms = [_parse_atom(ts)]
    while ts.take_if("punct", "|"):
        atoms.append(_parse_atom(ts))
    return Disjunction(tuple(atoms))


def _parse_body(ts: _TokenStream) -> Body:
    literals: list[BodyLiteral] = []
    while True:
        negated = ts.take_if("not") is not None
        element = _parse_sum(ts) if _at_sum(ts) else _parse_atom(ts)
        literals.append(BodyLiteral(element, negated))
        if not ts.take_if("punct", ","):
            break
    return tuple(literals)


def _parse_minimize_entries(ts: _TokenStream) -> tuple[MinimizeEntry, ...]:
    ts.take("punct", "[")
    entries: list[MinimizeEntry] = []
    if not ts.at("punct", "]"):
        while True:
            literal = _parse_literal(ts)
            weight, level = 1, 1
            if ts.take_if("punct", "="):
                weight = int(ts.take("int")[1])
            if ts.take_if("punct", "@"):
                level = int(ts.take("int")[1])
            entries.append(MinimizeEntry(literal, weight, level))
            if not ts.take_if("punct", ","):
                break
    ts.take("punct", "]")
    return tuple(entries)


def parse_program(text: str) -> Program:
    """Parse program text; raises :class:`ParseError` with a source span."""
    ts = _TokenStream(text)
    rules: list[Rule] = []
    minimize: MinimizeStatement | None = None
    while not ts.at("eof"):
        if ts.at("hashword", "#minimize"):
            tok = ts.take("hashword")
            if minimize is not None:
                raise ts.error("duplicate #minimize statement", tok)
            minimize = MinimizeStatement(_parse_minimize_entries(ts))
            ts.take("punct", ".")
            continue
        if ts.at("hashword") and ts.current[1] != "#sum":
            raise ts.error(f"unknown directive {ts.current[1]!r}", ts.current)
        if ts.take_if("arrow"):
            head: Disjunction | SumConstraint = Disjunction(())
        else:
            head = _parse_head(ts)
            if not ts.at("punct", "."):
                ts.take("arrow")
        body: Body = ()
        if not ts.at("punct", "."):
            body = _parse_body(ts)
        ts.take("punct", ".")
        rules.append(Rule(head, body))
    return Program(tuple(rules), minimize or MinimizeStatement())


def _parse_literal_term(ts: _TokenStream) -> Literal:
    tok = ts.take("name")
    if tok[1] not in ("pos", "neg"):
        raise ts.error("expected pos(...) or neg(...) literal term", tok)
    ts.take("punct", "(")
    ts.take("name", "atom")
    ts.take("punct", "(")
    atom = _parse_atom(ts)
    ts.take("punct", ")")
    ts.take("punct", ")")
    return Literal(atom, tok[1] == "neg")


def parse_criteria(text: str) -> CriteriaSet:
    """Parse ``optimize(J,W,O).`` and ``prefer(L1,L2).`` facts."""
    ts = _TokenStream(text)
    relations: list[tuple[int, int, str]] = []
    seen: dict[tuple[int, int], str] = {}
    prefer: list[tuple[Literal, Literal]] = []
    while not ts.at("eof"):
        tok = ts.take("name")
        if tok[1] == "optimize":
            ts.take("punct", "(")
            level = int(ts.take("int")[1])
            ts.take("punct", ",")
            weight = int(ts.take("int")[1])
            ts.take("punct", ",")
            crit_tok = ts.take("name")
            criterion = crit_tok[1]
            if criterion not in ("card", "incl", "pref"):
                raise ts.error(f"unknown criterion {criterion!r}", crit_tok)
            ts.take("punct", ")")
            key = (level, weight)
            if key in seen and seen[key] != criterion:
                raise ts.error(
                    f"conflicting criteria for level {level}, weight {weight}",
                    crit_tok)
            if key not in seen:
                seen[key] = criterion
                relations.append((level, weight, criterion))
        elif tok[1] == "prefer":
            ts.take("punct", "(")
            first = _parse_literal_term(ts)
            ts.take("punct", ",")
            second = _parse_literal_term(ts)
            ts.take("punct", ")")
            pair = (first, second)
            if pair not in prefer:
                prefer.append(pair)
        else:
            raise ts.error(
                f"expected optimize(...) or prefer(...), found {tok[1]!r}", tok)
        ts.take("punct", ".")
    return CriteriaSet(tuple(relations), tuple(prefer))


def render_program(program: Program) -> str:
    """Render a program; output reparses to a structurally equal program."""
    lines = [str(rule) for rule in program.rules]
    if program.minimize.entries:
        entries = ",".join(str(e) for e in program.minimize.entries)
        lines.append(f"#minimize[{entries}].")
    return "".join(line + "\n" for line in lines)
