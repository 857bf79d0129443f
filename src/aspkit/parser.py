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

The program reader makes every node through an overridable hook, so
:func:`aspkit.reify.reify_source` reads program text straight into
label tables by the same walk, with the same errors.  Program,
criteria and fact text (:func:`aspkit.reify.text_to_facts`, which reads
the fact format's fixed grammar into label tables) share one lexer:
one ``findall`` of one pattern gives the tokens as strings, with
whitespace and comments skipped inside the pattern and ``""`` at the
end, and each reader walks that list by index.  A variable-like token
or a bad character anywhere is reported before any syntax error.  A
line and column are worked out only for an error, by lexing again up
to the failing token.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from itertools import islice

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


#: Whitespace and ``%`` comments, skipped between tokens.
_SKIP = r"\s+|%[^\n]*"
#: Hashwords, names, integers, the arrow and punctuation; a token's kind
#: is told by its first character.
_VALID = r"#[A-Za-z]+|[a-z][A-Za-z0-9_]*|-?[0-9]+|:-|[.,|{}\[\]()=@]"
#: One token per match, after the skipped text: a valid token, a
#: variable-like token, any other single character, or ``""`` at the
#: end of the text.  Trailing skipped text gives a second ``""``.
_TOKEN_RE = re.compile(rf"(?:{_SKIP})*({_VALID}|[A-Z_][A-Za-z0-9_]*|.|\Z)",
                       re.DOTALL)
#: The longest prefix of skipped text and valid tokens: it ends where the
#: first variable-like token or bad character starts.
_VALID_RE = re.compile(rf"(?:{_SKIP}|{_VALID})*")

_LOWER = frozenset(string.ascii_lowercase)
_UPPER = frozenset(string.ascii_uppercase + "_")
_INT_START = frozenset("-" + string.digits)
#: Besides an integer, the tokens that can start a sum.
_SUM_OPENERS = ("{", "#sum")


def _span(text: str, pos: int) -> SourceSpan:
    """The line and column of offset ``pos`` in ``text``."""
    return SourceSpan(text.count("\n", 0, pos) + 1,
                      pos - text.rfind("\n", 0, pos))


def _lex(text: str) -> list[str]:
    """The tokens of program, criteria or fact text, ending with ``""``.

    A variable-like token or a bad character anywhere is reported here,
    before any syntax error."""
    end = _VALID_RE.match(text).end()
    if end < len(text):
        token = _TOKEN_RE.match(text, end)[1]
        if token[0] in _UPPER:
            message = f"non-ground input: variable-like token {token!r}"
        else:
            message = f"unexpected character {token!r}"
        raise ParseError(message, _span(text, end))
    return _TOKEN_RE.findall(text)


class _Failure(Exception):
    """A syntax error at the token of index ``index``; :func:`_read`
    gives it a line and column."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


def _read(text: str, reader):
    """``reader`` applied to the tokens of ``text``.  The offset of a
    failing token is found only for its error, by lexing again up to it."""
    tokens = _lex(text)
    try:
        return reader(tokens)
    except _Failure as failure:
        match = next(islice(_TOKEN_RE.finditer(text), failure.index, None))
        raise ParseError(failure.message,
                         _span(text, match.start(1))) from None


def _is_name(token: str) -> bool:
    return token[:1] in _LOWER and token != "not"


def _expected(want: str, tokens: list[str], i: int) -> _Failure:
    return _Failure(f"expected {want!r}, found {tokens[i]!r}", i)


def _take(tokens: list[str], i: int, want: str) -> int:
    """The index after token ``i``, which must be ``want``."""
    if tokens[i] != want:
        raise _expected(want, tokens, i)
    return i + 1


def _int(tokens: list[str], i: int) -> int:
    token = tokens[i]
    if token[:1] not in _INT_START:
        raise _expected("int", tokens, i)
    return int(token)


class _ProgramReader:
    """Reads a program from its tokens.  Every node is made through one
    of the ``make_*`` hooks (``falsity`` is the head of every integrity
    constraint) and the result by :meth:`finish`, so a subclass reads
    the same grammar, with the same errors, into another form:
    :class:`aspkit.reify._TableReader` makes label-table keys.  Each
    distinct atom, literal, atom body literal and one-atom head is made
    once per reader and shared: all of them are immutable.  Methods take
    the index of their first token; those that read more than one token
    also return the index after their last."""

    # Each hook takes the parts of its node in the order shown; a sum's
    # absent bound is None, and a disjunction has at least one atom.
    make_atom = Atom                     # (name)
    make_literal = Literal               # (atom, negated)
    make_weighted = WeightedLiteral      # (literal, weight)
    make_sum = SumConstraint             # (lower, elements, upper)
    make_body_literal = BodyLiteral      # (element, negated)
    make_disjunction = Disjunction       # (atoms)
    make_minimize_entry = MinimizeEntry  # (literal, weight, level)
    make_rule = Rule                     # (head, body)
    falsity = Disjunction(())

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.atoms: dict[str, Atom] = {}
        #: by name, one dict per sign: not negated, then negated
        self.literals: tuple[dict[str, Literal], ...] = ({}, {})
        self.body_literals: tuple[dict[str, BodyLiteral], ...] = ({}, {})
        self.heads: dict[str, Disjunction] = {}

    def finish(self, rules: list[Rule],
               minimize: tuple[MinimizeEntry, ...]) -> Program:
        """The result from the rules made, in order, and the minimize
        entries."""
        return Program(tuple(rules), MinimizeStatement(minimize))

    def atom(self, i: int) -> Atom:
        name = self.tokens[i]
        atom = self.atoms.get(name)
        if atom is None:
            if not _is_name(name):
                raise _expected("name", self.tokens, i)
            atom = self.atoms[name] = self.make_atom(name)
        return atom

    def literal(self, i: int) -> tuple[Literal, int]:
        negated = self.tokens[i] == "not"
        i += negated
        name = self.tokens[i]
        cache = self.literals[negated]
        literal = cache.get(name)
        if literal is None:
            literal = cache[name] = self.make_literal(self.atom(i), negated)
        return literal, i + 1

    def sum(self, i: int) -> tuple[SumConstraint, int]:
        tokens = self.tokens
        weighted = self.make_weighted
        lower = upper = None
        if tokens[i][:1] in _INT_START:
            lower = int(tokens[i])
            i += 1
        elements: list[WeightedLiteral] = []
        if tokens[i] == "{":
            i += 1
            while True:
                literal, i = self.literal(i)
                elements.append(weighted(literal, 1))
                if tokens[i] != ",":
                    break
                i += 1
            i = _take(tokens, i, "}")
        else:
            i = _take(tokens, _take(tokens, i, "#sum"), "[")
            while True:
                literal, i = self.literal(i)
                weight = 1
                if tokens[i] == "=":
                    weight = _int(tokens, i + 1)
                    if weight < 0:
                        raise _Failure("negative weight in #sum constraint",
                                       i + 1)
                    i += 2
                elements.append(weighted(literal, weight))
                if tokens[i] != ",":
                    break
                i += 1
            i = _take(tokens, i, "]")
        if tokens[i][:1] in _INT_START:
            upper = int(tokens[i])
            i += 1
        return self.make_sum(lower, tuple(elements), upper), i

    def head(self, i: int) -> tuple[Disjunction | SumConstraint, int]:
        tokens = self.tokens
        name = tokens[i]
        head = self.heads.get(name)
        if head is None:
            if name[:1] in _INT_START or name in _SUM_OPENERS:
                return self.sum(i)
            head = self.heads[name] = self.make_disjunction((self.atom(i),))
        i += 1
        if tokens[i] != "|":
            return head, i
        atoms = [self.atoms[name]]
        while tokens[i] == "|":
            atoms.append(self.atom(i + 1))
            i += 2
        return self.make_disjunction(tuple(atoms)), i

    def body(self, i: int) -> tuple[Body, int]:
        tokens = self.tokens
        literals: list[BodyLiteral] = []
        while True:
            negated = tokens[i] == "not"
            i += negated
            name = tokens[i]
            cache = self.body_literals[negated]
            literal = cache.get(name)
            if literal is not None:
                i += 1
            elif name[:1] in _INT_START or name in _SUM_OPENERS:
                element, i = self.sum(i)
                literal = self.make_body_literal(element, negated)
            else:
                literal = cache[name] = self.make_body_literal(self.atom(i),
                                                               negated)
                i += 1
            literals.append(literal)
            if tokens[i] != ",":
                return tuple(literals), i
            i += 1

    def minimize_entries(self, i: int) -> tuple[tuple[MinimizeEntry, ...], int]:
        tokens = self.tokens
        i = _take(tokens, i, "[")
        entries: list[MinimizeEntry] = []
        if tokens[i] != "]":
            while True:
                literal, i = self.literal(i)
                weight = level = 1
                if tokens[i] == "=":
                    weight = _int(tokens, i + 1)
                    i += 2
                if tokens[i] == "@":
                    level = _int(tokens, i + 1)
                    i += 2
                entries.append(self.make_minimize_entry(literal, weight,
                                                        level))
                if tokens[i] != ",":
                    break
                i += 1
        return tuple(entries), _take(tokens, i, "]")

    def program(self):
        """The result of :meth:`finish` for the whole program."""
        tokens = self.tokens
        make_rule = self.make_rule
        rules: list[Rule] = []
        minimize: tuple[MinimizeEntry, ...] | None = None
        i = 0
        while token := tokens[i]:
            if token[0] == "#" and token != "#sum":
                if token != "#minimize":
                    raise _Failure(f"unknown directive {token!r}", i)
                if minimize is not None:
                    raise _Failure("duplicate #minimize statement", i)
                minimize, i = self.minimize_entries(i + 1)
                i = _take(tokens, i, ".")
                continue
            if token == ":-":
                head: Disjunction | SumConstraint = self.falsity
                i += 1
            else:
                head, i = self.head(i)
                if tokens[i] != ".":
                    if tokens[i] != ":-":
                        raise _expected("arrow", tokens, i)
                    i += 1
            body: Body = ()
            if tokens[i] != ".":
                body, i = self.body(i)
            i = _take(tokens, i, ".")
            rules.append(make_rule(head, body))
        return self.finish(rules, minimize or ())


def parse_program(text: str) -> Program:
    """Parse program text; raises :class:`ParseError` with a source span."""
    return _read(text, lambda tokens: _ProgramReader(tokens).program())


def _literal_term(tokens: list[str], i: int) -> tuple[Literal, int]:
    """A ``pos(atom(a))`` or ``neg(atom(a))`` term from index ``i``."""
    wrapper = tokens[i]
    if not _is_name(wrapper):
        raise _expected("name", tokens, i)
    if wrapper not in ("pos", "neg"):
        raise _Failure("expected pos(...) or neg(...) literal term", i)
    i = _take(tokens, _take(tokens, _take(tokens, i + 1, "("), "atom"), "(")
    if not _is_name(tokens[i]):
        raise _expected("name", tokens, i)
    literal = Literal(Atom(tokens[i]), wrapper == "neg")
    return literal, _take(tokens, _take(tokens, i + 1, ")"), ")")


def _criteria(tokens: list[str]) -> CriteriaSet:
    relations: list[tuple[int, int, str]] = []
    seen: dict[tuple[int, int], str] = {}
    prefer: list[tuple[Literal, Literal]] = []
    i = 0
    while token := tokens[i]:
        if token == "optimize":
            i = _take(tokens, i + 1, "(")
            level = _int(tokens, i)
            i = _take(tokens, i + 1, ",")
            weight = _int(tokens, i)
            i = _take(tokens, i + 1, ",")
            criterion, at = tokens[i], i
            if not _is_name(criterion):
                raise _expected("name", tokens, i)
            if criterion not in ("card", "incl", "pref"):
                raise _Failure(f"unknown criterion {criterion!r}", i)
            i = _take(tokens, i + 1, ")")
            key = (level, weight)
            if key in seen and seen[key] != criterion:
                raise _Failure(
                    f"conflicting criteria for level {level}, weight {weight}",
                    at)
            if key not in seen:
                seen[key] = criterion
                relations.append((level, weight, criterion))
        elif token == "prefer":
            first, i = _literal_term(tokens, _take(tokens, i + 1, "("))
            second, i = _literal_term(tokens, _take(tokens, i, ","))
            i = _take(tokens, i, ")")
            pair = (first, second)
            if pair not in prefer:
                prefer.append(pair)
        elif not _is_name(token):
            raise _expected("name", tokens, i)
        else:
            raise _Failure(
                f"expected optimize(...) or prefer(...), found {token!r}", i)
        i = _take(tokens, i, ".")
    return CriteriaSet(tuple(relations), tuple(prefer))


def parse_criteria(text: str) -> CriteriaSet:
    """Parse ``optimize(J,W,O).`` and ``prefer(L1,L2).`` facts."""
    return _read(text, _criteria)


def render_program(program: Program) -> str:
    """Render a program; output reparses to a structurally equal program."""
    lines = [str(rule) for rule in program.rules]
    if program.minimize.entries:
        entries = ",".join(str(e) for e in program.minimize.entries)
        lines.append(f"#minimize[{entries}].")
    return "".join(line + "\n" for line in lines)
