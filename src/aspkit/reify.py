"""Fact-format reification of ground extended programs.

A reification is an ordered list of ground facts over this vocabulary
(one fact per line, terminated by ``.``, no whitespace inside terms):

    rule(pos(H),pos(conjunction(S))).  one per rule; H is atom(a),
                                       sum(L,S,U), or the constant false
    set(S,E).                          conjunction membership; E is
                                       pos(X) or neg(X) over atom(a)
                                       or sum(L,S,U)
    wlist(S,Q,L,W).                    entry Q of weighted-literal list
                                       S: literal pos(atom(a)) or
                                       neg(atom(a)) with weight W
    scc(C,E).                          member E of the non-trivial
                                       SCC labeled C: its atoms, the
                                       conjunction of each rule with a
                                       positive head atom in C and a
                                       positive body atom or a positive
                                       entry of a non-negated body sum
                                       in C, and each such sum
    minimize(J,S).                     minimize list of priority level J

List indexes Q run consecutively from 0, so duplicates in multisets
survive.  An SCC lists its atoms by name, then rule by rule a
conjunction before its sums, each member once.  Absent bounds are
materialized: 0 as lower, the total weight as upper.  Structurally
identical weighted-literal lists share one label, as do identical
conjunctions; the two label spaces are separate.  Sum lists and
minimize lists share the one list label space, so a minimize level
whose entries equal a sum's elements names that sum's list.  Each
distinct term is built once per reification, and every fact that
holds it shares that one object.  Proper disjunction
heads and sums with no entries (no wlist/4 fact could name their list;
only the library API builds them) are outside this format:
:func:`reify` rejects both.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import consequence
from .core import (
    Atom,
    Body,
    BodyLiteral,
    ContractViolationError,
    Disjunction,
    Literal,
    MinimizeEntry,
    MinimizeStatement,
    Program,
    Rule,
    SumConstraint,
    WeightedLiteral,
    is_extended,
)
from .parser import _INT_START, _Failure, _is_name, _expected, _read, _take


class ReifyError(Exception):
    """Malformed or inconsistent reified facts."""


@dataclass(frozen=True)
class Term:
    """A ground term: a functor with term or integer arguments."""

    functor: str
    args: tuple["Term | int", ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.functor
        return f"{self.functor}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class ReifiedFact:
    predicate: str
    args: tuple[Term | int, ...]

    def __str__(self) -> str:
        return f"{self.predicate}({','.join(str(a) for a in self.args)})."


FALSE = Term("false")

_POS_FALSE = Term("pos", (FALSE,))

#: The wrapper of a signed member, indexed by its ``negated`` flag.
_SIGN = ("pos", "neg")


class _Builder:
    """One reification.  Each distinct atom term, signed member (``pos``
    or ``neg`` of an atom or sum term) and conjunction term is one
    ``Term`` of the build, found by a plain key: an atom's name, and a
    member's sign with its atom's name or its sum's (lower, label,
    upper).  Conjunction and list labels are keyed by tuples of such
    keys, so no ``Term`` is hashed."""

    def __init__(self, program: Program):
        self.program = program
        self._wlist_labels: dict[tuple, int] = {}
        self._conj_labels: dict[tuple, int] = {}
        self._atoms: dict[str, Term] = {}
        self._members: dict[tuple, Term] = {}
        #: per conjunction label: conjunction(S) and pos(conjunction(S))
        self._conjunctions: list[tuple[Term, Term]] = []
        #: per rule: its conjunction label and member terms
        self.bodies: list[tuple[int, tuple[Term, ...]]] = []
        self.facts: list[ReifiedFact] = []

    def _atom(self, name: str) -> Term:
        term = self._atoms.get(name)
        if term is None:
            term = self._atoms[name] = Term("atom", (Term(name),))
        return term

    def _member(self, key: tuple) -> Term:
        """The signed member of ``key``: ``pos(X)`` or ``neg(X)`` for
        (negated, atom name) or (negated, lower, label, upper)."""
        term = self._members.get(key)
        if term is None:
            negated, *inner = key
            inner_term = (self._atom(inner[0]) if len(inner) == 1
                          else Term("sum", tuple(inner)))
            term = self._members[key] = Term(_SIGN[negated], (inner_term,))
        return term

    def _wlist(self, entries, out: list[ReifiedFact]) -> int:
        """The label of a weighted-literal list: a sum's elements or one
        minimize level's entries.  Both kinds are keyed alike, by
        (negated, atom name, weight) per entry, so they share labels."""
        key = tuple((e.literal.negated, e.literal.atom.name, e.weight)
                    for e in entries)
        label = self._wlist_labels.get(key)
        if label is None:
            label = self._wlist_labels[key] = len(self._wlist_labels)
            for index, (negated, name, weight) in enumerate(key):
                out.append(ReifiedFact("wlist", (
                    label, index, self._member((negated, name)), weight)))
        return label

    def _sum(self, sc: SumConstraint, out: list[ReifiedFact]
             ) -> tuple[int, int, int]:
        """A sum's (lower, label, upper), its bounds materialized."""
        if not sc.elements:
            raise ContractViolationError(f"empty sums cannot be reified: {sc}")
        label = self._wlist(sc.elements, out)
        lower = sc.lower if sc.lower is not None else 0
        upper = sc.upper if sc.upper is not None else sc.total
        return lower, label, upper

    def _conjunction(self, body: Body, out: list[ReifiedFact]
                     ) -> tuple[int, tuple[Term, ...]]:
        """The conjunction's label and its member terms, in body order."""
        keys: list[tuple] = []
        members: list[Term] = []
        member_facts: list[list[ReifiedFact]] = []
        for bl in body:
            facts: list[ReifiedFact] = []
            key = ((bl.negated, bl.element.name)
                   if isinstance(bl.element, Atom)
                   else (bl.negated, *self._sum(bl.element, facts)))
            keys.append(key)
            members.append(self._member(key))
            member_facts.append(facts)
        key = tuple(keys)
        label = self._conj_labels.get(key)
        if label is None:
            label = self._conj_labels[key] = len(self._conj_labels)
            conjunction = Term("conjunction", (label,))
            self._conjunctions.append(
                (conjunction, Term("pos", (conjunction,))))
            for member, facts in zip(members, member_facts):
                out.append(ReifiedFact("set", (label, member)))
                out.extend(facts)
        return label, tuple(members)

    def add_rule(self, rule: Rule) -> None:
        head_facts: list[ReifiedFact] = []
        if isinstance(rule.head, Disjunction):
            if len(rule.head.atoms) > 1:
                raise ContractViolationError(
                    "proper disjunction heads cannot be reified")
            head = (self._member((False, rule.head.atoms[0].name))
                    if rule.head.atoms else _POS_FALSE)
        else:
            head = self._member((False, *self._sum(rule.head, head_facts)))
        body_facts: list[ReifiedFact] = []
        label, members = self._conjunction(rule.body, body_facts)
        self.bodies.append((label, members))
        self.facts.append(ReifiedFact(
            "rule", (head, self._conjunctions[label][1])))
        self.facts.extend(head_facts)
        self.facts.extend(body_facts)

    def add_sccs(self) -> None:
        """The scc facts, from one pass over the rules.  Members are
        collected by key: an atom by name, a conjunction by label, a sum
        by (lower, label, upper)."""
        graph = consequence.dependency_graph(self.program)
        label_of: dict[str, int] = {}
        members: list[dict] = []
        for component in consequence.sccs(graph).nontrivial():
            names = sorted(atom.name for atom in component.atoms)
            label_of.update(dict.fromkeys(names, component.label))
            members.append({name: self._atom(name) for name in names})
        if not members:
            return
        for rule, (label, terms) in zip(self.program.rules, self.bodies):
            heads = {label_of.get(name) for name in _positive_names(rule.head)}
            heads.discard(None)
            if not heads:
                continue
            conjunction = self._conjunctions[label][0]
            for bl, term in zip(rule.body, terms):
                if bl.negated:
                    continue
                if isinstance(bl.element, Atom):
                    inside, sums = {label_of.get(bl.element.name)}, ()
                else:
                    inside = {label_of.get(name)
                              for name in _positive_names(bl.element)}
                    sums = (term.args[0],)
                for component in inside & heads:
                    found = members[component]
                    found.setdefault(label, conjunction)
                    for inner in sums:
                        found.setdefault(inner.args, inner)
        for component, terms in enumerate(members):
            for term in terms.values():
                self.facts.append(ReifiedFact("scc", (component, term)))

    def add_minimize(self, statement: MinimizeStatement) -> None:
        for level in statement.levels():
            facts: list[ReifiedFact] = []
            label = self._wlist(
                [e for e in statement.entries if e.level == level], facts)
            self.facts.append(ReifiedFact("minimize", (level, label)))
            self.facts.extend(facts)


def _positive_names(head_or_sum: Disjunction | SumConstraint) -> list[str]:
    """Names of the atoms of a disjunction, or of a sum's positive
    entries, in order."""
    if isinstance(head_or_sum, Disjunction):
        return [atom.name for atom in head_or_sum.atoms]
    return [wl.literal.atom.name for wl in head_or_sum.elements
            if not wl.literal.negated]


def reify(program: Program) -> list[ReifiedFact]:
    """The fact list describing ``program`` (deterministic)."""
    if not is_extended(program):
        raise ContractViolationError(
            "only extended programs (no proper disjunctions) can be reified")
    builder = _Builder(program)
    for rule in program.rules:
        builder.add_rule(rule)
    builder.add_sccs()
    builder.add_minimize(program.minimize)
    return builder.facts


def facts_to_text(facts) -> str:
    """The facts, one a line, as ``str`` prints each.  A term object that
    several facts share, as a reification's do, is printed once per
    call."""
    printed: dict[int, str] = {}

    def text(arg) -> str:
        if type(arg) is not Term:
            return str(arg)
        known = printed.get(id(arg))
        if known is None:
            known = printed[id(arg)] = (
                f"{arg.functor}({','.join(map(text, arg.args))})"
                if arg.args else arg.functor)
        return known

    return "".join([f"{fact.predicate}({','.join(map(text, fact.args))}).\n"
                    for fact in facts])


#: Deepest term nesting ``text_to_facts`` reads, counting the fact
#: itself; the vocabulary needs four levels.  Deeper terms would exhaust
#: the recursion of the reader and of every later walk over them.
MAX_TERM_DEPTH = 100


def _term(tokens: list[str], i: int, depth: int) -> tuple[Term | int, int]:
    """The term from token ``i`` at nesting ``depth``, and the index
    after it."""
    token = tokens[i]
    if token[:1] in _INT_START:
        return int(token), i + 1
    if not _is_name(token):
        raise _expected("name", tokens, i)
    if depth > MAX_TERM_DEPTH:
        raise _Failure(f"term nested deeper than {MAX_TERM_DEPTH} levels", i)
    i += 1
    args: list[Term | int] = []
    if tokens[i] == "(":
        while True:
            arg, i = _term(tokens, i + 1, depth + 1)
            args.append(arg)
            if tokens[i] != ",":
                break
        i = _take(tokens, i, ")")
    return Term(token, tuple(args)), i


def _facts(tokens: list[str]) -> list[ReifiedFact]:
    facts: list[ReifiedFact] = []
    i = 0
    while tokens[i]:
        start = i
        term, i = _term(tokens, i, 1)
        i = _take(tokens, i, ".")
        if isinstance(term, int) or not term.args:
            raise _Failure("expected a fact with arguments", start)
        facts.append(ReifiedFact(term.functor, term.args))
    return facts


def text_to_facts(text: str) -> list[ReifiedFact]:
    """Parse fact text; syntax errors carry source spans."""
    return _read(text, _facts)


def _expect_int(value, what: str) -> int:
    if not isinstance(value, int):
        raise ReifyError(f"{what} must be an integer, got {value}")
    return value


def _decode_atom(term) -> Atom:
    if (isinstance(term, Term) and term.functor == "atom"
            and len(term.args) == 1 and isinstance(term.args[0], Term)
            and not term.args[0].args):
        return Atom(term.args[0].functor)
    raise ReifyError(f"malformed atom term: {term}")


def _decode_literal(term) -> Literal:
    if isinstance(term, Term) and term.functor in ("pos", "neg") \
            and len(term.args) == 1:
        return Literal(_decode_atom(term.args[0]), term.functor == "neg")
    raise ReifyError(f"malformed literal term: {term}")


class FactReader:
    """Validating decoder of a fact list; labels are kept as given."""

    def __init__(self, facts):
        self.rule_facts: list[tuple[Term, Term]] = []
        self.set_facts: dict[int, list[Term]] = {}
        self.wlist_facts: dict[int, dict[int, tuple[Term, int]]] = {}
        self.scc_facts: list[tuple[int, Term]] = []
        self.minimize_facts: list[tuple[int, int]] = []
        for fact in facts:
            getattr(self, f"_read_{fact.predicate}", self._unknown)(fact)

    def _unknown(self, fact: ReifiedFact) -> None:
        raise ReifyError(f"unknown predicate in fact: {fact}")

    def _read_rule(self, fact: ReifiedFact) -> None:
        if len(fact.args) != 2:
            raise ReifyError(f"rule/2 expected: {fact}")
        head, body = fact.args
        for part in (head, body):
            if not (isinstance(part, Term) and part.functor == "pos"
                    and len(part.args) == 1):
                raise ReifyError(f"rule arguments must be pos(...): {fact}")
        self.rule_facts.append((head.args[0], body.args[0]))

    def _read_set(self, fact: ReifiedFact) -> None:
        if len(fact.args) != 2:
            raise ReifyError(f"set/2 expected: {fact}")
        label = _expect_int(fact.args[0], "set label")
        member = fact.args[1]
        if not isinstance(member, Term):
            raise ReifyError(f"malformed set member: {fact}")
        self.set_facts.setdefault(label, []).append(member)

    def _read_wlist(self, fact: ReifiedFact) -> None:
        if len(fact.args) != 4:
            raise ReifyError(f"wlist/4 expected: {fact}")
        label = _expect_int(fact.args[0], "wlist label")
        index = _expect_int(fact.args[1], "wlist index")
        weight = _expect_int(fact.args[3], "wlist weight")
        literal = fact.args[2]
        if not isinstance(literal, Term):
            raise ReifyError(f"malformed wlist literal: {fact}")
        entries = self.wlist_facts.setdefault(label, {})
        if index in entries:
            raise ReifyError(f"duplicate wlist index {index} in list {label}")
        entries[index] = (literal, weight)

    def _read_scc(self, fact: ReifiedFact) -> None:
        if len(fact.args) != 2 or not isinstance(fact.args[1], Term):
            raise ReifyError(f"scc/2 expected: {fact}")
        self.scc_facts.append(
            (_expect_int(fact.args[0], "scc label"), fact.args[1]))

    def _read_minimize(self, fact: ReifiedFact) -> None:
        if len(fact.args) != 2:
            raise ReifyError(f"minimize/2 expected: {fact}")
        self.minimize_facts.append(
            (_expect_int(fact.args[0], "minimize level"),
             _expect_int(fact.args[1], "minimize list label")))

    def wlist_entries(self, label: int) -> tuple[tuple[Term, int], ...]:
        if label not in self.wlist_facts:
            raise ReifyError(f"dangling wlist label {label}")
        by_index = self.wlist_facts[label]
        if sorted(by_index) != list(range(len(by_index))):
            raise ReifyError(
                f"wlist {label} indexes are not consecutive from 0")
        return tuple(by_index[i] for i in range(len(by_index)))

    def weighted(self, label: int) -> tuple[WeightedLiteral, ...]:
        """The decoded entries of weighted-literal list ``label``."""
        return tuple(WeightedLiteral(_decode_literal(lit), weight)
                     for lit, weight in self.wlist_entries(label))

    def decode_sum(self, term: Term) -> SumConstraint:
        if term.functor != "sum" or len(term.args) != 3:
            raise ReifyError(f"malformed sum term: {term}")
        lower = _expect_int(term.args[0], "sum lower bound")
        label = _expect_int(term.args[1], "sum list label")
        upper = _expect_int(term.args[2], "sum upper bound")
        try:
            return SumConstraint(lower, self.weighted(label), upper)
        except ValueError as exc:
            raise ReifyError(str(exc)) from exc

    def decode_member(self, term: Term) -> BodyLiteral:
        if term.functor not in ("pos", "neg") or len(term.args) != 1 \
                or not isinstance(term.args[0], Term):
            raise ReifyError(f"malformed conjunction member: {term}")
        inner = term.args[0]
        negated = term.functor == "neg"
        if inner.functor == "atom":
            return BodyLiteral(_decode_atom(inner), negated)
        if inner.functor == "sum":
            return BodyLiteral(self.decode_sum(inner), negated)
        raise ReifyError(f"malformed conjunction member: {term}")

    def decode_body(self, term: Term) -> Body:
        if term.functor != "conjunction" or len(term.args) != 1:
            raise ReifyError(f"malformed body term: {term}")
        label = _expect_int(term.args[0], "conjunction label")
        return tuple(self.decode_member(m)
                     for m in self.set_facts.get(label, ()))

    def decode_head(self, term: Term):
        if term == FALSE:
            return Disjunction(())
        if term.functor == "atom":
            return Disjunction((_decode_atom(term),))
        if term.functor == "sum":
            return self.decode_sum(term)
        raise ReifyError(f"malformed head term: {term}")

    def program(self) -> Program:
        """The program the facts describe; scc facts are not consulted."""
        rules = tuple(
            Rule(self.decode_head(head), self.decode_body(body))
            for head, body in self.rule_facts)
        entries = tuple(
            MinimizeEntry(wl.literal, wl.weight, level)
            for level, label in sorted(self.minimize_facts,
                                       key=lambda lv: lv[0])
            for wl in self.weighted(label))
        return Program(rules, MinimizeStatement(entries))

    def scc_members(self) -> set[tuple[int, Atom | Body | SumConstraint]]:
        """(component label, decoded member) pairs of the scc facts."""
        members: set[tuple[int, Atom | Body | SumConstraint]] = set()
        for label, term in self.scc_facts:
            if term.functor == "atom":
                members.add((label, _decode_atom(term)))
            elif term.functor == "conjunction":
                members.add((label, self.decode_body(term)))
            elif term.functor == "sum":
                members.add((label, self.decode_sum(term)))
            else:
                raise ReifyError(f"malformed scc member: {term}")
        return members


def parse_reified(facts) -> Program:
    """The program a fact list describes.

    The only reader of facts from outside: their labels may differ from
    the canonical ones, and their scc/2 facts are checked against the
    components recomputed from the decoded program.
    """
    given = FactReader(facts)
    program = given.program()
    if given.scc_members() != FactReader(reify(program)).scc_members():
        raise ReifyError("scc facts are inconsistent with the recomputed "
                         "dependency decomposition")
    return program
