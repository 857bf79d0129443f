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
whose entries equal a sum's elements names that sum's list.  The labels
are assigned on one table of plain keys per program (:func:`tables`,
a :class:`Tables`), which also holds each sum's entries, the
components' members and the positive support of each head and sum.
The meta build reads those tables without any fact being made, and
:func:`reify` renders the facts from the complete tables in one pass.
Each distinct term is built once per reification, and every fact that
holds it shares that one object.  Proper disjunction heads and sums
with no entries (no wlist/4 fact could name their list; only the
library API builds them) are outside this format: :func:`reify`
rejects both.

:class:`FactReader` checks each fact against one table of predicates
and their argument counts (rule/2, set/2, wlist/4, scc/2, minimize/2),
and decodes every term through one method, :meth:`FactReader.decode`,
which checks the term's functor against those its place allows and its
argument count against one table of functors (atom/1, sum/3,
conjunction/1, false/0, pos/1, neg/1).  An integer or a foreign term
where a term belongs, or a term where an integer belongs, is a
:class:`ReifyError`.
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


_POS_FALSE = Term("pos", (Term("false"),))

#: The wrapper of a signed member, indexed by its ``negated`` flag.
_SIGN = ("pos", "neg")

#: An atom by its name, or a sum by (lower, list label, upper).
Inner = str | tuple[int, int, int]

#: A weighted-literal list entry: (negated, atom name, weight).
Entry = tuple[bool, str, int]


class Tables:
    """One reification's canonical labels, kept as tables of plain keys:
    an atom is keyed by its name, a sum by (lower, list label, upper)
    with its bounds materialized, a conjunction member by (negated, atom
    name or sum key), and a list entry by (negated, atom name, weight).
    Conjunction and list labels are keyed by tuples of these, so no
    syntax object is hashed and no fact or term is made while the
    labels are assigned.  :func:`tables` fills them; :func:`reify`
    renders the facts from them and the meta build reads them."""

    def __init__(self):
        self._list_labels: dict[tuple[Entry, ...], int] = {}
        self._conj_labels: dict[tuple[tuple[bool, Inner], ...], int] = {}
        #: per list label: its entries
        self.lists: list[tuple[Entry, ...]] = []
        #: per sum key, in order of first occurrence over each rule's
        #: head, then its body: the sum's entries
        self.sums: dict[tuple[int, int, int], tuple[Entry, ...]] = {}
        #: per conjunction label: its members, in body order
        self.conjunctions: list[tuple[tuple[bool, Inner], ...]] = []
        #: per rule: its head (None for false, an atom name or a sum key)
        #: and its conjunction label
        self.rules: list[tuple[Inner | None, int]] = []
        #: every atom name of the program, sorted
        self.names: list[str] = []
        #: per non-trivial component, by label: its members in fact
        #: order, as atom names (sorted), conjunction labels and sum keys
        self.components: list[dict[Inner | int, None]] = []
        #: minimize list label by level, ascending
        self.minimize: dict[int, int] = {}

    def _list(self, entries: tuple[Entry, ...]) -> int:
        """The label of a weighted-literal list: a sum's elements or one
        minimize level's entries, which therefore share labels."""
        label = self._list_labels.get(entries)
        if label is None:
            label = self._list_labels[entries] = len(self.lists)
            self.lists.append(entries)
        return label

    def _sum(self, sc: SumConstraint) -> tuple[int, int, int]:
        """A sum's (lower, label, upper), its bounds materialized."""
        if not sc.elements:
            raise ContractViolationError(f"empty sums cannot be reified: {sc}")
        label = self._list(tuple(
            (wl.literal.negated, wl.literal.atom.name, wl.weight)
            for wl in sc.elements))
        lower = sc.lower if sc.lower is not None else 0
        upper = sc.upper if sc.upper is not None else sc.total
        key = lower, label, upper
        self.sums.setdefault(key, self.lists[label])
        return key

    def support(self, inner: Inner | None) -> tuple[str, ...]:
        """Names of the atoms occurring positively in a head or sum, in
        order, each once."""
        if type(inner) is str:
            return (inner,)
        if inner is None:
            return ()
        return tuple(dict.fromkeys(
            name for negated, name, _ in self.sums[inner] if not negated))

    def add_rule(self, rule: Rule) -> None:
        head = rule.head
        if type(head) is Disjunction:
            if len(head.atoms) > 1:
                raise ContractViolationError(
                    "proper disjunction heads cannot be reified")
            key = head.atoms[0].name if head.atoms else None
        else:
            key = self._sum(head)
        members = tuple(
            (bl.negated, bl.element.name if type(bl.element) is Atom
             else self._sum(bl.element))
            for bl in rule.body)
        label = self._conj_labels.get(members)
        if label is None:
            label = self._conj_labels[members] = len(self.conjunctions)
            self.conjunctions.append(members)
        self.rules.append((key, label))

    def add_sccs(self) -> None:
        """The names, the components of the positive dependency graph,
        and the members of the non-trivial ones, all read off the
        tables, so it runs once every rule and the minimize lists are
        in.  A rule leads from each atom in the support of its head to
        each atom in the support of each positive member of its
        conjunction."""
        names = {head for head, _ in self.rules if type(head) is str}
        names.update([inner for members in self.conjunctions
                      for _, inner in members if type(inner) is str])
        names.update([name for entries in self.lists
                      for _, name, _ in entries])
        self.names = sorted(names)
        number = {name: i for i, name in enumerate(self.names)}
        succ: list[list[int]] = [[] for _ in self.names]
        for head, label in self.rules:
            heads = self.support(head)
            if not heads:
                continue
            ends = [number[name] for negated, inner in self.conjunctions[label]
                    if not negated for name in self.support(inner)]
            for name in heads:
                succ[number[name]].extend(ends)
        for i, ends in enumerate(succ):
            if len(ends) > 1:
                succ[i] = sorted(set(ends))
        label_of: dict[str, int] = {}
        for members in consequence.strong_components(succ):
            if consequence.cyclic(members, succ):
                names = [self.names[i] for i in sorted(members)]
                label_of.update(dict.fromkeys(names, len(self.components)))
                self.components.append(dict.fromkeys(names))
        if not self.components:
            return
        for head, label in self.rules:
            heads = set(map(label_of.get, self.support(head)))
            heads.discard(None)
            if not heads:
                continue
            for negated, inner in self.conjunctions[label]:
                if negated:
                    continue
                for component in heads.intersection(
                        map(label_of.get, self.support(inner))):
                    found = self.components[component]
                    found.setdefault(label)
                    if type(inner) is tuple:
                        found.setdefault(inner)

    def add_minimize(self, statement: MinimizeStatement) -> None:
        for level in statement.levels():
            self.minimize[level] = self._list(tuple(
                (e.literal.negated, e.literal.atom.name, e.weight)
                for e in statement.entries if e.level == level))


def tables(program: Program) -> Tables:
    """The canonical labels of ``program`` as tables; no fact or term is
    made."""
    if not is_extended(program):
        raise ContractViolationError(
            "only extended programs (no proper disjunctions) can be reified")
    built = Tables()
    for rule in program.rules:
        built.add_rule(rule)
    built.add_minimize(program.minimize)
    built.add_sccs()
    return built


def reify(program: Program) -> list[ReifiedFact]:
    """The fact list describing ``program`` (deterministic), rendered in
    one pass from its complete tables, in the order of first use: each
    rule fact is followed by the list facts of a head sum and the set
    facts of a conjunction seen first there, each set fact by the list
    facts of its sum if seen first there; then the scc facts; then each
    minimize fact with its list facts if seen first there.  Each
    distinct term is made once, and every fact that holds it shares that
    one object."""
    labels = tables(program)
    out: list[ReifiedFact] = []
    terms: dict[Inner, Term] = {}
    members: dict[tuple[bool, Inner], Term] = {}
    # the next list and conjunction labels to render: labels are given
    # in order of first use
    listed = placed = 0

    def term(inner: Inner) -> Term:
        """``atom(a)`` or ``sum(L,S,U)``."""
        found = terms.get(inner)
        if found is None:
            found = terms[inner] = (
                Term("atom", (Term(inner),)) if type(inner) is str
                else Term("sum", inner))
        return found

    def member(key: tuple[bool, Inner]) -> Term:
        found = members.get(key)
        if found is None:
            found = members[key] = Term(_SIGN[key[0]], (term(key[1]),))
        return found

    def wlist(label: int) -> None:
        nonlocal listed
        if label == listed:
            listed += 1
            for index, (negated, name, weight) in enumerate(
                    labels.lists[label]):
                out.append(ReifiedFact("wlist", (
                    label, index, member((negated, name)), weight)))

    conjunctions = [Term("conjunction", (label,))
                    for label in range(len(labels.conjunctions))]
    bodies = [Term("pos", (conjunction,)) for conjunction in conjunctions]
    for head, label in labels.rules:
        out.append(ReifiedFact("rule", (
            _POS_FALSE if head is None else member((False, head)),
            bodies[label])))
        if type(head) is tuple:
            wlist(head[1])
        if label == placed:
            placed += 1
            for key in labels.conjunctions[label]:
                out.append(ReifiedFact("set", (label, member(key))))
                if type(key[1]) is tuple:
                    wlist(key[1][1])
    for component, found in enumerate(labels.components):
        out.extend(ReifiedFact("scc", (
            component, conjunctions[key] if type(key) is int
            else term(key))) for key in found)
    for level, label in labels.minimize.items():
        out.append(ReifiedFact("minimize", (level, label)))
        wlist(label)
    return out


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


#: The argument count of each functor of the format's terms; the one
#: argument of ``atom`` is the atom's name, a constant.
_ARITY = {"atom": 1, "sum": 3, "conjunction": 1, "false": 0, "pos": 1,
         "neg": 1}

#: The argument count of each predicate of the format.
_PREDICATES = {"rule": 2, "set": 2, "wlist": 4, "scc": 2, "minimize": 2}


def _expect_int(value, what: str) -> int:
    if not isinstance(value, int):
        raise ReifyError(f"{what} must be an integer, got {value}")
    return value


class FactReader:
    """Validating decoder of a fact list; labels are kept as given.

    Each fact's predicate and argument count are checked against one
    table of predicates.  Every term goes through :meth:`decode`, which
    checks its functor against those its place allows and its argument
    count against one table of functors, so an integer or a foreign term
    where a term of the format belongs is a :class:`ReifyError`."""

    def __init__(self, facts):
        #: per rule fact: the head and body inside its pos wrappers
        self.rule_facts: list[tuple[Term, Term]] = []
        #: per conjunction label: its members as (negated, inner term)
        self.set_facts: dict[int, list[tuple[bool, Term]]] = {}
        #: per list label, by index: ((negated, atom term), weight)
        self.wlist_facts: dict[int, dict[int, tuple[tuple[bool, Term],
                                                    int]]] = {}
        self.scc_facts: list[tuple[int, Term]] = []
        self.minimize_facts: list[tuple[int, int]] = []
        for fact in facts:
            predicate, args = fact.predicate, fact.args
            if predicate not in _PREDICATES:
                raise ReifyError(f"unknown predicate in fact: {fact}")
            if len(args) != _PREDICATES[predicate]:
                raise ReifyError(
                    f"{predicate}/{_PREDICATES[predicate]} expected: {fact}")
            if predicate == "rule":
                self.rule_facts.append((
                    self.decode(args[0], ("pos",), "rule head")[1],
                    self.decode(args[1], ("pos",), "rule body")[1]))
            elif predicate == "set":
                self.set_facts.setdefault(
                    _expect_int(args[0], "set label"), []).append(
                    self.decode(args[1], _SIGN, "set member"))
            elif predicate == "wlist":
                entries = self.wlist_facts.setdefault(
                    _expect_int(args[0], "wlist label"), {})
                index = _expect_int(args[1], "wlist index")
                if index in entries:
                    raise ReifyError(
                        f"duplicate wlist index {index} in list {args[0]}")
                entries[index] = (self.decode(args[2], _SIGN, "wlist literal"),
                                  _expect_int(args[3], "wlist weight"))
            elif predicate == "scc":
                self.scc_facts.append(
                    (_expect_int(args[0], "scc label"), args[1]))
            else:
                self.minimize_facts.append(
                    (_expect_int(args[0], "minimize level"),
                     _expect_int(args[1], "minimize list label")))

    def decode(self, term, kinds: tuple[str, ...], what: str):
        """The value of ``term`` in a place that allows the functors
        ``kinds``: ``pos(X)`` or ``neg(X)`` as (negated, X), ``atom(a)``
        as an :class:`Atom`, ``sum(L,S,U)`` as a :class:`SumConstraint`
        over list ``S``, ``conjunction(S)`` as the body of the set facts
        of ``S``, and ``false`` as the empty head."""
        if (type(term) is not Term or term.functor not in kinds
                or len(term.args) != _ARITY[term.functor]):
            raise ReifyError(f"malformed {what}: {term}")
        functor, args = term.functor, term.args
        if functor in _SIGN:
            return functor == "neg", args[0]
        if functor == "atom":
            if type(args[0]) is not Term or args[0].args:
                raise ReifyError(f"malformed {what}: {term}")
            return Atom(args[0].functor)
        if functor == "sum":
            lower, label, upper = map(_expect_int, args, (
                "sum lower bound", "sum list label", "sum upper bound"))
            try:
                return SumConstraint(lower, self.weighted(label), upper)
            except ValueError as exc:
                raise ReifyError(str(exc)) from exc
        if functor == "conjunction":
            return tuple(
                BodyLiteral(self.decode(inner, ("atom", "sum"),
                                        "conjunction member"), negated)
                for negated, inner in self.set_facts.get(
                    _expect_int(args[0], "conjunction label"), ()))
        return Disjunction(())

    def weighted(self, label: int) -> tuple[WeightedLiteral, ...]:
        """The decoded entries of weighted-literal list ``label``."""
        if label not in self.wlist_facts:
            raise ReifyError(f"dangling wlist label {label}")
        by_index = self.wlist_facts[label]
        if sorted(by_index) != list(range(len(by_index))):
            raise ReifyError(
                f"wlist {label} indexes are not consecutive from 0")
        entries = (by_index[i] for i in range(len(by_index)))
        return tuple(
            WeightedLiteral(Literal(self.decode(inner, ("atom",), "literal"),
                                    negated), weight)
            for (negated, inner), weight in entries)

    def program(self) -> Program:
        """The program the facts describe; scc facts are not consulted."""
        rules = []
        for head, body in self.rule_facts:
            head = self.decode(head, ("atom", "sum", "false"), "rule head")
            rules.append(Rule(
                Disjunction((head,)) if type(head) is Atom else head,
                self.decode(body, ("conjunction",), "rule body")))
        entries = tuple(
            MinimizeEntry(wl.literal, wl.weight, level)
            for level, label in sorted(self.minimize_facts,
                                       key=lambda lv: lv[0])
            for wl in self.weighted(label))
        return Program(tuple(rules), MinimizeStatement(entries))

    def scc_members(self) -> set[tuple[int, Atom | Body | SumConstraint]]:
        """(component label, decoded member) pairs of the scc facts."""
        return {(label, self.decode(term, ("atom", "conjunction", "sum"),
                                    "scc member"))
                for label, term in self.scc_facts}


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
