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
whose entries equal a sum's elements names that sum's list.

The one reified form is :class:`Tables`: the canonical labels kept as
tables of plain keys, with each sum's entries, the components' members
and the positive support of each head and sum.  Three front ends fill
them, all through the same builder methods: :func:`reify_source` from
program text, by the grammar walk of
:func:`~aspkit.parser.parse_program` with table keys for nodes, so no
syntax object is made; :func:`reify` from a program; and
:func:`text_to_facts` from fact text, so facts whose labels differ from
the canonical ones are read into the canonical tables.
:func:`facts_to_text` writes the facts from the tables in one pass,
making the text of each distinct term once; :func:`parse_reified`
decodes the tables to a program; the meta build reads them as they
are.  Proper disjunction heads and sums with no entries (no wlist/4
fact could name their list; only the library API builds them) are
outside this format: :func:`reify` rejects both, and
:func:`reify_source` rejects a proper disjunction once the whole text
is read, so that any syntax error comes first.

:func:`text_to_facts` reads the format's fixed grammar, so a fact, or a
term inside one, that does not fit its place is a
:class:`~aspkit.parser.ParseError` at its token.  It then resolves the
labels: a dangling list label, a gap or a duplicate among a list's
indexes, a negative weight in a sum's list, and scc facts that differ
from the components recomputed from the rules are each a
:class:`ReifyError`.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import consequence
from .core import (
    Atom,
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
)
from .parser import (
    _Failure,
    _ProgramReader,
    _expected,
    _int,
    _is_name,
    _read,
    _take,
)


class ReifyError(Exception):
    """Malformed or inconsistent reified facts."""


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
    labels are assigned.  :func:`reify_source`, :func:`reify` and
    :func:`text_to_facts` fill them through :meth:`add_sum`,
    :meth:`add_rule`, :meth:`add_minimize` and :meth:`add_sccs`;
    :func:`facts_to_text` writes the facts from them and the meta build
    reads them.  Two tables are equal when they
    describe the same facts."""

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

    def __len__(self) -> int:
        """The number of facts the tables describe."""
        return (len(self.rules) + sum(map(len, self.conjunctions))
                + sum(map(len, self.lists)) + sum(map(len, self.components))
                + len(self.minimize))

    def __eq__(self, other) -> bool:
        return type(other) is Tables and vars(self) == vars(other)

    def _list(self, entries: tuple[Entry, ...]) -> int:
        """The label of a weighted-literal list: a sum's elements or one
        minimize level's entries, which therefore share labels."""
        label = self._list_labels.get(entries)
        if label is None:
            label = self._list_labels[entries] = len(self.lists)
            self.lists.append(entries)
        return label

    def add_sum(self, lower: int | None, entries: tuple[Entry, ...],
                upper: int | None) -> tuple[int, int, int]:
        """The key of the sum of ``entries`` within ``lower`` and
        ``upper``, an absent bound materialized: 0 as lower, the total
        weight as upper."""
        if lower is None:
            lower = 0
        if upper is None:
            upper = sum([weight for _, _, weight in entries])
        label = self._list(entries)
        key = lower, label, upper
        self.sums.setdefault(key, self.lists[label])
        return key

    def group_keys(self) -> list[tuple[int, int]]:
        """The distinct (level, weight) keys of the minimize entries,
        sorted."""
        return sorted({(level, weight)
                       for level, label in self.minimize.items()
                       for _, _, weight in self.lists[label]})

    def support(self, inner: Inner | None) -> tuple[str, ...]:
        """Names of the atoms occurring positively in a head or sum, in
        order, each once."""
        if type(inner) is str:
            return (inner,)
        if inner is None:
            return ()
        return tuple(dict.fromkeys(
            name for negated, name, _ in self.sums[inner] if not negated))

    def add_rule(self, head: Inner | None,
                 members: tuple[tuple[bool, Inner], ...]) -> None:
        """The next rule: its head and its conjunction's members, sums
        by the keys :meth:`add_sum` gave."""
        label = self._conj_labels.get(members)
        if label is None:
            label = self._conj_labels[members] = len(self.conjunctions)
            self.conjunctions.append(members)
        self.rules.append((head, label))

    def add_minimize(self, entries: Iterable[tuple[int, Entry]]) -> None:
        """The minimize lists from the (level, entry) pairs of the
        minimize entries in order: one list per level, ascending."""
        levels: dict[int, list[Entry]] = {}
        for level, entry in entries:
            levels.setdefault(level, []).append(entry)
        for level in sorted(levels):
            self.minimize[level] = self._list(tuple(levels[level]))

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


#: The refusal of a program with a proper disjunction head.
_EXTENDED_ONLY = ("only extended programs (no proper disjunctions) can be "
                  "reified")


def reify(program: Program) -> Tables:
    """The canonical labels of ``program`` as tables; no fact or term is
    made."""
    built = Tables()
    add_sum = built.add_sum

    def sum_key(sc: SumConstraint) -> tuple[int, int, int]:
        if not sc.elements:
            raise ContractViolationError(f"empty sums cannot be reified: {sc}")
        return add_sum(sc.lower, tuple(
            (wl.literal.negated, wl.literal.atom.name, wl.weight)
            for wl in sc.elements), sc.upper)

    for rule in program.rules:
        head = rule.head
        if type(head) is Disjunction:
            if len(head.atoms) > 1:
                raise ContractViolationError(_EXTENDED_ONLY)
            head = head.atoms[0].name if head.atoms else None
        else:
            head = sum_key(head)
        built.add_rule(head, tuple(
            (bl.negated, bl.element.name if type(bl.element) is Atom
             else sum_key(bl.element))
            for bl in rule.body))
    built.add_minimize(
        (e.level, (e.literal.negated, e.literal.atom.name, e.weight))
        for e in program.minimize.entries)
    built.add_sccs()
    return built


class _TableReader(_ProgramReader):
    """The grammar walk of :func:`~aspkit.parser.parse_program` with
    table keys for nodes: an atom is its name, a literal (negated,
    name), a weighted literal or minimize entry a list entry (the
    latter with its level), a sum its key, and each rule goes straight
    into the tables.  A proper disjunction is refused once the whole
    text is read, so every syntax error comes first."""

    make_atom = str
    make_literal = staticmethod(lambda atom, negated: (negated, atom))
    make_weighted = staticmethod(lambda literal, weight: (*literal, weight))
    make_body_literal = staticmethod(
        lambda element, negated: (negated, element))
    make_minimize_entry = staticmethod(
        lambda literal, weight, level: (level, (*literal, weight)))
    falsity = None

    def __init__(self, tokens: list[str]):
        super().__init__(tokens)
        self.tables = Tables()
        self.make_sum = self.tables.add_sum
        self.make_rule = self.tables.add_rule
        self.disjunctive = False

    def make_disjunction(self, atoms: tuple[str, ...]) -> str:
        self.disjunctive |= len(atoms) > 1
        return atoms[0]

    def finish(self, rules, minimize) -> Tables:
        if self.disjunctive:
            raise ContractViolationError(_EXTENDED_ONLY)
        self.tables.add_minimize(minimize)
        self.tables.add_sccs()
        return self.tables


def reify_source(text: str) -> Tables:
    """The canonical tables of program text, equal to
    ``reify(parse_program(text))`` and raising what that raises, with no
    syntax object made."""
    return _read(text, lambda tokens: _TableReader(tokens).program())


def facts_to_text(labels: Tables) -> str:
    """The facts the tables describe (deterministic), one a line,
    written in one pass in the order of first use: each rule fact is
    followed by the list facts of a head sum and the set facts of a
    conjunction seen first there, each set fact by the list facts of
    its sum if seen first there; then the scc facts; then each minimize
    fact with its list facts if seen first there.  The text of each
    distinct atom, sum and conjunction term is made once, keyed by its
    table key."""
    terms: dict[Inner | int | None, str] = {None: "false"}
    terms.update({name: f"atom({name})" for name in labels.names})
    terms.update({key: "sum(%d,%d,%d)" % key for key in labels.sums})
    terms.update({label: f"conjunction({label})"
                  for label in range(len(labels.conjunctions))})
    # each list's facts by label, popped where the list is first used
    wlists = {label: "".join([
        f"wlist({label},{index},{_SIGN[negated]}({terms[name]}),{weight}).\n"
        for index, (negated, name, weight) in enumerate(entries)])
        for label, entries in enumerate(labels.lists)}
    lines: list[str] = []
    placed = 0   # conjunction labels are given in order of first use
    for head, label in labels.rules:
        lines.append(f"rule(pos({terms[head]}),pos({terms[label]})).\n")
        if type(head) is tuple:
            lines.append(wlists.pop(head[1], ""))
        if label == placed:
            placed += 1
            for negated, inner in labels.conjunctions[label]:
                lines.append(
                    f"set({label},{_SIGN[negated]}({terms[inner]})).\n")
                if type(inner) is tuple:
                    lines.append(wlists.pop(inner[1], ""))
    for component, found in enumerate(labels.components):
        lines += [f"scc({component},{terms[key]}).\n" for key in found]
    for level, label in labels.minimize.items():
        lines.append(f"minimize({level},{label}).\n")
        lines.append(wlists.pop(label, ""))
    return "".join(lines)


def parse_reified(labels: Tables) -> Program:
    """The program the tables describe, in normal form (see
    :func:`aspkit.core.normalize`)."""
    atoms = {name: Atom(name) for name in labels.names}
    lists = [tuple(WeightedLiteral(Literal(atoms[name], negated), weight)
                   for negated, name, weight in entries)
             for entries in labels.lists]
    sums = {key: SumConstraint(key[0], lists[key[1]], key[2])
            for key in labels.sums}
    heads = {name: Disjunction((atom,)) for name, atom in atoms.items()}
    heads[None] = Disjunction(())
    heads.update(sums)
    bodies = [tuple(BodyLiteral(atoms[inner] if type(inner) is str
                                else sums[inner], negated)
                    for negated, inner in members)
              for members in labels.conjunctions]
    return Program(
        tuple(Rule(heads[head], bodies[label])
              for head, label in labels.rules),
        MinimizeStatement(tuple(
            MinimizeEntry(wl.literal, wl.weight, level)
            for level, label in labels.minimize.items()
            for wl in lists[label])))


# -- reading fact text ---------------------------------------------------------

#: Each predicate's tokens after its name, up to its ``.``: a token to
#: match, ``int`` for an integer, or the functors a term there allows.
_FACTS = {
    "rule": ["(", "pos", "(", ("atom", "sum", "false"), ")", ",", "pos",
             "(", "conjunction", "(", int, ")", ")", ")"],
    "set": ["(", int, ",", _SIGN, "(", ("atom", "sum"), ")", ")"],
    "wlist": ["(", int, ",", int, ",", _SIGN, "(", ("atom",), ")", ",", int,
              ")"],
    "scc": ["(", int, ",", ("atom", "conjunction", "sum"), ")"],
    "minimize": ["(", int, ",", int, ")"],
}


def _argument(tokens: list[str], i: int, allowed: tuple[str, ...]):
    """The term at token ``i``, one of the functors ``allowed``, and the
    index after it: ``atom(a)`` as its name, ``sum(L,S,U)`` as (L, S, U),
    ``conjunction(S)`` as S, ``false`` as None, and the functor alone of
    ``pos`` or ``neg`` as whether it is ``neg``."""
    functor = tokens[i]
    if functor not in allowed:
        raise _Failure("expected " + " or ".join(map(repr, allowed))
                       + f", found {functor!r}", i)
    if functor == "false":
        return None, i + 1
    if functor in _SIGN:
        return functor == "neg", i + 1
    i = _take(tokens, i + 1, "(")
    if functor == "atom":
        if not _is_name(tokens[i]):
            raise _expected("name", tokens, i)
        value = tokens[i]
    elif functor == "conjunction":
        value = _int(tokens, i)
    else:
        value = (_int(tokens, i), _int(tokens, _take(tokens, i + 1, ",")),
                 _int(tokens, _take(tokens, i + 3, ",")))
        i += 4
    return value, _take(tokens, i + 1, ")")


class _Given:
    """The facts of a text by predicate, their labels as given, read
    from its tokens."""

    def __init__(self, tokens: list[str]):
        #: per rule fact: its head and conjunction label
        self.rules: list[tuple[Inner | None, int]] = []
        #: per conjunction label: its members
        self.sets: dict[int, list[tuple[bool, Inner]]] = {}
        #: per list label, by index: the entry
        self.wlists: dict[int, dict[int, Entry]] = {}
        #: (component label, member) per scc fact
        self.sccs: list[tuple[int, Inner | int]] = []
        #: (level, list label) per minimize fact
        self.minimize: list[tuple[int, int]] = []
        i = 0
        while tokens[i]:
            predicate = tokens[i]
            if predicate not in _FACTS:
                raise _Failure(f"unknown predicate {predicate!r}", i)
            i += 1
            values = []
            for want in _FACTS[predicate]:
                if type(want) is str:
                    i = _take(tokens, i, want)
                elif want is int:
                    values.append(_int(tokens, i))
                    i += 1
                else:
                    value, i = _argument(tokens, i, want)
                    values.append(value)
            i = _take(tokens, i, ".")
            if predicate == "rule":
                self.rules.append(tuple(values))
            elif predicate == "set":
                self.sets.setdefault(values[0], []).append(tuple(values[1:]))
            elif predicate == "wlist":
                label, index, *entry = values
                entries = self.wlists.setdefault(label, {})
                if index in entries:
                    raise ReifyError(
                        f"duplicate wlist index {index} in list {label}")
                entries[index] = tuple(entry)
            elif predicate == "scc":
                self.sccs.append(tuple(values))
            else:
                self.minimize.append(tuple(values))

    def entries(self, label: int) -> tuple[Entry, ...]:
        """The entries of list ``label``, by index."""
        by_index = self.wlists.get(label)
        if by_index is None:
            raise ReifyError(f"dangling wlist label {label}")
        found = tuple(map(by_index.get, range(len(by_index))))
        if None in found:
            raise ReifyError(
                f"wlist {label} indexes are not consecutive from 0")
        return found

    def add_sum(self, built: Tables, lower: int, label: int,
                upper: int) -> tuple[int, int, int]:
        entries = self.entries(label)
        for negated, name, weight in entries:
            if weight < 0:
                raise ReifyError(
                    "negative weight in sum constraint: "
                    f"{'not ' if negated else ''}{name}={weight}")
        return built.add_sum(lower, entries, upper)

    def members(self, built: Tables,
                label: int) -> tuple[tuple[bool, Inner], ...]:
        """The members of conjunction ``label``, sums by their keys in
        ``built``; a conjunction with no set facts is empty."""
        return tuple((negated, self.add_sum(built, *inner)
                      if type(inner) is tuple else inner)
                     for negated, inner in self.sets.get(label, ()))

    def tables(self) -> Tables:
        """The canonical tables, filled in the order :func:`reify` fills
        them, and the scc facts checked against their components.  An
        scc member is looked up by adding it: one that adds a label is
        in no component, so the check fails."""
        built = Tables()
        for head, label in self.rules:
            if type(head) is tuple:
                head = self.add_sum(built, *head)
            built.add_rule(head, self.members(built, label))
        built.add_minimize((level, entry) for level, label in self.minimize
                           for entry in self.entries(label))
        built.add_sccs()
        given = {(component, member if type(member) is str
                  else self.add_sum(built, *member) if type(member) is tuple
                  else built._conj_labels.get(self.members(built, member)))
                 for component, member in self.sccs}
        if given != {(component, key)
                     for component, found in enumerate(built.components)
                     for key in found}:
            raise ReifyError("scc facts are inconsistent with the recomputed "
                             "dependency decomposition")
        return built


def text_to_facts(text: str) -> Tables:
    """The canonical tables of fact text, whatever its labels; a syntax
    error carries its source span."""
    return _read(text, lambda tokens: _Given(tokens).tables())
