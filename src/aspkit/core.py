"""Core syntax of ground extended/disjunctive logic programs.

Every value in this module is immutable after construction, compares
structurally, and is safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

_ATOM_NAME = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

#: Default cap on the number of atoms brute-force enumeration will accept.
DEFAULT_ATOM_CAP = 20


class CapExceededError(Exception):
    """A brute-force operation would exceed its configured size cap."""


class ContractViolationError(Exception):
    """An operation was applied outside its stated contract."""


def check_limit(limit: int | None) -> None:
    """Reject a result limit below 1; ``None`` means no limit."""
    if limit is not None and limit < 1:
        raise ContractViolationError(f"limit must be at least 1: {limit}")


@dataclass(frozen=True, order=True)
class Atom:
    """A propositional atom: a flat symbolic constant."""

    name: str

    def __post_init__(self) -> None:
        if not _ATOM_NAME.match(self.name):
            raise ValueError(f"invalid atom name: {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Literal:
    """An atom or its default negation."""

    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else self.atom.name

    def negate(self) -> "Literal":
        return Literal(self.atom, not self.negated)


@dataclass(frozen=True)
class WeightedLiteral:
    """One ``literal=weight`` occurrence inside a sum constraint or list."""

    literal: Literal
    weight: int = 1

    def __str__(self) -> str:
        return f"{self.literal}={self.weight}"


@dataclass(frozen=True)
class SumConstraint:
    """``L #sum[l1=w1,...,lk=wk] U`` over an ordered multiset of entries.

    Duplicate entries are permitted and significant.  An absent lower
    bound acts as 0, an absent upper bound is never violated.  Weights
    must be non-negative (weights of minimize entries are kept outside
    this type and may be negative).
    """

    lower: int | None
    elements: tuple[WeightedLiteral, ...]
    upper: int | None = None

    def __post_init__(self) -> None:
        for wl in self.elements:
            if wl.weight < 0:
                raise ValueError(f"negative weight in sum constraint: {wl}")

    @property
    def total(self) -> int:
        """Sum of all element weights."""
        return sum(wl.weight for wl in self.elements)

    def __str__(self) -> str:
        body = ",".join(str(wl) for wl in self.elements)
        parts = []
        if self.lower is not None:
            parts.append(str(self.lower))
        parts.append(f"#sum[{body}]")
        if self.upper is not None:
            parts.append(str(self.upper))
        return " ".join(parts)


@dataclass(frozen=True)
class Disjunction:
    """A (possibly empty) disjunction of atoms; empty means falsity."""

    atoms: tuple[Atom, ...] = ()

    def __str__(self) -> str:
        return " | ".join(a.name for a in self.atoms)


#: A rule head is a disjunction of atoms or a sum constraint.
Head = Union[Disjunction, SumConstraint]


@dataclass(frozen=True)
class BodyLiteral:
    """A body component (atom or sum constraint), possibly negated."""

    element: Atom | SumConstraint
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.element}" if self.negated else str(self.element)


#: A rule body: an ordered conjunction of body literals.
Body = tuple[BodyLiteral, ...]


@dataclass(frozen=True)
class Rule:
    """``head :- body`` (a fact when the body is empty)."""

    head: Head
    body: Body = ()

    def __str__(self) -> str:
        head = str(self.head)
        if not self.body:
            return f"{head}." if head else ":-."
        body = ", ".join(str(bl) for bl in self.body)
        return f"{head} :- {body}." if head else f":- {body}."


@dataclass(frozen=True)
class MinimizeEntry:
    """One ``literal=weight@level`` occurrence of a minimize statement."""

    literal: Literal
    weight: int = 1
    level: int = 1

    def __str__(self) -> str:
        return f"{self.literal}={self.weight}@{self.level}"


@dataclass(frozen=True)
class MinimizeStatement:
    """An ordered multiset of weighted, prioritized literals (may be empty)."""

    entries: tuple[MinimizeEntry, ...] = ()

    def levels(self) -> tuple[int, ...]:
        """Occurring priority levels, ascending."""
        return tuple(sorted({e.level for e in self.entries}))

    def group(self, level: int, weight: int) -> tuple[MinimizeEntry, ...]:
        """Occurrences carrying exactly this level and weight, in order."""
        return tuple(e for e in self.entries
                     if e.level == level and e.weight == weight)

    def group_keys(self) -> tuple[tuple[int, int], ...]:
        """Distinct (level, weight) pairs, sorted."""
        return tuple(sorted({(e.level, e.weight) for e in self.entries}))


@dataclass(frozen=True)
class Program:
    """Ground rules plus one (possibly empty) minimize statement."""

    rules: tuple[Rule, ...] = ()
    minimize: MinimizeStatement = field(default_factory=MinimizeStatement)


#: An interpretation is the set of atoms it entails.
Interpretation = frozenset[Atom]

CRITERIA = ("card", "incl", "pref")


@dataclass(frozen=True)
class CriteriaSet:
    """Active comparison relations keyed by (level, weight), plus the
    literal preference relation used by ``pref`` criteria.

    The preference relation is used exactly as given; no closure is
    applied.  Call :meth:`with_prefer_closure` to opt into comparing
    under the reflexive-transitive closure instead.
    """

    relations: tuple[tuple[int, int, str], ...] = ()
    prefer: tuple[tuple[Literal, Literal], ...] = ()

    def __post_init__(self) -> None:
        seen: dict[tuple[int, int], str] = {}
        for level, weight, criterion in self.relations:
            if criterion not in CRITERIA:
                raise ValueError(f"unknown criterion: {criterion!r}")
            prev = seen.get((level, weight))
            if prev is not None and prev != criterion:
                raise ValueError(
                    f"conflicting criteria at level {level}, weight {weight}")
            seen[(level, weight)] = criterion

    def criterion_at(self, level: int, weight: int) -> str | None:
        for lv, w, criterion in self.relations:
            if (lv, w) == (level, weight):
                return criterion
        return None

    def levels(self) -> tuple[int, ...]:
        """Occurring criterion levels, descending (most significant first)."""
        return tuple(sorted({lv for lv, _, _ in self.relations}, reverse=True))

    def prefers(self, first: Literal, second: Literal) -> bool:
        return (first, second) in set(self.prefer)

    def with_prefer_closure(self) -> "CriteriaSet":
        """Same criteria with the preference relation closed under
        reflexivity and transitivity over the literals it mentions."""
        lits = sorted({l for pair in self.prefer for l in pair})
        closed = {(l, l) for l in lits} | set(self.prefer)
        changed = True
        while changed:
            changed = False
            for a, b in list(closed):
                for c, d in list(closed):
                    if b == c and (a, d) not in closed:
                        closed.add((a, d))
                        changed = True
        return CriteriaSet(self.relations, tuple(sorted(closed)))


def atoms(program: Program) -> frozenset[Atom]:
    """All atoms occurring in any head, body, or minimize entry."""
    found: set[Atom] = set()
    for rule in program.rules:
        found |= atoms_of(rule.head)
        for bl in rule.body:
            element = bl.element
            found |= {element} if isinstance(element, Atom) else atoms_of(element)
    for entry in program.minimize.entries:
        found.add(entry.literal.atom)
    return frozenset(found)


def positive_part(x: Body | Disjunction | SumConstraint):
    """Positive projection: the positive components of a body, the atom
    set of a disjunction, or the positively signed entries of a sum."""
    if isinstance(x, Disjunction):
        return frozenset(x.atoms)
    if isinstance(x, SumConstraint):
        return tuple(wl for wl in x.elements if not wl.literal.negated)
    if isinstance(x, tuple):
        return tuple(bl.element for bl in x if not bl.negated)
    raise TypeError(f"no positive projection for {type(x).__name__}")


def atoms_of(x) -> frozenset[Atom]:
    """The atoms underlying a disjunction, sum constraint, body, or
    collection of (weighted) literals, with signs and weights stripped."""
    if isinstance(x, Atom):
        return frozenset((x,))
    if isinstance(x, Disjunction):
        return frozenset(x.atoms)
    if isinstance(x, SumConstraint):
        return frozenset(wl.literal.atom for wl in x.elements)
    out: set[Atom] = set()
    for item in x:
        if isinstance(item, Atom):
            out.add(item)
        elif isinstance(item, WeightedLiteral):
            out.add(item.literal.atom)
        elif isinstance(item, Literal):
            out.add(item.atom)
        elif isinstance(item, BodyLiteral):
            element = item.element
            out |= {element} if isinstance(element, Atom) else atoms_of(element)
        else:
            raise TypeError(f"cannot extract atoms from {type(item).__name__}")
    return frozenset(out)


def _materialize(sc: SumConstraint) -> SumConstraint:
    lower = 0 if sc.lower is None else sc.lower
    upper = sc.total if sc.upper is None else sc.upper
    return SumConstraint(lower, sc.elements, upper)


def normalize(program: Program) -> Program:
    """Canonical form: trivial sum bounds made explicit (absent lower
    becomes 0, absent upper the total weight) and minimize entries
    stably grouped by ascending level."""
    rules = []
    for rule in program.rules:
        head = rule.head
        if isinstance(head, SumConstraint):
            head = _materialize(head)
        body = tuple(
            BodyLiteral(_materialize(bl.element), bl.negated)
            if isinstance(bl.element, SumConstraint) else bl
            for bl in rule.body)
        rules.append(Rule(head, body))
    entries = tuple(sorted(program.minimize.entries, key=lambda e: e.level))
    return Program(tuple(rules), MinimizeStatement(entries))


def is_extended(program: Program) -> bool:
    """True if no rule head is a proper disjunction (more than one atom)."""
    return all(
        not isinstance(r.head, Disjunction) or len(r.head.atoms) <= 1
        for r in program.rules)
