"""Satisfaction, reducts, and answer-set enumeration.

Answer sets follow choice semantics for sum constraints and
minimal-model semantics for disjunctions: an interpretation is an
answer set if it is a model of the program and a minimal model of its
own reduct.

:func:`answer_set_masks` searches the program compiled to bitmasks
with :class:`aspkit.compiled.Search`: depth first, with completion
propagation, and a complete assignment compared with the least model
of its reduct only when it makes an atom true that may lie on a
positive loop.  Programs with a proper disjunction take the compiled
model check and the subset-minimality check there instead.  The answer
sets stay masks, sorted canonically, so that :mod:`aspkit.optimize`
scores them without decoding; :func:`enumerate_answer_sets` decodes the
ones it returns.  :func:`is_answer_set` and :func:`is_minimal_model`
check minimality by exhaustive subset enumeration on the syntax
objects, so they stay an independent oracle for the compiled check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .compiled import CompiledProgram, Search, canonical_masks
from .core import (
    DEFAULT_ATOM_CAP,
    Atom,
    Body,
    BodyLiteral,
    CapExceededError,
    Disjunction,
    Interpretation,
    Literal,
    Program,
    Rule,
    SumConstraint,
    atoms,
    atoms_of,
    check_limit,
    positive_part,
)


@dataclass(frozen=True)
class PositiveProgram:
    """Reduct shape: no negated body literals, no upper bounds, and
    disjunction heads only (sum heads collapse to single atoms)."""

    rules: tuple[Rule, ...] = ()

    def __post_init__(self) -> None:
        for rule in self.rules:
            if not isinstance(rule.head, Disjunction):
                raise ValueError("positive program heads must be disjunctions")
            for bl in rule.body:
                if bl.negated:
                    raise ValueError("positive program bodies must not use negation")
                if isinstance(bl.element, SumConstraint):
                    if bl.element.upper is not None:
                        raise ValueError("positive program sums must drop upper bounds")
                    if any(wl.literal.negated for wl in bl.element.elements):
                        raise ValueError("positive program sums must be negation-free")


def satisfies(x: Interpretation, e) -> bool:
    """The inductive satisfaction relation on literals, disjunctions,
    sum constraints, body literals, bodies, and rules."""
    if isinstance(e, Atom):
        return e in x
    if isinstance(e, Literal):
        return (e.atom not in x) if e.negated else (e.atom in x)
    if isinstance(e, Disjunction):
        return any(a in x for a in e.atoms)
    if isinstance(e, SumConstraint):
        weight = sum(wl.weight for wl in e.elements if satisfies(x, wl.literal))
        if weight < (e.lower if e.lower is not None else 0):
            return False
        return e.upper is None or weight <= e.upper
    if isinstance(e, BodyLiteral):
        holds = satisfies(x, e.element)
        return not holds if e.negated else holds
    if isinstance(e, tuple):
        return all(satisfies(x, bl) for bl in e)
    if isinstance(e, Rule):
        return satisfies(x, e.head) or not satisfies(x, e.body)
    raise TypeError(f"satisfaction undefined for {type(e).__name__}")


def is_model(x: Interpretation, program: Program | PositiveProgram) -> bool:
    return all(satisfies(x, rule) for rule in program.rules)


def _reduce_body(body: Body, x: Interpretation) -> Body:
    reduced: list[BodyLiteral] = []
    for element in positive_part(body):
        if isinstance(element, Atom):
            reduced.append(BodyLiteral(element))
            continue
        # Lower bound shrinks by the weight of negative entries satisfied
        # through absence; it may go negative and is kept as computed.
        lower = element.lower if element.lower is not None else 0
        lower -= sum(wl.weight for wl in element.elements
                     if wl.literal.negated and wl.literal.atom not in x)
        reduced.append(BodyLiteral(
            SumConstraint(lower, positive_part(element), None)))
    return tuple(reduced)


def reduct(program: Program, x: Interpretation) -> PositiveProgram:
    """The reduct: rules with satisfied bodies, sum heads replaced by
    their true positive atoms, negative body parts dropped, and residual
    lower bounds reduced accordingly."""
    out: list[Rule] = []
    for rule in program.rules:
        if not satisfies(x, rule.body):
            continue
        body = _reduce_body(rule.body, x)
        if isinstance(rule.head, Disjunction):
            out.append(Rule(rule.head, body))
        else:
            for atom in sorted(atoms_of(positive_part(rule.head)) & x):
                out.append(Rule(Disjunction((atom,)), body))
    return PositiveProgram(tuple(out))


def is_minimal_model(x: Interpretation, program: PositiveProgram,
                     cap: int = DEFAULT_ATOM_CAP) -> bool:
    """True iff ``x`` is a model and no proper subset is one; checked by
    exhaustive enumeration of the 2^|x| subsets."""
    if len(x) > cap:
        raise CapExceededError(
            f"minimal-model check over {len(x)} atoms exceeds cap {cap}")
    if not is_model(x, program):
        return False
    members = sorted(x)
    # Smallest subsets first: non-minimal models usually fail fast.
    for size in range(len(members)):
        for sub in combinations(members, size):
            if is_model(frozenset(sub), program):
                return False
    return True


def is_answer_set(x: Interpretation, program: Program,
                  cap: int = DEFAULT_ATOM_CAP) -> bool:
    return is_model(x, program) and is_minimal_model(x, reduct(program, x), cap)


def canonical_order(interpretations) -> list[Interpretation]:
    """Sort interpretations lexicographically by their sorted atom names."""
    return sorted(interpretations, key=lambda s: tuple(sorted(a.name for a in s)))


def answer_set_masks(program: Program, cap: int = DEFAULT_ATOM_CAP
                     ) -> tuple[CompiledProgram, list[int]]:
    """The program compiled over its atoms in name order, and all its
    answer sets as masks of that program, in canonical order."""
    universe = sorted(atoms(program))
    if len(universe) > cap:
        raise CapExceededError(
            f"{len(universe)} atoms exceed enumeration cap {cap}")
    compiled = CompiledProgram(program.rules, universe)
    stable = None
    if not compiled.extended:
        def stable(mask: int) -> bool:
            if not compiled.is_model(mask):
                return False
            x = compiled.decode(mask)
            return is_minimal_model(x, reduct(program, x), cap)
    # bit order is name order, so this is canonical_order on the sets
    return compiled, canonical_masks(Search(compiled, stable).answer_sets())


def enumerate_answer_sets(program: Program, limit: int | None = None,
                          cap: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """All answer sets in canonical order, truncated at ``limit``."""
    check_limit(limit)
    compiled, masks = answer_set_masks(program, cap)
    return [compiled.decode(x) for x in masks[:limit]]
