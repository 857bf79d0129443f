"""Satisfaction and answer-set enumeration.

Answer sets follow choice semantics for sum constraints and
minimal-model semantics for disjunctions: an interpretation is an
answer set if it is a model of the program and a minimal model of its
own reduct.  Every answer-set check runs on the program compiled to
bitmasks (:mod:`aspkit.compiled`); :func:`satisfies` and
:func:`is_model` evaluate the syntax objects, for library callers and
tests: no command uses them.

:func:`answer_set_masks` searches the compiled program with
:class:`aspkit.compiled.Search`: depth first, with completion
propagation, and a complete assignment compared with the least model
of its reduct only when it makes an atom true that may lie on a
positive loop.  With a proper disjunction, every complete assignment
but the empty one is tested for minimality on the masks instead.
The answer sets stay masks, sorted canonically, so that
:mod:`aspkit.optimize` scores them without decoding;
:func:`enumerate_answer_sets` decodes the ones it returns.
:func:`is_answer_set` checks one interpretation on its mask.
"""

from __future__ import annotations

from .compiled import CompiledProgram, Search, canonical_masks
from .core import (
    DEFAULT_ATOM_CAP,
    Atom,
    BodyLiteral,
    CapExceededError,
    Disjunction,
    Interpretation,
    Literal,
    Program,
    Rule,
    SumConstraint,
    atoms,
    check_limit,
)


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


def is_model(x: Interpretation, program: Program) -> bool:
    return all(satisfies(x, rule) for rule in program.rules)


def compile_program(program: Program) -> CompiledProgram:
    """``program`` compiled over its atoms in name order, so that mask
    order is canonical order."""
    return CompiledProgram(program.rules, sorted(atoms(program)))


def is_answer_set_mask(compiled: CompiledProgram, x: int, cap: int) -> bool:
    """Whether the mask ``x`` is an answer set of ``compiled``.  With a
    proper disjunction, which takes the minimality search, a model of
    more than ``cap`` atoms is refused."""
    if not compiled.extended and x.bit_count() > cap \
            and compiled.is_model(x):
        raise CapExceededError(
            f"minimal-model check over {x.bit_count()} atoms exceeds cap {cap}")
    return compiled.is_answer_set(x)


def is_answer_set(x: Interpretation, program: Program,
                  cap: int = DEFAULT_ATOM_CAP) -> bool:
    """Whether ``x`` is an answer set of ``program``; an atom the program
    does not mention never is in one."""
    compiled = compile_program(program)
    mask = compiled.encode(x)
    return mask is not None and is_answer_set_mask(compiled, mask, cap)


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
    # bit order is name order, so this is canonical_order on the sets
    return compiled, canonical_masks(Search(compiled).answer_sets())


def enumerate_answer_sets(program: Program, limit: int | None = None,
                          cap: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """All answer sets in canonical order, truncated at ``limit``."""
    check_limit(limit)
    compiled, masks = answer_set_masks(program, cap)
    return [compiled.decode(x) for x in masks[:limit]]
