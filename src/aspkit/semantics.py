"""Answer-set checks and enumeration.

Answer sets follow choice semantics for sum constraints and
minimal-model semantics for disjunctions: an interpretation is an
answer set if it is a model of the program and a minimal model of its
own reduct.  The library evaluates a program in one way only: compiled
to bitmasks (:mod:`aspkit.compiled`) over :func:`universe`, its atoms in
name order, so that mask order is canonical order.  The set-level
evaluation on syntax objects is the tests' oracle.

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
    CapExceededError,
    Interpretation,
    Program,
    atoms,
    check_limit,
    sorted_atoms,
)


def universe(program: Program, cap: int | None = None) -> list[Atom]:
    """The atoms of ``program`` in name order; more than ``cap`` of them
    exceed the enumeration cap."""
    found = sorted_atoms(atoms(program))
    if cap is not None and len(found) > cap:
        raise CapExceededError(
            f"{len(found)} atoms exceed enumeration cap {cap}")
    return found


def compile_program(program: Program) -> CompiledProgram:
    """``program`` compiled over its :func:`universe`."""
    return CompiledProgram(program.rules, universe(program))


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
    compiled = CompiledProgram(program.rules, universe(program, cap))
    # bit order is name order, so this is canonical_order on the sets
    return compiled, canonical_masks(Search(compiled).answer_sets())


def enumerate_answer_sets(program: Program, limit: int | None = None,
                          cap: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """All answer sets in canonical order, truncated at ``limit``."""
    check_limit(limit)
    compiled, masks = answer_set_masks(program, cap)
    return [compiled.decode(x) for x in masks[:limit]]
