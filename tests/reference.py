"""Reference routes that the tests compare aspkit's engines with; no
command line path uses them.

The immediate consequence operator on syntax objects is a second
answer-set route beside the compiled least-model check and the
subset-minimality oracle.  The brute-force loops try every
interpretation, or every hold-projection of a meta candidate, with the
compiled checks, as enumeration did before it searched."""

from __future__ import annotations

from aspkit.compiled import CompiledProgram
from aspkit.consequence import dependency_graph, sccs
from aspkit.core import Atom, ContractViolationError, Interpretation, Program, atoms
from aspkit.semantics import (
    PositiveProgram,
    canonical_order,
    is_minimal_model,
    is_model,
    reduct,
    satisfies,
)


def tp_step(program: PositiveProgram, x: Interpretation) -> frozenset:
    """Heads of rules whose bodies ``x`` satisfies."""
    return frozenset(r.head for r in program.rules if satisfies(x, r.body))


def tp_iterate(program: PositiveProgram, seed: Interpretation,
               steps: int) -> Interpretation:
    """Iterate the consequence operator ``steps`` times from ``seed``,
    accumulating derived atoms.  Only single-atom heads may arise."""
    current = frozenset(seed)
    for _ in range(steps):
        derived = set(current)
        for head in tp_step(program, current):
            if len(head.atoms) != 1:
                raise ContractViolationError(
                    f"non-atomic head {head!r} in fixpoint iteration")
            derived.add(head.atoms[0])
        if derived == current:
            break
        current = frozenset(derived)
    return current


def scc_fixpoint_check(program: Program, x: Interpretation) -> bool:
    """SCC-localized answer-set check: for a model, iterate the operator
    on the reduct once per component (seeded with everything outside it)
    and require the union of the local results to reproduce ``x``."""
    if not is_model(x, program):
        return False
    decomposition = sccs(dependency_graph(program), program)
    reduced = reduct(program, x)
    covered: set[Atom] = set()
    for component in decomposition.components:
        local = tp_iterate(reduced, x - component.atoms, len(component.atoms))
        covered |= local & component.atoms
    return covered == x



def brute_answer_sets(program: Program) -> list[Interpretation]:
    """Every interpretation that passes the compiled least-model check,
    or without it, for proper disjunctions, the compiled model check and
    subset minimality on the reduct; in canonical order."""
    compiled = CompiledProgram(program.rules, sorted(atoms(program)))

    def stable(mask: int) -> bool:
        if compiled.extended:
            return compiled.is_answer_set(mask)
        x = compiled.decode(mask)
        return compiled.is_model(mask) and is_minimal_model(
            x, reduct(program, x))

    return canonical_order(compiled.decode(mask)
                           for mask in range(1 << len(compiled.atoms))
                           if stable(mask))


def brute_stable_candidates(solver) -> list[int]:
    """The candidate-side masks of a meta solver's stable candidates, by
    hold-projection in mask order: each projection's hold atoms closed
    by one pass over the candidate definitions, which are ordered sums
    before conjunctions, kept when the candidate part's least-model
    check accepts the result."""
    candidate = solver._candidate
    definitions = candidate.rules[:len(solver.mp.candidate_definitions)]
    found = []
    for x in range(1 << len(solver.object_atoms)):
        held = sum(candidate.bit[solver.mp.candidate_atoms[a]]
                   for i, a in enumerate(solver.object_atoms) if x >> i & 1)
        for rule in definitions:
            if rule.body_holds(held):
                held |= rule.head
        if candidate.is_answer_set(held):
            found.append(held)
    return found
