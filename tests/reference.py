"""The immediate consequence operator on syntax objects: a second
answer-set route that the tests compare with the compiled least-model
check and the subset-minimality oracle.  No command line path uses it."""

from __future__ import annotations

from aspkit.consequence import dependency_graph, sccs
from aspkit.core import Atom, ContractViolationError, Interpretation, Program
from aspkit.semantics import PositiveProgram, is_model, reduct, satisfies


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

