"""Reference routes that the tests compare aspkit's engines with; no
command line path uses them.

The reduct, subset minimality and support on syntax objects are the
oracle for the compiled answer-set checks.  The immediate consequence
operator on syntax objects is a second answer-set route beside the
compiled least-model check and the subset-minimality oracle, and,
localized to a component, the oracle for its wait levels.  A rescan
of every rule per component is the oracle for the members of the scc
facts of a reification.  The brute-force loops try every
interpretation, or every hold-projection of a meta candidate, with the
compiled checks, as enumeration did before it searched.
``closure_of_rules`` compiles positive syntax-object rules into a
``HornClosure`` on its own, and ``row_of_rule`` writes a rule as a row
of the check program's counterexample side.  ``fresh_meta_solve`` asks
a new meta solver about each stable candidate, so no candidate is
tested against a guess kept for another."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

from aspkit.compiled import CompiledProgram, HornClosure, HornRule
from aspkit.consequence import dependency_graph, sccs
from aspkit.core import (
    DEFAULT_ATOM_CAP,
    Atom,
    Body,
    BodyLiteral,
    CapExceededError,
    ContractViolationError,
    Disjunction,
    Interpretation,
    Program,
    Rule,
    SumConstraint,
    atoms,
    atoms_of,
    positive_part,
)
from aspkit.metaenc import MetaProgram, MetaSolver
from aspkit.semantics import canonical_order, is_model, satisfies


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
    """A model of ``program`` that is a minimal model of its reduct."""
    return is_model(x, program) and is_minimal_model(x, reduct(program, x), cap)


def is_supported_model(program: Program, x: Interpretation) -> bool:
    """A model every true atom of which occurs positively in the head of
    some rule whose body holds."""
    if not is_model(x, program):
        return False
    supported: set[Atom] = set()
    for rule in program.rules:
        if satisfies(x, rule.body):
            supported |= atoms_of(positive_part(rule.head))
    return x <= supported


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
    decomposition = sccs(dependency_graph(program))
    reduced = reduct(program, x)
    covered: set[Atom] = set()
    for component in decomposition.components:
        local = tp_iterate(reduced, x - component.atoms, len(component.atoms))
        covered |= local & component.atoms
    return covered == x


def scc_members(
        program: Program) -> set[tuple[int, Atom | Body | SumConstraint]]:
    """Oracle for the members of the scc facts: per non-trivial
    component, its atoms and, scanning every rule once per component,
    the bodies and sums of rules with a positive head atom in it that
    reach it through a positive body atom or a positive entry of a
    non-negated body sum."""
    members: set[tuple[int, Atom | Body | SumConstraint]] = set()
    for component in sccs(dependency_graph(program)).nontrivial():
        label, inside = component.label, component.atoms
        members.update((label, atom) for atom in inside)
        for rule in program.rules:
            if not atoms_of(positive_part(rule.head)) & inside:
                continue
            positive = positive_part(rule.body)
            sums = [element for element in positive
                    if isinstance(element, SumConstraint)
                    and atoms_of(positive_part(element)) & inside]
            if sums or any(isinstance(element, Atom) and element in inside
                           for element in positive):
                members.add((label, rule.body))
            members.update((label, element) for element in sums)
    return members


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


def fresh_meta_solve(mp: MetaProgram) -> list[Interpretation]:
    """The hold-projections of the stable candidates that a fresh
    ``MetaSolver`` of ``mp``, one per candidate, accepts by its own walk;
    in canonical order."""
    solver = MetaSolver(mp)
    return canonical_order(
        solver.decode(solver.project(held))
        for held in solver.stable_candidates()
        if MetaSolver(mp).accepted(held))


def closure_of_rules(rules: Iterable[Rule],
                     atoms: Iterable[Atom] = ()) -> HornClosure:
    """The closure of positive ground rules with one-atom heads.  The
    atoms in ``atoms`` are indexed first, in their order, and other atoms
    in order of first occurrence."""
    order: dict[Atom, int] = {
        atom: i for i, atom in enumerate(dict.fromkeys(atoms))}

    def idx(atom: Atom) -> int:
        return order.setdefault(atom, len(order))

    compiled: list[HornRule] = []
    for rule in rules:
        if not isinstance(rule.head, Disjunction) or len(rule.head.atoms) != 1:
            raise ContractViolationError(
                f"closure rule needs a one-atom head: {rule}")
        head = idx(rule.head.atoms[0])
        plain: list[int] = []
        sums: list[tuple[int, list[tuple[int, int]]]] = []
        for bl in rule.body:
            element = bl.element
            if bl.negated or (isinstance(element, SumConstraint) and any(
                    wl.literal.negated for wl in element.elements)):
                raise ContractViolationError(
                    f"closure rule must be positive: {rule}")
            if isinstance(element, Atom):
                plain.append(idx(element))
            else:
                sums.append((element.lower or 0, [
                    (idx(wl.literal.atom), wl.weight)
                    for wl in element.elements]))
        compiled.append((head, plain, sums))
    return HornClosure(list(order), compiled)


def row_of_rule(rule: Rule):
    """A rule with a one-atom head as a row of the check program's
    counterexample side: head name, body atom names, and lower-bounded
    sums as (lower, ((name, weight), ...)).  A negated atom, in the body
    or in a sum, is written as its literal text ``not name``, the form a
    compare row gives a candidate condition."""
    (head,) = rule.head.atoms
    body: list[str] = []
    sums = []
    for bl in rule.body:
        if isinstance(bl.element, Atom):
            body.append(str(bl))
        else:
            assert not bl.negated
            sums.append((bl.element.lower or 0, tuple(
                (str(wl.literal), wl.weight)
                for wl in bl.element.elements)))
    return head.name, tuple(body), tuple(sums)
