"""Differential tests: the compiled checks against the syntax-level
oracle and the meta solver's earlier candidate check."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspkit import core
from aspkit.compiled import CompiledProgram, HornClosure
from aspkit.consequence import tp_iterate
from aspkit.core import Atom, Program, atoms
from aspkit.metaenc import MetaSolver, build_meta_program
from aspkit.parser import parse_program
from aspkit.reify import reify
from aspkit.semantics import (
    canonical_order,
    enumerate_answer_sets,
    is_answer_set,
    is_model,
    reduct,
    satisfies,
)
from generators import iset, random_criteria, random_program

SEEDS = st.integers(0, 2**32 - 1)


def every_interpretation(program):
    universe = sorted(atoms(program))
    for mask in range(1 << len(universe)):
        yield frozenset(a for i, a in enumerate(universe) if mask >> i & 1)


@given(SEEDS, st.booleans())
@settings(max_examples=300, deadline=None)
def test_enumeration_matches_oracle(seed, disjunctive):
    program = random_program(random.Random(seed), max_atoms=6, max_rules=8,
                             disjunctive=disjunctive)
    expected = canonical_order(
        x for x in every_interpretation(program) if is_answer_set(x, program))
    assert enumerate_answer_sets(program) == expected


@given(SEEDS, st.booleans())
@settings(max_examples=100, deadline=None)
def test_compiled_model_check_matches_oracle(seed, disjunctive):
    program = random_program(random.Random(seed), max_atoms=6, max_rules=8,
                             disjunctive=disjunctive)
    compiled = CompiledProgram(program.rules, sorted(atoms(program)))
    for x in every_interpretation(program):
        mask = sum(compiled.bit[a] for a in x)
        assert compiled.is_model(mask) == is_model(x, program)
        assert compiled.decode(mask) == x


def reference_interpretation(mp, x):
    """The candidate's meta atoms: the definitions closed over the hold
    atoms of ``x``."""
    interp = {mp.candidate_atoms[a] for a in x}
    changed = True
    while changed:
        changed = False
        for rule in mp.candidate_definitions:
            head = rule.head.atoms[0]
            if head not in interp and satisfies(frozenset(interp), rule.body):
                interp.add(head)
                changed = True
    return frozenset(interp)


def reference_candidate_stable(solver, x):
    """The candidate check as the meta solver first defined it: close the
    definitions over the hold atoms, require a model of the candidate
    part, and iterate the consequence operator on its reduct."""
    mp = solver.mp
    interp = reference_interpretation(mp, x)
    candidate = Program(mp.candidate)
    if not is_model(interp, candidate):
        return False
    steps = len(core.atoms(candidate))
    return tp_iterate(reduct(candidate, interp), frozenset(), steps) == interp


@given(SEEDS)
@settings(max_examples=100, deadline=None)
def test_candidate_stable_matches_reference(seed):
    program = random_program(random.Random(seed), max_atoms=5, max_rules=6)
    solver = MetaSolver(build_meta_program(reify(program), core.CriteriaSet()))
    for x in range(1 << len(solver.object_atoms)):
        assert solver.candidate_stable(x) == \
            reference_candidate_stable(solver, solver.decode(x))


def reference_refutes(mp, x, y):
    """The refutation test as the meta solver first defined it: resolve
    the compare rules against the candidate ``x``, close them together
    with the evaluate, check and saturate rules over the guess ``y``, and
    look for bot."""
    interp = reference_interpretation(mp, x)
    resolved = []
    for rule in mp.compare:
        body = []
        for bl in rule.body:
            if isinstance(bl.element, Atom) and bl.element in mp.candidate_side:
                if (bl.element in interp) == bl.negated:
                    break
            else:
                body.append(bl)
        else:
            resolved.append(core.Rule(rule.head, tuple(body)))
    closure = HornClosure.of_rules(
        mp.evaluate + mp.check + mp.saturate + tuple(resolved))
    seed = [mp.true_atoms[a] if a in y else mp.fail_atoms[a]
            for a in mp.candidate_atoms]
    return closure.derives(seed, mp.bot)


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_refutes_matches_reference(seed):
    rng = random.Random(seed)
    program = random_program(rng, max_atoms=5, max_rules=6, minimize=True)
    mp = build_meta_program(reify(program), random_criteria(rng, program))
    solver = MetaSolver(mp)
    masks = range(1 << len(solver.object_atoms))
    for x in masks:
        if not solver.candidate_stable(x):
            continue
        conditions = solver.conditions(x)
        for y in masks:
            assert solver.refutes(conditions, y) == reference_refutes(
                mp, solver.decode(x), solver.decode(y))


class TestHornClosure:
    def closure(self, text):
        return HornClosure.of_rules(parse_program(text).rules)

    def test_chain_and_sum(self):
        closure = self.closure("b :- a. c :- 2 #sum[a=1, b=1]. d :- e.")
        assert closure.derives(iset("a"), Atom("c"))
        assert not closure.derives(iset("a"), Atom("d"))
        assert not closure.derives(iset("a"), Atom("zz"))

    def test_facts_and_seed_goal(self):
        closure = self.closure("a. b :- a.")
        assert closure.derives((), Atom("b"))
        assert closure.derives(iset("b"), Atom("b"))

    def test_met_sum_does_not_stand_in_for_a_missing_atom(self):
        # the sum is met before c is derived; deriving c must not count
        # as supplying the missing b
        closure = self.closure("a :- b, 0 #sum[c=1]. c.")
        assert not closure.derives((), Atom("a"))
        program = parse_program("c. a :- b, 0 #sum[c=1]. b :- a.")
        assert enumerate_answer_sets(program) == [iset("c")]

    @pytest.mark.parametrize(
        "text", ["a :- not b.", "a :- 1 #sum[not b=1].", "a | b.", ":- a."])
    def test_rejects_rules_outside_its_shape(self, text):
        with pytest.raises(core.ContractViolationError):
            self.closure(text)
