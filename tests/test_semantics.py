import random

import pytest

from aspkit.core import (
    Atom,
    CapExceededError,
    ContractViolationError,
    Disjunction,
    Program,
    Rule,
    SumConstraint,
    atoms,
)
from aspkit.parser import parse_program
from aspkit.semantics import (
    PositiveProgram,
    enumerate_answer_sets,
    is_answer_set,
    is_minimal_model,
    is_model,
    reduct,
    satisfies,
)
from generators import iset, random_program


def body_sum(toy):
    return toy.rules[0].body[0].element  # 1 #sum[r=1,s=1,not t=1] 2


class TestSatisfies:
    def test_sum_with_negative_literal(self, toy):
        # weight 1 from s; "not t" contributes nothing since t is in.
        assert satisfies(iset("s,t"), body_sum(toy))
        assert not satisfies(iset("t"), body_sum(toy))

    def test_empty_disjunction_never_holds(self):
        assert not satisfies(frozenset(), Disjunction(()))
        assert not satisfies(iset("a"), Disjunction(()))

    def test_rule_with_sum_head(self, toy):
        assert satisfies(iset("p,q"), toy.rules[1])

    def test_upper_bound_violation(self, toy):
        assert not satisfies(iset("r,s"), body_sum(toy))  # 3 > 2

    def test_negation_flips(self, toy):
        not_q = toy.rules[2].body[0]
        assert satisfies(frozenset(), not_q)
        assert not satisfies(iset("q"), not_q)


class TestIsModel:
    def test_toy_models(self, toy):
        assert is_model(iset("p,r"), toy)
        assert is_model(iset("r,t"), toy)
        assert not is_model(frozenset(), toy)


class TestReduct:
    def test_toy_reduct_pr(self, toy):
        expected = PositiveProgram(tuple(parse_program(
            "p :- 0 #sum[r=1,s=1].\nr :- 1 #sum[p=1,t=1].\n").rules))
        assert reduct(toy, iset("p,r")) == expected

    def test_toy_reduct_rt(self, toy):
        expected = PositiveProgram(tuple(parse_program(
            "t :- 1 #sum[r=1,s=1].\nr :- 1 #sum[p=1,t=1].\n").rules))
        assert reduct(toy, iset("r,t")) == expected

    def test_facts_survive_any_reduct(self):
        program = parse_program("a.")
        for x in (frozenset(), iset("a")):
            assert reduct(program, x) == PositiveProgram(program.rules)

    def test_negative_residual_lower_bound(self):
        program = parse_program("a :- -1 #sum[b=1, not c=2].")
        reduced = reduct(program, frozenset())
        assert reduced.rules[0].body[0].element.lower == -3

    def test_sum_head_with_no_true_atoms_yields_no_rule(self):
        # the unsatisfied head bound is caught by is_model, not the reduct
        program = parse_program("1 {a} :- b. b.")
        assert reduct(program, iset("b")).rules == \
            PositiveProgram(parse_program("b.").rules).rules
        assert not is_model(iset("b"), program)
        assert is_answer_set(iset("a,b"), program)

    def test_shape_no_negation_no_upper(self):
        rng = random.Random(5)
        for _ in range(40):
            program = random_program(rng, max_atoms=5, max_rules=6)
            universe = sorted(atoms(program))
            x = frozenset(a for a in universe if rng.random() < 0.5)
            PositiveProgram(reduct(program, x).rules)  # validates shape


class TestMinimalModel:
    def test_toy_examples(self, toy):
        assert is_minimal_model(iset("p,r"), reduct(toy, iset("p,r")))
        assert not is_minimal_model(iset("r,t"), reduct(toy, iset("r,t")))

    def test_empty_model_of_empty_program(self):
        assert is_minimal_model(frozenset(), PositiveProgram())

    def test_non_model_is_not_minimal(self):
        facts = PositiveProgram(parse_program("b.").rules)
        assert not is_minimal_model(iset("a"), facts)

    def test_cap_guard(self):
        big = frozenset(Atom(f"a{i}") for i in range(25))
        with pytest.raises(CapExceededError):
            is_minimal_model(big, PositiveProgram(), cap=20)


class TestAnswerSets:
    def test_toy_membership(self, toy):
        assert is_answer_set(iset("p,q"), toy)
        assert not is_answer_set(iset("r,t"), toy)
        assert is_answer_set(frozenset(), Program())

    def test_toy_enumeration(self, toy):
        expected = [iset("p,q"), iset("p,r"), iset("p,s"),
                    iset("p,s,t"), iset("s,t")]
        assert enumerate_answer_sets(toy) == expected

    def test_self_support_rejected(self):
        assert enumerate_answer_sets(parse_program("a :- a.")) == [frozenset()]

    def test_disjunction_minimality(self):
        assert enumerate_answer_sets(parse_program("a | b.")) == \
            [iset("a"), iset("b")]

    def test_limit_truncates_canonical_order(self, toy):
        assert enumerate_answer_sets(toy, limit=2) == [iset("p,q"), iset("p,r")]

    @pytest.mark.parametrize("limit", [-1, 0])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(ContractViolationError):
            enumerate_answer_sets(parse_program("{a}. {b}."), limit=limit)

    def test_atom_cap(self):
        text = "".join(f"a{i}.\n" for i in range(21))
        with pytest.raises(CapExceededError):
            enumerate_answer_sets(parse_program(text))
        with pytest.raises(CapExceededError):
            enumerate_answer_sets(parse_program("a. b. c."), cap=2)


class TestProperties:
    def test_random_corpus_laws(self):
        rng = random.Random(11)
        for _ in range(60):
            program = random_program(rng, max_atoms=6, max_rules=8)
            for x in enumerate_answer_sets(program):
                assert is_model(x, program)
                assert is_minimal_model(x, reduct(program, x))

    def test_fact_program_unique_answer_set(self):
        program = parse_program("a. b. c.")
        assert enumerate_answer_sets(program) == [iset("a,b,c")]
