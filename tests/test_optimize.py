import random

import pytest

from aspkit.core import (
    Atom,
    ContractViolationError,
    CriteriaSet,
    Literal,
    MinimizeStatement,
)
from aspkit.optimize import (
    DominanceVerdict,
    GroupKey,
    default_optimal,
    dominates,
    incl_at,
    leq_at,
    optimal_answer_sets,
    pref_at,
)
from aspkit.parser import parse_criteria, parse_program
from aspkit.semantics import enumerate_answer_sets
from generators import iset, random_criteria, random_program

KEY = GroupKey(1, 1)


def statement(text) -> MinimizeStatement:
    return parse_program(f"#minimize[{text}].").minimize


TOY_STATEMENT = "p=1@1, q=1@1, r=1@1, s=1@1"


class TestLeq:
    def test_counts_satisfied_occurrences(self):
        m = statement(TOY_STATEMENT)
        assert leq_at(iset("s,t"), iset("p,q"), KEY, m)       # 1 <= 2
        assert not leq_at(iset("p,q"), iset("s,t"), KEY, m)

    def test_reflexive(self):
        m = statement(TOY_STATEMENT)
        assert leq_at(iset("p,q"), iset("p,q"), KEY, m)

    def test_duplicates_counted(self):
        m = statement("p=1@1, p=1@1, q=1@1, r=1@1")
        assert leq_at(iset("p"), iset("q,r"), KEY, m)          # 2 <= 2
        assert not leq_at(iset("p,q"), iset("q,r"), KEY, m)    # 3 > 2


class TestIncl:
    def test_subset_of_satisfied_literals(self):
        m = statement(TOY_STATEMENT)
        assert incl_at(iset("s,t"), iset("p,s"), KEY, m)
        assert not incl_at(iset("p,q"), iset("p,r"), KEY, m)

    def test_reflexive(self):
        m = statement(TOY_STATEMENT)
        assert incl_at(iset("p,q"), iset("p,q"), KEY, m)

    def test_only_group_literals_matter(self):
        m = statement("p=1@1, q=2@1")
        # q sits at weight 2, so the (1,1) group ignores it
        assert incl_at(iset("q"), frozenset(), KEY, m)


class TestPref:
    def test_simple_preference(self):
        m = statement("a=1@1, b=1@1")
        prefer = ((Literal(Atom("a")), Literal(Atom("b"))),)
        assert pref_at(iset("a"), iset("b"), KEY, m, prefer)
        assert not pref_at(iset("b"), iset("a"), KEY, m, prefer)

    def test_irreflexive(self):
        m = statement("a=1@1, b=1@1")
        prefer = ((Literal(Atom("a")), Literal(Atom("b"))),)
        assert not pref_at(iset("a"), iset("a"), KEY, m, prefer)

    def test_defeater_blocks(self):
        m = statement("a=1@1, b=1@1, c=1@1")
        a, b, c = (Literal(Atom(n)) for n in "abc")
        prefer = ((a, b), (c, a))
        # c is satisfied by y only and c <= a without a <= c: defeated
        assert not pref_at(iset("a"), iset("b,c"), KEY, m, prefer)
        assert pref_at(iset("a"), iset("b"), KEY, m, prefer)

    def test_pairs_outside_group_ignored(self):
        m = statement("a=1@1, b=1@1")
        prefer = ((Literal(Atom("a")), Literal(Atom("z"))),)
        assert not pref_at(iset("a"), iset("b"), KEY, m, prefer)


class TestDominates:
    def test_toy_inclusion_domination(self, toy_min):
        crit = parse_criteria("optimize(1,1,incl).")
        verdict = dominates(iset("s,t"), iset("p,s,t"),
                            toy_min.minimize, crit)
        assert verdict == DominanceVerdict(True, 1, 1)
        assert not dominates(iset("p,q"), iset("p,s,t"),
                             toy_min.minimize, crit).dominated
        assert not dominates(iset("p,s"), iset("p,s,t"),
                             toy_min.minimize, crit).dominated

    def test_empty_criteria_never_dominate(self, toy_min):
        for x in enumerate_answer_sets(toy_min):
            for y in enumerate_answer_sets(toy_min):
                assert not dominates(
                    y, x, toy_min.minimize, CriteriaSet()).dominated

    def test_no_self_domination(self, toy_min):
        crit = parse_criteria(
            "optimize(1,1,incl). optimize(2,1,card). optimize(2,2,pref).")
        for x in enumerate_answer_sets(toy_min):
            assert not dominates(x, x, toy_min.minimize, crit).dominated


class TestOptimalAnswerSets:
    def test_toy_inclusion(self, toy_min):
        crit = parse_criteria("optimize(1,1,incl).")
        assert optimal_answer_sets(toy_min, crit) == \
            [iset("p,q"), iset("p,r"), iset("s,t")]

    def test_toy_cardinality(self, toy_min):
        crit = parse_criteria("optimize(1,1,card).")
        assert optimal_answer_sets(toy_min, crit) == [iset("s,t")]

    def test_empty_criteria_keep_everything(self, toy_min):
        assert optimal_answer_sets(toy_min, CriteriaSet()) == \
            enumerate_answer_sets(toy_min)

    def test_pref_cycle_may_empty_the_optimum(self):
        program = parse_program(
            "1 {a, b, c} 1.\n#minimize[a=1@1, b=1@1, c=1@1].")
        a, b, c = (Literal(Atom(n)) for n in "abc")
        crit = CriteriaSet(((1, 1, "pref"),), ((a, b), (b, c), (c, a)))
        assert enumerate_answer_sets(program) == \
            [iset("a"), iset("b"), iset("c")]
        assert optimal_answer_sets(program, crit) == []

    @pytest.mark.parametrize("limit", [-1, 0])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(ContractViolationError):
            optimal_answer_sets(parse_program("{a}. {b}."), CriteriaSet(),
                                limit=limit)


class TestDefaultOptimal:
    def test_toy_default(self, toy_min):
        assert default_optimal(toy_min) == [iset("s,t")]

    def test_empty_minimize_keeps_everything(self, toy):
        assert default_optimal(toy) == enumerate_answer_sets(toy)

    def test_negative_weight_rewards(self):
        program = parse_program("a | b.\n#minimize[a=-1@1].")
        assert default_optimal(program) == [iset("a")]

    def test_levels_are_lexicographic(self):
        program = parse_program(
            "a | b.\nc :- a.\n#minimize[a=1@2, b=2@2, c=5@1].")
        # level 2 dominates: a (1) beats b (2) despite c's big level-1 cost
        assert default_optimal(program) == [iset("a,c")]

    @pytest.mark.parametrize("limit", [-1, 0])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(ContractViolationError):
            default_optimal(parse_program("{a}. {b}."), limit=limit)


class TestRandomCorpusProperties:
    def test_no_self_domination_anywhere(self):
        rng = random.Random(43)
        for _ in range(50):
            program = random_program(rng, max_atoms=6, max_rules=8,
                                     minimize=True)
            crit = random_criteria(rng, program)
            for x in enumerate_answer_sets(program):
                assert not dominates(x, x, program.minimize, crit).dominated

    def test_card_incl_optimum_nonempty(self):
        rng = random.Random(47)
        for _ in range(50):
            program = random_program(rng, max_atoms=6, max_rules=8,
                                     minimize=True)
            crit = random_criteria(rng, program, criteria=("card", "incl"),
                                   empty_chance=0.0)
            answer_sets = enumerate_answer_sets(program)
            optimal = optimal_answer_sets(program, crit)
            assert bool(optimal) == bool(answer_sets)
            assert set(optimal) <= set(answer_sets)

    def test_coincidence_with_default_semantics(self):
        rng = random.Random(53)
        crit = CriteriaSet(((1, 1, "card"),))
        seen = 0
        for _ in range(60):
            program = random_program(rng, max_atoms=5, max_rules=6,
                                     minimize=True, levels=(1,), weights=(1,))
            if not program.minimize.entries:
                continue
            seen += 1
            assert optimal_answer_sets(program, crit) == \
                default_optimal(program)
        assert seen >= 30

    def test_dropping_all_criteria_restores_answer_sets(self):
        rng = random.Random(59)
        for _ in range(20):
            program = random_program(rng, max_atoms=5, max_rules=6,
                                     minimize=True)
            assert optimal_answer_sets(program, CriteriaSet()) == \
                enumerate_answer_sets(program)
