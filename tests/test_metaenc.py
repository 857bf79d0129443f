import dataclasses
import random
from collections import Counter

import pytest

from aspkit.core import CapExceededError, ContractViolationError, CriteriaSet
from aspkit.metaenc import (
    MetaSolver,
    build_meta_program,
    crosscheck,
    effective_criteria,
    solve_meta,
)
from aspkit.optimize import optimal_answer_sets
from aspkit.parser import parse_criteria, parse_program, render_program
from aspkit.reify import reify
from aspkit.semantics import enumerate_answer_sets
from generators import iset, random_criteria, random_program

INCL = parse_criteria("optimize(1,1,incl).")
CARD = parse_criteria("optimize(1,1,card).")


def build(program, crit=CriteriaSet()):
    return build_meta_program(reify(program), crit)


def hold_projection(meta_answer_set, mp):
    return frozenset(a for a, meta in mp.candidate_atoms.items()
                     if meta in meta_answer_set)


def true_projection(meta_answer_set, mp):
    return frozenset(a for a, meta in mp.true_atoms.items()
                     if meta in meta_answer_set)


class TestEffectiveCriteria:
    def test_empty_stays_empty(self, toy_min):
        assert effective_criteria(CriteriaSet(), toy_min.minimize) == \
            CriteriaSet()

    def test_uncovered_groups_default_to_card(self, toy_min):
        crit = parse_criteria("optimize(2,1,incl).")
        effective = effective_criteria(crit, toy_min.minimize)
        assert effective.criterion_at(2, 1) == "incl"
        assert effective.criterion_at(1, 1) == "card"

    def test_covered_groups_untouched(self, toy_min):
        effective = effective_criteria(INCL, toy_min.minimize)
        assert effective.relations == ((1, 1, "incl"),)


class TestStructure:
    def test_guess_saturation_and_acceptance(self, toy):
        mp = build(toy)
        rendered = mp.to_text()
        assert ":- not bot." in rendered
        for name in "pqrst":
            assert f"true_atom_{name} | fail_atom_{name}." in rendered
            assert f"true_atom_{name} :- bot." in rendered
            assert f"fail_atom_{name} :- bot." in rendered

    def test_wait_rules_cover_component_elements_up_to_step_three(self, toy):
        rendered = build(toy).to_text()
        for name in ("p", "r", "t"):
            assert f"wait_atom_{name}_0." in rendered
            assert f"wait_atom_{name}_3" in rendered
        for element in ("wait_conj_0", "wait_conj_1",
                        "wait_sum_1_1_2", "wait_sum_1_0_2"):
            assert f"{element}_2" in rendered
            assert f"{element}_3" not in rendered

    def test_empty_criteria_make_bot_a_fact(self, toy_min):
        assert "bot." in [str(r) for r in build(toy_min).compare]

    def test_output_reparses(self, toy_min):
        mp = build(toy_min, INCL)
        assert parse_program(mp.to_text()).rules == mp.program.rules

    def test_counterexample_side_avoids_negation(self, toy_min):
        mp = build(toy_min, INCL)
        for rule in mp.guess + mp.evaluate + mp.check + mp.saturate:
            for bl in rule.body:
                assert not bl.negated
        for rule in mp.compare:
            for bl in rule.body:
                if bl.negated:
                    assert bl.element in mp.candidate_side


class TestSolveMeta:
    def test_inclusion_matches_published_result(self, toy_min):
        assert solve_meta(build(toy_min, INCL)) == \
            [iset("p,q"), iset("p,r"), iset("s,t")]

    def test_cardinality_matches_published_result(self, toy_min):
        assert solve_meta(build(toy_min, CARD)) == [iset("s,t")]

    def test_empty_criteria_accept_every_answer_set(self, toy_min):
        assert solve_meta(build(toy_min)) == enumerate_answer_sets(toy_min)

    def test_program_without_answer_sets(self):
        program = parse_program("a. :- a.")
        assert solve_meta(build(program)) == []

    def test_empty_program_projects_to_empty_set(self):
        assert solve_meta(build(parse_program(""))) == [frozenset()]

    def test_candidate_cap(self):
        text = "".join(f"a{i}.\n" for i in range(27))
        with pytest.raises(CapExceededError):
            solve_meta(build(parse_program(text)))

    def test_limit(self, toy_min):
        assert solve_meta(build(toy_min), limit=2) == \
            [iset("p,q"), iset("p,r")]

    @pytest.mark.parametrize("limit", [-1, 0])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(ContractViolationError):
            solve_meta(build(parse_program("{a}. {b}.")), limit=limit)


class TestAgainstBruteForce:
    """Full disjunctive enumeration of the generated program must agree
    with the structure-exploiting solver on small instances."""

    CASES = [
        ("a.", ""),
        ("a :- not b. b :- not a.", ""),
        ("a :- a.", ""),
        ("a :- b.", ""),
        ("{a}.\n#minimize[a=1@1].", "optimize(1,1,incl)."),
    ]

    @pytest.mark.parametrize("text,crit_text", CASES)
    def test_projections_match(self, text, crit_text):
        program = parse_program(text)
        mp = build(program, parse_criteria(crit_text))
        brute = enumerate_answer_sets(mp.program, cap=16)
        projections = sorted({hold_projection(z, mp) for z in brute},
                             key=lambda s: sorted(a.name for a in s))
        assert projections == solve_meta(mp)
        assert len(brute) == len(projections)  # unique per projection


class TestPairProjection:
    """Without comparison and acceptance, the meta answer sets pair a
    candidate answer set with a counterexample answer set, uniquely."""

    def test_two_answer_set_program(self):
        program = parse_program("a :- not b. b :- not a.")
        mp = build(program)
        partial = mp.assemble(with_compare=False, with_accept=False)
        object_sets = set(enumerate_answer_sets(program))
        pairs = []
        for z in enumerate_answer_sets(partial, cap=16):
            assert mp.bot not in z
            pairs.append((hold_projection(z, mp), true_projection(z, mp)))
        key = lambda pair: tuple(tuple(sorted(a.name for a in s))
                                 for s in pair)
        assert sorted(pairs, key=key) == sorted(
            ((x, y) for x in object_sets for y in object_sets), key=key)
        assert len(set(pairs)) == len(pairs)


def every_set(solver):
    return {solver.decode(y) for y in range(1 << len(solver.object_atoms))}


def mask(solver, x):
    return sum(1 << i for i, a in enumerate(solver.object_atoms) if a in x)


class TestSaturationSoundness:
    def test_bot_exactly_on_refuted_guesses(self, toy_min):
        mp = build(toy_min, INCL)
        solver = MetaSolver(mp)
        answer_sets = set(enumerate_answer_sets(toy_min))

        def refuted_guesses(candidate):
            conditions = solver.conditions(mask(solver, candidate))
            return {y for y in every_set(solver)
                    if solver.refutes(conditions, mask(solver, y))}

        # optimal candidate: every guess is refuted
        assert refuted_guesses(iset("s,t")) == every_set(solver)
        # dominated candidate: refuted by every guess except its dominator
        missing = every_set(solver) - refuted_guesses(iset("p,s"))
        assert missing == {iset("s,t")}
        # non-answer-set guesses always yield bot
        for candidate in (iset("s,t"), iset("p,s")):
            assert all(y in refuted_guesses(candidate)
                       for y in every_set(solver) if y not in answer_sets)

    def test_static_rules_judge_each_guess_once(self, toy_min):
        solver = MetaSolver(build(toy_min, INCL))
        closure = solver._static_closure
        runs = Counter()

        def counted(seed, goal):
            runs[tuple(seed)] += 1
            return type(closure).reaches(closure, seed, goal)

        closure.reaches = counted
        assert solver.solve() == [iset("p,q"), iset("p,r"), iset("s,t")]
        # five stable candidates reach the guesses, three reach them all
        assert len(runs) == 1 << len(solver.object_atoms)
        assert set(runs.values()) == {1}

    @pytest.mark.parametrize("part,text", [
        ("compare", "true_atom_p :- hold_atom_p."),
        ("compare", "true_conj_0 :- hold_atom_p."),
        ("compare", "bot :- true_conj_0."),
        ("compare", "bot :- 1 #sum[hold_atom_p=1]."),
        ("evaluate", "true_conj_0 :- hold_atom_p."),
        ("check", "true_atom_p :- true_conj_0."),
    ])
    def test_split_structure_is_checked(self, toy_min, part, text):
        mp = build(toy_min, INCL)
        extra = parse_program(text).rules
        tampered = dataclasses.replace(mp, **{part: getattr(mp, part) + extra})
        with pytest.raises(ContractViolationError):
            MetaSolver(tampered)


class TestCandidatePart:
    def test_candidate_stability_equals_answer_sets(self):
        rng = random.Random(61)
        for _ in range(40):
            program = random_program(rng, max_atoms=5, max_rules=6)
            solver = MetaSolver(build(program))
            stable = {solver.decode(x)
                      for x in range(1 << len(solver.object_atoms))
                      if solver.candidate_stable(x)}
            assert stable == set(enumerate_answer_sets(program))


class TestCrosscheck:
    def test_toy_inclusion(self, toy_min):
        report = crosscheck(toy_min, INCL)
        assert report.agree and len(report.native) == 3

    def test_toy_cardinality(self, toy_min):
        report = crosscheck(toy_min, CARD)
        assert report.agree and len(report.native) == 1

    def test_toy_empty_criteria(self, toy_min):
        report = crosscheck(toy_min, CriteriaSet())
        assert report.agree and len(report.native) == 5

    def test_random_instances_agree(self):
        rng = random.Random(67)
        for _ in range(25):
            program = random_program(rng, max_atoms=5, max_rules=6,
                                     minimize=True)
            crit = random_criteria(rng, program)
            report = crosscheck(program, crit)
            assert report.agree, render_program(program)

    def test_report_difference(self, toy_min):
        report = crosscheck(toy_min, INCL)
        assert report.difference == ()


class TestTheoremEquivalenceDirect:
    def test_native_equals_meta_with_effective_criteria(self, toy_min):
        for crit in (INCL, CARD, parse_criteria("optimize(2,1,incl).")):
            effective = effective_criteria(crit, toy_min.minimize)
            native = optimal_answer_sets(toy_min, effective)
            meta = solve_meta(build(toy_min, crit))
            assert native == meta


class TestEdgeCases:
    def agree(self, text, crit):
        program = parse_program(text)
        report = crosscheck(program, crit)
        assert report.agree, report
        return list(report.native)

    def test_minimize_only_atom_never_holds(self):
        result = self.agree("{a}.\n#minimize[z=1@1].", CARD)
        assert result == [frozenset(), iset("a")]

    def test_negative_weight_group_key(self):
        # complex criteria use the weight only to key the group, so card
        # still minimizes the count; the reward reading is default-only
        text = "a :- not b. b :- not a.\n#minimize[a=-1@1]."
        crit = parse_criteria("optimize(1,-1,card).")
        assert self.agree(text, crit) == [iset("b")]
        from aspkit.optimize import default_optimal
        assert default_optimal(parse_program(text)) == [iset("a")]

    def test_non_contiguous_levels(self):
        text = ("a :- not b. b :- not a.\n{c}.\n"
                "#minimize[a=1@5, c=1@1].")
        crit = parse_criteria("optimize(5,1,card). optimize(1,1,incl).")
        assert self.agree(text, crit) == [iset("b")]

    def test_prefer_negated_literal(self):
        text = "a :- not b. b :- not a.\n#minimize[a=1@1, not a=1@1]."
        crit = parse_criteria(
            "optimize(1,1,pref). prefer(neg(atom(a)),pos(atom(a))).")
        assert self.agree(text, crit) == [iset("b")]

    def test_duplicate_head_sum_entries(self):
        assert self.agree("1 {a, a} 2.", CriteriaSet()) == [iset("a")]

    def test_two_nontrivial_components(self):
        text = ("a :- b. b :- a. a :- e. e.\n"
                "c :- d. d :- c. c :- not f.\n")
        assert self.agree(text, CriteriaSet()) == [iset("a,b,c,d,e")]
        program = parse_program(text)
        mp = build(program)
        rendered = mp.to_text()
        assert "wait_atom_a_2" in rendered and "wait_atom_c_2" in rendered

    def test_relabeled_facts_build_identically(self, toy_min):
        from aspkit.reify import text_to_facts, facts_to_text
        text = facts_to_text(reify(toy_min))
        shifted = (text.replace("conjunction(2", "conjunction(9")
                   .replace("set(2,", "set(9,"))
        mp = build_meta_program(text_to_facts(shifted), INCL)
        assert solve_meta(mp) == [iset("p,q"), iset("p,r"), iset("s,t")]
