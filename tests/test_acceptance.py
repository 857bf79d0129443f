"""Acceptance suite: one timed criterion per test, one PASS/FAIL line each."""

import random
import time

import pytest

from aspkit.cli import main
from aspkit.consequence import sccs, wait_levels
from aspkit.core import CriteriaSet, atoms, normalize
from aspkit.metaenc import build_meta_program, effective_criteria, solve_meta
from aspkit.optimize import default_optimal, dominates, optimal_answer_sets
from aspkit.parser import parse_criteria, parse_program, render_program
from aspkit.reify import facts_to_text, parse_reified, reify
from aspkit.semantics import compile_program, enumerate_answer_sets
from conftest import REPAIR_TEXT, TOY_MIN_TEXT, TOY_TEXT
from generators import iset, random_criteria, random_program
from reference import (
    is_answer_set,
    is_model,
    reduct,
    scc_fixpoint_check,
    tp_iterate,
)
from test_reify import TOY_MIN_FACTS

TOY_FIVE = [iset("p,q"), iset("p,r"), iset("p,s"), iset("p,s,t"), iset("s,t")]
TOY_INCL_MINIMAL = [iset("p,q"), iset("p,r"), iset("s,t")]


@pytest.fixture
def criterion(capsys):
    """Runs one criterion body, printing its PASS/FAIL line uncaptured."""

    def run(number, description, budget, body):
        start = time.perf_counter()
        error = None
        try:
            body()
        except BaseException as exc:  # report, then re-raise
            error = exc
        elapsed = time.perf_counter() - start
        status = "PASS" if error is None and elapsed < budget else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {number} [{status}] {description} "
                  f"({elapsed:.2f}s / budget {budget:g}s)")
        if error is not None:
            raise error
        assert elapsed < budget, f"criterion {number} exceeded {budget}s"

    return run


def test_criterion_1_enumeration(criterion):
    def body():
        program = parse_program(TOY_TEXT)
        assert enumerate_answer_sets(program) == TOY_FIVE

    criterion(1, "toy program has exactly its five answer sets", 1.0, body)


def test_criterion_2_inclusion_native_and_meta(criterion):
    def body():
        program = parse_program(TOY_MIN_TEXT)
        crit = parse_criteria("optimize(1,1,incl).")
        assert optimal_answer_sets(program, crit) == TOY_INCL_MINIMAL
        assert solve_meta(build_meta_program(reify(program), crit)) == \
            TOY_INCL_MINIMAL

    criterion(2, "inclusion-minimal sets agree natively and via the "
                     "check program", 5.0, body)


def test_criterion_3_default_and_cardinality(criterion):
    def body():
        program = parse_program(TOY_MIN_TEXT)
        assert default_optimal(program) == [iset("s,t")]
        crit = parse_criteria("optimize(1,1,card).")
        assert optimal_answer_sets(program, crit) == [iset("s,t")]

    criterion(3, "default semantics and cardinality single out {s,t}",
                  5.0, body)


def test_criterion_4_fixpoint_oracle_equivalence(criterion):
    def body():
        rng = random.Random(404)
        programs = 0
        models = 0
        while programs < 500:
            program = random_program(rng, max_atoms=8, max_rules=10)
            programs += 1
            universe = sorted(atoms(program))
            for mask in range(1 << len(universe)):
                x = frozenset(a for i, a in enumerate(universe)
                              if mask >> i & 1)
                if not is_model(x, program):
                    continue
                models += 1
                native = is_answer_set(x, program)
                global_fixpoint = tp_iterate(
                    reduct(program, x), frozenset(), len(universe)) == x
                localized = scc_fixpoint_check(program, x)
                assert native == global_fixpoint == localized, \
                    render_program(program)
        assert models > 1000

    criterion(4, "answer-set, global-fixpoint, and per-component "
                     "checks agree on 500 random programs", 60.0, body)


def test_criterion_5_wait_levels(criterion):
    def body():
        compiled = compile_program(parse_program(TOY_TEXT))
        (component,) = sccs(compiled).nontrivial()
        cyclic = wait_levels(compiled, compiled.encode(iset("r,t")),
                             component)
        assert cyclic.z == 3
        assert cyclic.waiting_true == iset("r,t")
        acyclic = wait_levels(compiled, compiled.encode(iset("p,r")),
                              component)
        assert acyclic.waiting_true == frozenset()

    criterion(5, "wait levels flag {r,t} at step 3 and clear {p,r}",
                  1.0, body)


def test_criterion_6_saturation_crosscheck(criterion):
    def body():
        rng = random.Random(606)
        for _ in range(60):
            program = random_program(rng, max_atoms=6, max_rules=10,
                                     minimize=True)
            crit = random_criteria(rng, program,
                                   criteria=("card", "incl", "pref"),
                                   levels=(1, 2), weights=(1, 2))
            native = optimal_answer_sets(program, effective_criteria(
                crit, program.minimize.group_keys()))
            meta = solve_meta(build_meta_program(reify(program), crit))
            assert native == meta, \
                render_program(program) + repr(crit.relations)

    criterion(6, "native and check-program optima agree on 60 random "
                     "instances with mixed criteria", 600.0, body)


def test_criterion_7_reify_round_trip(criterion):
    def body():
        corpus = [
            parse_program(TOY_TEXT),
            parse_program(TOY_MIN_TEXT),
            parse_program(REPAIR_TEXT),
            parse_program("a. b :- a, not c.\n:- c."),
            parse_program("#minimize[a=-2@1, not b=3@2]."),
            parse_program(""),
        ]
        for program in corpus:
            assert parse_reified(reify(program)) == normalize(program)
        toy_min = parse_program(TOY_MIN_TEXT)
        text = facts_to_text(reify(toy_min))
        assert text == TOY_MIN_FACTS          # documented fact shapes
        assert text == facts_to_text(reify(parse_program(TOY_MIN_TEXT)))
        assert "wlist(0,0,pos(atom(p)),1)." in text   # indexes from 0
        assert text.count("wlist(0,0,") == 1          # list label reuse
        assert "scc(0," in text and "scc(1," not in text

    criterion(7, "reification round-trips, is deterministic, and "
                     "matches the documented fact shapes", 1.0, body)


def test_criterion_8_dominance_properties(criterion):
    def body():
        rng = random.Random(808)
        for _ in range(50):
            program = random_program(rng, max_atoms=6, max_rules=8,
                                     minimize=True)
            answer_sets = enumerate_answer_sets(program)
            crit = random_criteria(rng, program)
            for x in answer_sets:
                assert not dominates(x, x, program.minimize, crit).dominated
            monotone = random_criteria(rng, program,
                                       criteria=("card", "incl"),
                                       empty_chance=0.0)
            optimal = optimal_answer_sets(program, monotone)
            assert bool(optimal) == bool(answer_sets)

    criterion(8, "no self-domination; card/incl optima nonempty "
                     "whenever answer sets exist", 60.0, body)


def test_criterion_9_repair_frontier(criterion):
    def oracle_optimal(program, relations):
        """Dominance filtering restated from first principles."""
        answer_sets = enumerate_answer_sets(program)
        entries = program.minimize.entries

        def sat(x, literal):
            return (literal.atom in x) != literal.negated

        def at_most(x, y, level, weight, criterion):
            group = [e.literal for e in entries
                     if e.level == level and e.weight == weight]
            if criterion == "card":
                return sum(sat(x, l) for l in group) <= \
                    sum(sat(y, l) for l in group)
            assert criterion == "incl"
            return all(sat(y, l) for l in group if sat(x, l))

        def dominated(x):
            for y in answer_sets:
                for level, weight, criterion in relations:
                    if at_most(x, y, level, weight, criterion):
                        continue
                    if all(at_most(y, x, l2, w2, c2)
                           for l2, w2, c2 in relations if l2 >= level):
                        return True
            return False

        return [x for x in answer_sets if not dominated(x)]

    def body():
        program = parse_program(REPAIR_TEXT)
        relations = ((1, 1, "incl"), (1, 2, "card"))
        crit = CriteriaSet(relations)
        frontier = optimal_answer_sets(program, crit)
        assert frontier == oracle_optimal(program, relations)
        assert frontier == [
            iset("ef_a,ef_b,ok1,ok2"),
            iset("ef_a,ok1,ok2,rv_y"),
            iset("ok1,ok2,rv_x,rv_y"),
        ]

    criterion(9, "repair toy's Pareto frontier matches the brute-force "
                     "dominance oracle", 10.0, body)


def test_criterion_10_check_at_ground_scale(criterion, capsys, tmp_path):
    # A 5,000-atom positive chain d0 :- d1. ... d4999 :- s. with {s}.:
    # building the compiled check must stay linear in the program size.
    # Only the answer-set verdict is timed; a supported-model verdict
    # would decompose the deep component recursively.
    n = 5000
    path = tmp_path / "chain.lp"
    path.write_text("".join(f"d{i} :- d{i + 1}.\n" for i in range(n - 1))
                    + f"d{n - 1} :- s.\n{{s}}.\n")
    interpretation = ",".join(["s", *(f"d{i}" for i in range(n))])

    def body():
        code = main(["check", str(path), "--interpretation", interpretation])
        assert (code, capsys.readouterr().out) == (0, "answer-set\n")

    criterion(10, "check classifies every atom of a 5,000-atom chain true "
                      "as an answer set", 1.5, body)


def test_criterion_11_check_over_many_components(criterion, capsys,
                                                  tmp_path):
    # 1,000 two-atom cycles ai :- bi. bi :- ai. with every atom true: a
    # supported model whose every component waits.  Each component's
    # wait levels read only its own rules, so the whole check stays
    # linear in the number of components.
    n = 1000
    path = tmp_path / "cycles.lp"
    path.write_text("".join(f"a{i} :- b{i}. b{i} :- a{i}.\n"
                            for i in range(n)))
    interpretation = ",".join(f"{p}{i}" for i in range(n) for p in "ab")

    def body():
        code = main(["check", str(path), "--interpretation", interpretation])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and lines[0] == "supported-model"
        assert len(lines) == n + 1
        assert lines[1] == "component 0: a0,b0 wait at step 2"

    criterion(11, "check reports the wait levels of 1,000 two-atom cycles",
              1.5, body)

