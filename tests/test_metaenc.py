import dataclasses
import hashlib
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aspkit import consequence
from aspkit.compiled import HornClosure
from aspkit.consequence import strong_components
from aspkit import core
from aspkit.core import (
    Atom,
    CapExceededError,
    ContractViolationError,
    CriteriaSet,
    Rule,
)
from aspkit.metaenc import (
    MetaSolver,
    _Builder,
    build_meta_program,
    crosscheck,
    effective_criteria,
    solve_meta,
)
from aspkit.optimize import optimal_answer_sets
from aspkit.parser import parse_criteria, parse_program, render_program
from aspkit.reify import (
    ReifiedFact,
    Term,
    facts_to_text,
    parse_reified,
    reify,
    text_to_facts,
)
from aspkit.semantics import enumerate_answer_sets
from generators import choice_program, iset, random_criteria, random_program
from reference import (
    BOT,
    candidate_atoms,
    fresh_meta_solve,
    reference_component_rules,
    row_of_rule,
    true_atoms,
)

INCL = parse_criteria("optimize(1,1,incl).")
CARD = parse_criteria("optimize(1,1,card).")


def _ground_shaped_text() -> str:
    """Two 8-atom positive cycles, each entered from a choice atom, a
    20-atom chain grounded in a choice atom, one sum body inside the
    first cycle, and minimize groups for card, incl and pref."""
    lines = []
    for c in "pq":
        lines.append(f"{{{c}0}}.")
        lines.append(f"{c}1 :- {c}0.")
        lines += [f"{c}{i % 8 + 1} :- {c}{i}." for i in range(1, 9)]
    lines.append("{c1}.")
    lines += [f"c{i + 1} :- c{i}." for i in range(1, 20)]
    lines.append("p4 :- p3, 1 #sum[p3=1, not c7=1, q2=2] 3.")
    lines.append("#minimize[p1=1@2, q5=1@2, c4=1@1, c9=1@1, p6=2@1, "
                 "not q3=2@1, c20=2@1].")
    return "\n".join(lines) + "\n"


GROUND_SHAPED = parse_program(_ground_shaped_text())
GROUND_CRITERIA = parse_criteria(
    "optimize(2,1,card). optimize(1,1,incl). optimize(1,2,pref). "
    "prefer(pos(atom(p6)),neg(atom(q3))). "
    "prefer(neg(atom(q3)),pos(atom(c20))).")
#: sha256 of GROUND_SHAPED's check program text as printed by commit
#: 70a76af, before the builder shared one object per meta atom name.
GROUND_SHAPED_DIGEST = (
    "676d81e88577e2feb16b315f52efd7829b27a6459a453d7bedbe50ab5a3d9c65")


def build(program, crit=CriteriaSet()):
    return build_meta_program(program, crit)


#: The parts in printing order, and those of them kept as rows.
PARTS = ("candidate", "guess", "evaluate", "check", "saturate", "compare",
         "accept")
ROW_PARTS = {"evaluate", "check", "saturate", "compare"}


def assert_reparses(mp) -> None:
    """The printed program parses back, part by part, into rules that
    print as the line parts' own lines and that ``row_of_rule`` writes as
    the row parts."""
    rules = parse_program(mp.to_text()).rules
    for part in PARTS:
        items = getattr(mp, part)
        printed, rules = rules[:len(items)], rules[len(items):]
        write = row_of_rule if part in ROW_PARTS else str
        assert tuple(map(write, printed)) == items, part
    assert not rules


def hold_projection(meta_answer_set, mp):
    return frozenset(a for a, meta in candidate_atoms(mp).items()
                     if meta in meta_answer_set)


def true_projection(meta_answer_set, mp):
    return frozenset(a for a, meta in true_atoms(mp).items()
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
        assert build(toy_min).compare == (("bot", (), ()),)

    def test_output_reparses(self, toy_min):
        assert_reparses(build(toy_min, INCL))

    def test_generated_outputs_reparse(self):
        rng = random.Random(88)
        for _ in range(80):
            program = random_program(rng, max_atoms=6, max_rules=8,
                                     minimize=True)
            assert_reparses(build(program, random_criteria(rng, program)))

    def test_ground_shaped_output_is_pinned(self):
        text = build(GROUND_SHAPED, GROUND_CRITERIA).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == \
            GROUND_SHAPED_DIGEST

    def test_one_decomposition_per_build(self, toy_min, monkeypatch):
        calls = []

        def counted(succ):
            calls.append(succ)
            return strong_components(succ)

        monkeypatch.setattr(consequence, "strong_components", counted)
        build_meta_program(toy_min, INCL)
        assert len(calls) == 1

    def test_counterexample_side_avoids_negation(self, toy_min):
        mp = build(toy_min, INCL)
        side = dataclasses.replace(
            mp, candidate_definitions=(), candidate_rules=(), compare=(),
            accept=())
        assert_reparses(side)
        printed = parse_program(side.to_text()).rules
        assert len(printed) == len(mp.guess) + len(mp.evaluate) \
            + len(mp.check) + len(mp.saturate)
        for rule in printed:
            for bl in rule.body:
                assert not bl.negated
        for _, body, _ in mp.compare:
            for text in body:
                if text.startswith("not "):
                    assert Atom(text[4:]) in mp.candidate_side


#: ``chain4`` of the benchmark's chain family: four choices, a chain of
#: ``b`` atoms, a covering constraint and one minimize group.
CHAIN4_TEXT = """\
{a0}. {a1}. {a2}. {a3}.
b0 :- a0, not a1.
b1 :- a1, not a2.
b2 :- a2, not a3.
:- not a0, not a1, not a2, not a3.
#minimize[a0=1@1, a1=1@1, a2=1@1, a3=1@1].
"""


def chain_text(k: int) -> str:
    """A k-choice chain like CHAIN4_TEXT: under inclusion its optima are
    the k singletons, each a_i with b_i (but a_k-1 alone)."""
    lines = [f"{{a{i}}}." for i in range(k)]
    lines += [f"b{i} :- a{i}, not a{i + 1}." for i in range(k - 1)]
    lines.append(":- " + ", ".join(f"not a{i}" for i in range(k)) + ".")
    lines.append("#minimize[" + ", ".join(f"a{i}=1@1" for i in range(k))
                 + "].")
    return "\n".join(lines) + "\n"


class TestRowsMakeNoRules:
    """Every part of a check program is written with meta atom names:
    building and printing one makes no ``Rule``, ``ReifiedFact`` or
    ``Term``, and solving one makes a ``Rule`` only by parsing the
    candidate part's printed lines."""

    @staticmethod
    def made(monkeypatch, *classes) -> list:
        """The objects of ``classes`` constructed from now on."""
        made = []
        for cls in classes:
            init = cls.__init__

            def counted(self, *args, init=init, **kwargs):
                made.append(self)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        return made

    def test_build_and_print_of_a_long_cycle(self, monkeypatch):
        n = 30
        program = parse_program("{a0}.\na1 :- a0.\n" + "".join(
            f"a{i % n + 1} :- a{i}.\n" for i in range(1, n + 1)))
        made = self.made(monkeypatch, Rule, ReifiedFact, Term)
        mp = build(program, GROUND_CRITERIA)
        mp.to_text()
        build(GROUND_SHAPED, GROUND_CRITERIA).to_text()
        assert made == []
        assert len(mp.check) > n * n
        monkeypatch.undo()
        assert_reparses(mp)

    def test_crosscheck_of_chain4(self, monkeypatch):
        program = parse_program(CHAIN4_TEXT)
        candidate = build(program, INCL).candidate
        made = self.made(monkeypatch, Rule)
        report = crosscheck(program, INCL)
        assert report.agree and len(report.meta) == 4
        assert tuple(map(str, made)) == candidate


def ring_text(n: int) -> str:
    """A positive ring of ``n`` atoms entered from a choice atom."""
    return "{e}.\nr0 :- e.\n" + "".join(
        f"r{(i + 1) % n} :- r{i}.\n" for i in range(n))


#: Sums inside components: a lower bound above the total (every step's
#: sum row is a fact), a negated entry, an entry outside the component
#: and a negated sum; and a self-loop through a sum.
COMPONENT_SUM_TEXTS = (
    "a :- b. b :- a, 5 #sum[a=1, not b=1, c=2]. c :- a, b.",
    "{e}. a :- e. a :- b, 1 #sum[b=1, not e=1] 1.\n"
    "b :- a, not 2 #sum[a=1, b=1].",
    "a :- 1 #sum[a=2, not a=1]. b :- a, 0 #sum[b=1] 0.",
)


class TestComponentRowsAgainstReference:
    """The wait-level rows of every component equal, row for row and in
    order, those of the reference that builds one row at a time."""

    @staticmethod
    def assert_rows_match(program, monkeypatch) -> list:
        calls = []
        rows_of = _Builder._component_rules

        def recorded(self, label, supports):
            rows = rows_of(self, label, supports)
            calls.append((self.labels, label, supports, rows))
            return rows

        monkeypatch.setattr(_Builder, "_component_rules", recorded)
        build(program)
        monkeypatch.undo()
        for labels, label, supports, rows in calls:
            assert rows == reference_component_rules(labels, label, supports)
        return [(labels.components[label], labels)
                for labels, label, *_ in calls]

    def test_random_draws(self, monkeypatch):
        rng = random.Random(71)
        with_sums = self_loops = several_conjunctions = 0
        for _ in range(1000):
            program = random_program(rng, max_atoms=6, max_rules=12)
            for members, _ in self.assert_rows_match(program, monkeypatch):
                kinds = Counter(map(type, members))
                with_sums += bool(kinds[tuple])
                self_loops += kinds[str] == 1
                several_conjunctions += kinds[int] >= 2
        assert min(with_sums, self_loops, several_conjunctions) >= 200

    def test_sums_inside_components(self, monkeypatch):
        thresholds = set()
        for text in COMPONENT_SUM_TEXTS:
            components = self.assert_rows_match(
                parse_program(text), monkeypatch)
            for members, labels in components:
                for key in members:
                    if type(key) is not tuple:
                        continue
                    total = sum(weight for _, _, weight in labels.sums[key])
                    threshold = total - key[0] + 1
                    thresholds.add((threshold > 0) + (threshold > total))
        assert thresholds == {0, 1, 2}

    @pytest.mark.parametrize("n", [50, 100])
    def test_rings(self, n, monkeypatch):
        components = self.assert_rows_match(
            parse_program(ring_text(n)), monkeypatch)
        assert [sum(type(key) is str for key in members)
                for members, _ in components] == [n]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_candidate_side_is_the_candidate_parts_atoms(seed):
    """The candidate side read off the build's names is the hold atoms
    and the atoms of the candidate part's rules."""
    rng = random.Random(seed)
    program = random_program(rng, max_atoms=6, minimize=True)
    mp = build(program, random_criteria(rng, program))
    header = "% candidate generation\n"
    printed = "".join(section.removeprefix(header) for section in
                      mp.to_text().split("\n%") if section.startswith(header))
    assert mp.candidate_side == frozenset(candidate_atoms(mp).values()) \
        | core.atoms(parse_program(printed))


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_build_from_printed_facts_is_the_same(seed, choices):
    """The build reads the reification's label tables, never its facts:
    the check program built from a program equals the one built from
    its printed facts read back through ``parse_reified``, so the tables
    and the facts rendered from them describe one program."""
    rng = random.Random(seed)
    program = (choice_program(rng, max_atoms=6) if choices
               else random_program(rng, minimize=True))
    crit = random_criteria(rng, program)
    read = parse_reified(text_to_facts(facts_to_text(reify(program))))
    assert build(read, crit).to_text() == build(program, crit).to_text()


def check_text(program) -> str:
    """``to_text()`` of the program's meta program cut to its check part."""
    mp = build(program)
    return dataclasses.replace(
        mp, candidate_definitions=(), candidate_rules=(), guess=(),
        evaluate=(), saturate=(), compare=(), accept=()).to_text()


#: Three atoms on a cycle; the conjunction of ``a`` has a negated member
#: and two members inside the component, ``c`` also has an external support.
CYCLE_TEXT = """\
{e}.
{n}.
a :- c, not n, b.
b :- a.
c :- b.
c :- e.
"""


class TestCheckText:
    """The check part, rule for rule and in order, pinned as text."""

    def test_toy_component_with_sums_and_conjunctions(self, toy):
        assert check_text(toy) == TOY_CHECK

    def test_cycle_with_negated_member_and_external_support(self):
        assert check_text(parse_program(CYCLE_TEXT)) == CYCLE_CHECK


TOY_CHECK = """\
% answer-set check
bot :- true_conj_0, fail_sum_1_0_2.
bot :- true_conj_1, fail_sum_0_2_1.
bot :- true_conj_2, fail_atom_s.
bot :- true_atom_p, fail_conj_0.
bot :- true_atom_q, fail_conj_1.
bot :- true_atom_r, fail_conj_1.
bot :- true_atom_s, fail_conj_2.
bot :- true_atom_t, fail_conj_0.
wait_atom_p_0.
wait_atom_r_0.
wait_atom_t_0.
wait_atom_p_1 :- fail_atom_p.
wait_atom_p_2 :- fail_atom_p.
wait_atom_p_3 :- fail_atom_p.
wait_atom_r_1 :- fail_atom_r.
wait_atom_r_2 :- fail_atom_r.
wait_atom_r_3 :- fail_atom_r.
wait_atom_t_1 :- fail_atom_t.
wait_atom_t_2 :- fail_atom_t.
wait_atom_t_3 :- fail_atom_t.
sccw_atom_p.
wait_atom_p_1 :- sccw_atom_p, wait_conj_0_0.
wait_atom_p_2 :- sccw_atom_p, wait_conj_0_1.
wait_atom_p_3 :- sccw_atom_p, wait_conj_0_2.
sccw_atom_r.
wait_atom_r_1 :- sccw_atom_r, wait_conj_1_0.
wait_atom_r_2 :- sccw_atom_r, wait_conj_1_1.
wait_atom_r_3 :- sccw_atom_r, wait_conj_1_2.
sccw_atom_t.
wait_atom_t_1 :- sccw_atom_t, wait_conj_0_0.
wait_atom_t_2 :- sccw_atom_t, wait_conj_0_1.
wait_atom_t_3 :- sccw_atom_t, wait_conj_0_2.
wait_conj_0_0 :- fail_conj_0.
wait_conj_0_0 :- wait_sum_1_1_2_0.
wait_conj_0_1 :- fail_conj_0.
wait_conj_0_1 :- wait_sum_1_1_2_1.
wait_conj_0_2 :- fail_conj_0.
wait_conj_0_2 :- wait_sum_1_1_2_2.
wait_conj_1_0 :- fail_conj_1.
wait_conj_1_0 :- wait_sum_1_0_2_0.
wait_conj_1_1 :- fail_conj_1.
wait_conj_1_1 :- wait_sum_1_0_2_1.
wait_conj_1_2 :- fail_conj_1.
wait_conj_1_2 :- wait_sum_1_0_2_2.
wait_sum_1_1_2_0 :- fail_sum_1_1_2.
wait_sum_1_1_2_0 :- 3 #sum[wait_atom_r_0=1,fail_atom_s=1,true_atom_t=1].
wait_sum_1_1_2_1 :- fail_sum_1_1_2.
wait_sum_1_1_2_1 :- 3 #sum[wait_atom_r_1=1,fail_atom_s=1,true_atom_t=1].
wait_sum_1_1_2_2 :- fail_sum_1_1_2.
wait_sum_1_1_2_2 :- 3 #sum[wait_atom_r_2=1,fail_atom_s=1,true_atom_t=1].
wait_sum_1_0_2_0 :- fail_sum_1_0_2.
wait_sum_1_0_2_0 :- 2 #sum[wait_atom_p_0=1,wait_atom_t_0=1].
wait_sum_1_0_2_1 :- fail_sum_1_0_2.
wait_sum_1_0_2_1 :- 2 #sum[wait_atom_p_1=1,wait_atom_t_1=1].
wait_sum_1_0_2_2 :- fail_sum_1_0_2.
wait_sum_1_0_2_2 :- 2 #sum[wait_atom_p_2=1,wait_atom_t_2=1].
bot :- true_atom_p, wait_atom_p_3.
bot :- true_atom_r, wait_atom_r_3.
bot :- true_atom_t, wait_atom_t_3.
"""

CYCLE_CHECK = """\
% answer-set check
bot :- true_conj_0, fail_sum_0_0_1.
bot :- true_conj_0, fail_sum_0_1_1.
bot :- true_conj_1, fail_atom_a.
bot :- true_conj_2, fail_atom_b.
bot :- true_conj_3, fail_atom_c.
bot :- true_conj_4, fail_atom_c.
bot :- true_atom_a, fail_conj_1.
bot :- true_atom_b, fail_conj_2.
bot :- true_atom_c, fail_conj_3, fail_conj_4.
bot :- true_atom_e, fail_conj_0.
bot :- true_atom_n, fail_conj_0.
wait_atom_a_0.
wait_atom_b_0.
wait_atom_c_0.
wait_atom_a_1 :- fail_atom_a.
wait_atom_a_2 :- fail_atom_a.
wait_atom_a_3 :- fail_atom_a.
wait_atom_b_1 :- fail_atom_b.
wait_atom_b_2 :- fail_atom_b.
wait_atom_b_3 :- fail_atom_b.
wait_atom_c_1 :- fail_atom_c.
wait_atom_c_2 :- fail_atom_c.
wait_atom_c_3 :- fail_atom_c.
sccw_atom_a.
wait_atom_a_1 :- sccw_atom_a, wait_conj_1_0.
wait_atom_a_2 :- sccw_atom_a, wait_conj_1_1.
wait_atom_a_3 :- sccw_atom_a, wait_conj_1_2.
sccw_atom_b.
wait_atom_b_1 :- sccw_atom_b, wait_conj_2_0.
wait_atom_b_2 :- sccw_atom_b, wait_conj_2_1.
wait_atom_b_3 :- sccw_atom_b, wait_conj_2_2.
sccw_atom_c :- fail_conj_4.
wait_atom_c_1 :- sccw_atom_c, wait_conj_3_0.
wait_atom_c_2 :- sccw_atom_c, wait_conj_3_1.
wait_atom_c_3 :- sccw_atom_c, wait_conj_3_2.
wait_conj_1_0 :- fail_conj_1.
wait_conj_1_0 :- wait_atom_c_0.
wait_conj_1_0 :- wait_atom_b_0.
wait_conj_1_1 :- fail_conj_1.
wait_conj_1_1 :- wait_atom_c_1.
wait_conj_1_1 :- wait_atom_b_1.
wait_conj_1_2 :- fail_conj_1.
wait_conj_1_2 :- wait_atom_c_2.
wait_conj_1_2 :- wait_atom_b_2.
wait_conj_2_0 :- fail_conj_2.
wait_conj_2_0 :- wait_atom_a_0.
wait_conj_2_1 :- fail_conj_2.
wait_conj_2_1 :- wait_atom_a_1.
wait_conj_2_2 :- fail_conj_2.
wait_conj_2_2 :- wait_atom_a_2.
wait_conj_3_0 :- fail_conj_3.
wait_conj_3_0 :- wait_atom_b_0.
wait_conj_3_1 :- fail_conj_3.
wait_conj_3_1 :- wait_atom_b_1.
wait_conj_3_2 :- fail_conj_3.
wait_conj_3_2 :- wait_atom_b_2.
bot :- true_atom_a, wait_atom_a_3.
bot :- true_atom_b, wait_atom_b_3.
bot :- true_atom_c, wait_atom_c_3.
"""


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
    """Full disjunctive enumeration of the generated program, as printed
    and parsed back, must agree with the structure-exploiting solver on
    small instances."""

    CASES = [
        ("a.", ""),
        ("a :- not b. b :- not a.", ""),
        ("a :- a.", ""),
        ("a :- b.", ""),
        ("{a}.\n#minimize[a=1@1].", "optimize(1,1,incl)."),
        ("{a}. {b}. #minimize[a=1@1,b=1@1].", "optimize(1,1,incl)."),
    ]

    @pytest.mark.parametrize("text,crit_text", CASES)
    def test_projections_match(self, text, crit_text):
        program = parse_program(text)
        mp = build(program, parse_criteria(crit_text))
        brute = enumerate_answer_sets(parse_program(mp.to_text()), cap=24)
        projections = sorted({hold_projection(z, mp) for z in brute},
                             key=lambda s: sorted(a.name for a in s))
        assert projections == solve_meta(mp)
        assert len(brute) == len(projections)  # unique per projection


@given(st.integers(0, 2**32 - 1), st.booleans())
@example(None, True)
@settings(max_examples=100, deadline=None)
def test_printed_check_program_solved_generically(seed, choices):
    """The paper's route: the printed check program, parsed back and
    solved by generic disjunctive enumeration, has one answer set per
    optimum, whose hold atoms are the optimum of the meta solver and of
    the native route.  Seed None is the 8-choice chain under inclusion,
    whose check program has 110 atoms, each of its 255 saturated
    candidates a minimality search over the 2^8 guesses."""
    if seed is None:
        program, crit = parse_program(chain_text(8)), INCL
    else:
        rng = random.Random(seed)
        program = (choice_program if choices else random_program)(
            rng, max_atoms=6)
        crit = random_criteria(rng, program)
    mp = build(program, crit)
    brute = enumerate_answer_sets(parse_program(mp.to_text()), cap=1000)
    projections = sorted({hold_projection(z, mp) for z in brute},
                         key=lambda s: sorted(a.name for a in s))
    assert projections == solve_meta(mp) == optimal_answer_sets(
        program, effective_criteria(crit, program.minimize))
    assert len(brute) == len(projections)


class TestPairProjection:
    """Without comparison and acceptance, the meta answer sets pair a
    candidate answer set with a counterexample answer set, uniquely."""

    def test_two_answer_set_program(self):
        program = parse_program("a :- not b. b :- not a.")
        mp = build(program)
        partial = parse_program(
            dataclasses.replace(mp, compare=(), accept=()).to_text())
        object_sets = set(enumerate_answer_sets(program))
        pairs = []
        for z in enumerate_answer_sets(partial, cap=16):
            assert BOT not in z
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


def guess_seed(solver, y):
    """Closure indexes of the guess atoms of the guess mask ``y``."""
    n = len(solver.object_atoms)
    return [i if y >> i & 1 else n + i for i in range(n)]


class TestSaturationSoundness:
    def test_bot_exactly_on_refuted_guesses(self, toy_min):
        mp = build(toy_min, INCL)
        solver = MetaSolver(mp)
        answer_sets = set(enumerate_answer_sets(toy_min))

        held = {solver.decode(solver.project(m)): m
                for m in solver.stable_candidates()}

        def refuted_guesses(candidate):
            conditions = solver.conditions(held[candidate])
            refuted = {y for y in every_set(solver) if solver._closure.start(
                conditions + guess_seed(solver, mask(solver, y)),
                solver._bot) is None}
            assert solver.refutes(conditions) == (refuted == every_set(solver))
            return refuted

        # optimal candidate: every guess is refuted
        assert refuted_guesses(iset("s,t")) == every_set(solver)
        # dominated candidate: refuted by every guess except its dominator
        missing = every_set(solver) - refuted_guesses(iset("p,s"))
        assert missing == {iset("s,t")}
        # non-answer-set guesses always yield bot
        for candidate in (iset("s,t"), iset("p,s")):
            assert all(y in refuted_guesses(candidate)
                       for y in every_set(solver) if y not in answer_sets)

    def test_walk_prunes_exactly_where_bot_is_derived(self, toy_min):
        solver = MetaSolver(build(toy_min, INCL))
        closure, bot = solver._closure, solver._bot
        n = len(solver.object_atoms)
        walks = []  # per candidate: its conditions and {prefix: survived}
        prefix_of = {}
        alive = []  # keeps every state alive, so its id stays unique

        def start(seed, goal, state=None):
            seed = list(seed)
            closed = HornClosure.start(closure, seed, goal, state)
            # a walk starts from root with the conditions alone; a kept
            # guess is closed from root too, but from its guess atoms
            if state is None and all(i > bot for i in seed):
                walks.append((seed, {}))
                if closed is not None:
                    prefix_of[id(closed)] = ()
                    alive.append(closed)
            return closed

        def extend(state, atom, goal):
            seed, visited = walks[-1]
            depth = len(prefix_of[id(state)])
            assert atom in (depth, n + depth)
            prefix = prefix_of[id(state)] + (atom,)
            assert prefix not in visited
            child = HornClosure.extend(closure, state, atom, goal)
            visited[prefix] = child is not None
            if child is not None:
                prefix_of[id(child)] = prefix
                alive.append(child)
            return child

        closure.start, closure.extend = start, extend
        assert solver.solve() == [iset("p,q"), iset("p,r"), iset("s,t")]
        # one walk per accepted candidate and one for the first rejected
        # one, all its conditions closed once; the guess that walk kept
        # rejects the other dominated candidate without a walk
        assert len(walks) == 4 and len(solver._kept) == 1
        for seed, visited in walks:
            for prefix, survived in visited.items():
                refuted = HornClosure.start(closure, seed + list(prefix), bot)
                assert (refuted is None) != survived
        # pruning keeps each walk under half the tree of partial guesses
        full_tree = 2 * ((1 << n) - 1)
        assert all(len(visited) < full_tree // 2 for _, visited in walks)

    @staticmethod
    def walks(solver) -> list[list[int]]:
        """The seeds of the walks ``solver`` makes from now on: each
        starts from root with its candidate's conditions alone."""
        closure, bot = solver._closure, solver._bot
        seeds = []

        def start(seed, goal, state=None):
            seed = list(seed)
            if state is None and all(i > bot for i in seed):
                seeds.append(seed)
            return HornClosure.start(closure, seed, goal, state)

        closure.start = start
        return seeds

    def test_kept_guesses_reject_a_chain_without_walks(self):
        k = 8
        solver = MetaSolver(build(parse_program(chain_text(k)), INCL))
        walks = self.walks(solver)
        optima = [iset(f"a{i},b{i}") for i in range(k - 1)]
        assert solver.solve() == optima + [iset(f"a{k - 1}")]
        # a walk per optimum, and one per kept guess; without the kept
        # guesses, each of the 2^k - 1 stable candidates walks
        assert len(walks) == 2 * k - 1 and len(solver._kept) == k - 1

    def test_nothing_kept_when_every_candidate_is_optimal(self):
        text = "{a}. {b}. {c}.\n#minimize[" + ", ".join(
            f"{lit}=1@1" for a in "abc" for lit in (a, f"not {a}")) + "]."
        solver = MetaSolver(build(parse_program(text), INCL))
        walks = self.walks(solver)
        assert len(solver.solve()) == 8
        assert len(walks) == 8 and solver._kept == []

    def test_solver_memory_does_not_grow_with_guesses(self):
        text = "".join(f"{{a{i}}}.\n" for i in range(26))
        mp = build(parse_program(text))
        tracemalloc.start()
        try:
            solver = MetaSolver(mp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(solver.object_atoms) == 26
        assert peak < 1 << 20

    @pytest.mark.parametrize("part,text", [
        ("compare", "true_atom_p :- hold_atom_p."),
        ("compare", "true_conj_0 :- hold_atom_p."),
        ("compare", "bot :- true_conj_0."),
        ("compare", "bot :- 1 #sum[hold_atom_p=1]."),
        ("evaluate", "true_conj_0 :- hold_atom_p."),
        ("check", "true_atom_p :- true_conj_0."),
        # compare rules outside the closure's shape
        ("compare", "a :- not b."),
        ("compare", "a :- not true_atom_p."),
        ("compare", "a :- not true_conj_0."),
        ("compare", "a :- 1 #sum[not b=1]."),
        ("compare", "a :- 1 #sum[not hold_atom_p=1]."),
    ])
    def test_split_structure_is_checked(self, toy_min, part, text):
        """Rows that would make the counterexample side other than a
        positive closure over the guess atoms and the candidate
        conditions are refused.  A compare row holds ``not <name>`` only
        for a candidate-side name, and a sum entry never.  Rows have a
        one-atom head, so the compare cases ``a | b.`` and ``:- a.`` went
        with the ``Rule`` form of that part."""
        mp = build(toy_min, INCL)
        extra = tuple(map(row_of_rule, parse_program(text).rules))
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


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_hold_atoms_lead_the_candidate_layout(seed, choices):
    """The hold atom of object atom i is bit i of the candidate part, so
    the search decides the hold atoms before any other candidate-side
    atom, and a candidate-side mask projects by its low bits."""
    rng = random.Random(seed)
    program = (choice_program if choices else random_program)(
        rng, max_atoms=8)
    solver = MetaSolver(build(program))
    n = len(solver.object_atoms)
    holds = [candidate_atoms(solver.mp)[a] for a in solver.object_atoms]
    assert list(solver._candidate.atoms[:n]) == holds
    assert sorted(solver._search.order[:n]) == list(range(n))
    for held in solver.stable_candidates():
        assert solver.project(held) == held & ((1 << n) - 1)
        assert solver.decode(solver.project(held)) == hold_projection(
            solver._candidate.decode(held), solver.mp)


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

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_many_answer_sets_agree(self, seed):
        rng = random.Random(seed)
        program = choice_program(rng, max_atoms=10)
        report = crosscheck(program, random_criteria(rng, program))
        assert report.agree, render_program(program)

    def test_report_difference(self, toy_min):
        report = crosscheck(toy_min, INCL)
        assert report.difference == ()


def kept_guesses_met(program, crit) -> int:
    """Kept guesses change no answer: one solver for every candidate
    accepts what a fresh solver per candidate accepts.  Returns how many
    stable candidates met a kept guess."""
    mp = build(program, crit)
    assert solve_meta(mp) == fresh_meta_solve(mp)
    solver = MetaSolver(mp)
    met = 0
    for held in solver.stable_candidates():
        met += bool(solver._kept)
        solver.accepted(held)
    return met


def test_kept_guesses_accept_what_fresh_walks_accept():
    """``random_program`` draws seldom have two answer sets, so the loop
    is long and counts the candidates that met a kept guess."""
    rng = random.Random(83)
    met = 0
    for _ in range(600):
        program = random_program(rng, max_atoms=6, max_rules=6,
                                 minimize=True)
        met += kept_guesses_met(program, random_criteria(rng, program))
    assert met >= 30, met


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_kept_guesses_accept_what_fresh_walks_accept_on_choices(seed):
    rng = random.Random(seed)
    program = choice_program(rng, max_atoms=5)
    kept_guesses_met(program, random_criteria(rng, program))


class TestRejection:
    """Why the meta route rejects an object set, on a 3-choice chain."""

    def solver(self):
        return MetaSolver(build(parse_program(chain_text(3)), INCL))

    def test_two_set_is_escaped_by_a_singleton(self):
        solver = self.solver()
        assert solver.rejection(mask(solver, iset("a0,a2,b0"))) == iset("a2")

    def test_optimum_gets_no_witness(self):
        solver = self.solver()
        with pytest.raises(ValueError):
            solver.rejection(mask(solver, iset("a0,b0")))

    def test_non_answer_sets_are_not_stable_candidates(self):
        solver = self.solver()
        for x in (iset("a0"), iset("")):
            assert solver.rejection(mask(solver, x)) is None

    def test_crosscheck_reports_each_set_only_native_has(self, monkeypatch):
        program = parse_program(chain_text(3))
        claimed = [iset("a0,b0"), iset("a0,a2,b0"), iset("a0")]
        monkeypatch.setattr("aspkit.metaenc.optimal_answer_sets",
                            lambda *_, **__: claimed)
        report = crosscheck(program, INCL)
        assert not report.agree
        assert report.rejections == (
            (iset("a0,a2,b0"), iset("a2")), (iset("a0"), None))
        monkeypatch.undo()
        assert crosscheck(program, INCL).rejections == ()


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
        text = facts_to_text(reify(toy_min))
        shifted = (text.replace("conjunction(2", "conjunction(9")
                   .replace("set(2,", "set(9,"))
        assert shifted != text
        mp = build_meta_program(parse_reified(text_to_facts(shifted)), INCL)
        assert mp.to_text() == build(toy_min, INCL).to_text()
        assert solve_meta(mp) == [iset("p,q"), iset("p,r"), iset("s,t")]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_adding_an_implied_criterion_changes_nothing(seed):
    """Non-empty criteria that name the card relation effective_criteria
    adds anyway for an uncovered minimize group build the same check
    program, and give the same meta optimum and crosscheck report."""
    rng = random.Random(seed)
    program = random_program(rng, max_atoms=6, max_rules=8, minimize=True)
    crit = random_criteria(rng, program)
    uncovered = [key for key in program.minimize.group_keys()
                 if crit.criterion_at(*key) is None]
    assume(crit.relations and uncovered)
    relations = list(crit.relations)
    relations.insert(rng.randint(0, len(relations)),
                     (*rng.choice(uncovered), "card"))
    implied = CriteriaSet(tuple(relations), crit.prefer)
    mp, implied_mp = build(program, crit), build(program, implied)
    assert implied_mp.to_text() == mp.to_text()
    assert solve_meta(implied_mp) == solve_meta(mp)
    assert crosscheck(program, implied) == crosscheck(program, crit)
