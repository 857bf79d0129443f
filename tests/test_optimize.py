import dataclasses
import logging
import random
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspkit.core import (
    CRITERIA,
    Atom,
    ContractViolationError,
    CriteriaSet,
    Interpretation,
    Literal,
    MinimizeStatement,
    Program,
    Rule,
    SumConstraint,
    WeightedLiteral,
    atoms,
)
from aspkit import optimize
from aspkit.metaenc import build_meta_program, solve_meta
from aspkit.optimize import (
    CompiledCriteria,
    DominanceVerdict,
    default_optimal,
    dominates,
    optimal_answer_sets,
)
from aspkit.parser import parse_criteria, parse_program
from aspkit.reify import reify
from aspkit.semantics import answer_set_masks, enumerate_answer_sets
from generators import choice_program, iset, random_criteria, random_program
from reference import satisfies

SEEDS = st.integers(0, 2**32 - 1)
logger = logging.getLogger(__name__)


# -- reference: the syntactic dominance test, one satisfies call per literal --


@dataclass(frozen=True)
class GroupKey:
    """Identifies the minimize occurrences at one level and weight."""

    level: int
    weight: int


def _count(x: Interpretation, key: GroupKey, m: MinimizeStatement) -> int:
    """Occurrences in the group satisfied by ``x`` (duplicates count)."""
    return sum(1 for e in m.group(key.level, key.weight)
               if satisfies(x, e.literal))


def _group_literals(key: GroupKey, m: MinimizeStatement) -> tuple[Literal, ...]:
    seen: list[Literal] = []
    for e in m.group(key.level, key.weight):
        if e.literal not in seen:
            seen.append(e.literal)
    return tuple(seen)


def leq_at(x: Interpretation, y: Interpretation, key: GroupKey,
           m: MinimizeStatement) -> bool:
    """Whether ``x``'s satisfied-occurrence count is at most ``y``'s."""
    return _count(x, key, m) <= _count(y, key, m)


def incl_at(x: Interpretation, y: Interpretation, key: GroupKey,
            m: MinimizeStatement) -> bool:
    """Whether every group literal satisfied by ``x`` is satisfied by ``y``."""
    return all(satisfies(y, e.literal)
               for e in m.group(key.level, key.weight)
               if satisfies(x, e.literal))


def pref_at(x: Interpretation, y: Interpretation, key: GroupKey,
            m: MinimizeStatement, prefer) -> bool:
    """Whether ``x`` is preferable to ``y``: some preference pair
    (l1, l2) of group literals has l1 satisfied by ``x`` only and l2 by
    ``y`` only, and no ``y``-only literal l defeats l1 via l <= l1
    without l1 <= l."""
    literals = _group_literals(key, m)
    inside = set(literals)
    pairs = set()
    for first, second in prefer:
        if first in inside and second in inside:
            pairs.add((first, second))
        else:
            logger.debug("prefer pair (%s, %s) ignored: outside group %s@%s",
                         first, second, key.weight, key.level)
    x_only = [l for l in literals if satisfies(x, l) and not satisfies(y, l)]
    y_only = [l for l in literals if satisfies(y, l) and not satisfies(x, l)]
    for l1 in x_only:
        if not any((l1, l2) in pairs for l2 in y_only):
            continue
        defeated = any(
            (l, l1) in pairs and (l1, l) not in pairs for l in y_only)
        if not defeated:
            return True
    return False


def reference_dominates(y: Interpretation, x: Interpretation,
                        m: MinimizeStatement,
                        crit: CriteriaSet) -> DominanceVerdict:
    """Whether ``y`` dominates ``x``: some criterion group (J, w) fails
    x <= y while every criterion at a level >= J has y <= x."""

    def relation(a, b, level, weight, criterion):
        key = GroupKey(level, weight)
        if criterion == "card":
            return leq_at(a, b, key, m)
        if criterion == "incl":
            return incl_at(a, b, key, m)
        return pref_at(a, b, key, m, crit.prefer)

    ordered = sorted(crit.relations, key=lambda r: (-r[0], r[1], r[2]))
    for level, weight, criterion in ordered:
        if relation(x, y, level, weight, criterion):
            continue
        if all(relation(y, x, lv2, w2, c2)
               for lv2, w2, c2 in crit.relations if lv2 >= level):
            return DominanceVerdict(True, level, weight)
    return DominanceVerdict(False)


# -- one-relation dominance: the former leq_at/incl_at/pref_at cases ---------


def statement(text) -> MinimizeStatement:
    return parse_program(f"#minimize[{text}].").minimize


TOY_STATEMENT = "p=1@1, q=1@1, r=1@1, s=1@1"
DOMINATED = DominanceVerdict(True, 1, 1)
UNDOMINATED = DominanceVerdict(False)


def verdict(y, x, m, criterion, prefer=()) -> DominanceVerdict:
    """``dominates`` under the one relation (1, 1, criterion), checked
    against the reference."""
    crit = CriteriaSet(((1, 1, criterion),), prefer)
    found = dominates(iset(y), iset(x), m, crit)
    assert found == reference_dominates(iset(y), iset(x), m, crit)
    return found


class TestLeq:
    def test_counts_satisfied_occurrences(self):
        m = statement(TOY_STATEMENT)
        assert verdict("p,q", "s,t", m, "card") == UNDOMINATED   # 1 <= 2
        assert verdict("s,t", "p,q", m, "card") == DOMINATED

    def test_reflexive(self):
        m = statement(TOY_STATEMENT)
        assert verdict("p,q", "p,q", m, "card") == UNDOMINATED

    def test_duplicates_counted(self):
        m = statement("p=1@1, p=1@1, q=1@1, r=1@1")
        assert verdict("q,r", "p", m, "card") == UNDOMINATED     # 2 <= 2
        assert verdict("p", "q,r", m, "card") == UNDOMINATED
        assert verdict("q,r", "p,q", m, "card") == DOMINATED     # 3 > 2


class TestIncl:
    def test_subset_of_satisfied_literals(self):
        m = statement(TOY_STATEMENT)
        assert verdict("s,t", "p,s", m, "incl") == DOMINATED
        assert verdict("p,s", "s,t", m, "incl") == UNDOMINATED
        assert verdict("p,r", "p,q", m, "incl") == UNDOMINATED
        assert verdict("p,q", "p,r", m, "incl") == UNDOMINATED

    def test_reflexive(self):
        m = statement(TOY_STATEMENT)
        assert verdict("p,q", "p,q", m, "incl") == UNDOMINATED

    def test_only_group_literals_matter(self):
        m = statement("p=1@1, q=2@1")
        # q sits at weight 2, so the (1,1) group ignores it
        assert verdict("", "q", m, "incl") == UNDOMINATED
        assert verdict("q", "", m, "incl") == UNDOMINATED


class TestPref:
    def test_simple_preference(self):
        m = statement("a=1@1, b=1@1")
        prefer = ((Literal(Atom("a")), Literal(Atom("b"))),)
        assert verdict("a", "b", m, "pref", prefer) == DOMINATED
        assert verdict("b", "a", m, "pref", prefer) == UNDOMINATED

    def test_irreflexive(self):
        m = statement("a=1@1, b=1@1")
        prefer = ((Literal(Atom("a")), Literal(Atom("b"))),)
        assert verdict("a", "a", m, "pref", prefer) == UNDOMINATED

    def test_defeater_blocks(self):
        m = statement("a=1@1, b=1@1, c=1@1")
        a, b, c = (Literal(Atom(n)) for n in "abc")
        prefer = ((a, b), (c, a))
        # c is satisfied by y only and c <= a without a <= c: {a} is not
        # preferable to {b,c}, while {b,c} is preferable to {a} via c
        assert verdict("b,c", "a", m, "pref", prefer) == DOMINATED
        assert verdict("a", "b,c", m, "pref", prefer) == UNDOMINATED
        assert verdict("a", "b", m, "pref", prefer) == DOMINATED

    def test_pairs_outside_group_ignored(self):
        m = statement("a=1@1, b=1@1")
        prefer = ((Literal(Atom("a")), Literal(Atom("z"))),)
        assert verdict("a", "b", m, "pref", prefer) == UNDOMINATED
        assert verdict("b", "a", m, "pref", prefer) == UNDOMINATED


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


def corpus(seed, **criteria):
    """(program, criteria) draws: 50 of ``random_program``, where most
    draws have at most one answer set, then 100 of ``choice_program``
    over two criterion groups, where most interpretations are answer
    sets, so that properties over pairs of answer sets see many pairs."""
    rng = random.Random(seed)
    for _ in range(50):
        program = random_program(rng, max_atoms=6, max_rules=8,
                                 minimize=True)
        yield program, random_criteria(rng, program, **criteria)
    grid = {"levels": (1, 2), "weights": (1,)}
    for _ in range(100):
        program = choice_program(rng, max_atoms=4, **grid)
        yield program, random_criteria(rng, program, **grid, **criteria)


class TestRandomCorpusProperties:
    def test_no_self_domination_anywhere(self):
        """No answer set dominates itself, and between two answer sets
        dominance is the syntactic reference's."""
        several = 0
        for program, crit in corpus(43):
            answer_sets = enumerate_answer_sets(program)
            several += len(answer_sets) >= 2
            for x in answer_sets:
                assert not dominates(x, x, program.minimize, crit).dominated
            assert_matches_reference(program, crit)
        assert several >= 100

    def test_card_incl_optimum_nonempty(self):
        several = 0
        for program, crit in corpus(47, criteria=("card", "incl"),
                                    empty_chance=0.0):
            answer_sets = enumerate_answer_sets(program)
            several += len(answer_sets) >= 2
            optimal = optimal_answer_sets(program, crit)
            assert bool(optimal) == bool(answer_sets)
            assert set(optimal) <= set(answer_sets)
        assert several >= 100

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


# -- the compiled comparator against the syntactic reference ------------------


def draw_case(seed, closed, outside, unmatched):
    """A random program with a minimize statement and criteria over it;
    optionally the preference closed, a prefer pair with a literal
    outside every group, and a relation at a group with no occurrence.
    Half the programs are ``choice_program`` draws with groups at two
    levels, because ``random_program`` draws rarely have two answer sets
    to compare.  They are compared by ``pref``, with a chain l < l1 < l2
    of three literals of one group among the prefer pairs, so that a
    ``y``-only l defeating l1 decides some pairs."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        grid = {"levels": (1, 2), "weights": (1,)}
        program = choice_program(rng, max_atoms=4, **grid)
        crit = random_criteria(rng, program, criteria=("pref",), **grid)
        level = rng.choice(grid["levels"])
        group = sorted({e.literal for e in program.minimize.entries
                        if e.level == level})
        if len(group) >= 3:
            low, middle, high = rng.sample(group, 3)
            crit = CriteriaSet(crit.relations, crit.prefer
                               + ((low, middle), (middle, high)))
    else:
        program = random_program(rng, max_atoms=6, max_rules=8, minimize=True)
        crit = random_criteria(rng, program)
    relations, prefer = crit.relations, crit.prefer
    if outside:
        literals = [e.literal for e in program.minimize.entries]
        stray = Literal(Atom("z"), rng.random() < 0.5)
        pair = (rng.choice(literals), stray) if literals else (stray, stray)
        prefer += (pair if rng.random() < 0.5 else pair[::-1],)
    if unmatched:
        relations += ((rng.choice((1, 3)), 3, rng.choice(CRITERIA)),)
    crit = CriteriaSet(relations, prefer)
    return program, crit.with_prefer_closure() if closed else crit


def free_case(seed, criteria, closed):
    """Most random programs have at most one answer set.  Here every
    subset of at most four atoms is one, and all minimize entries share
    one group, so duplicate occurrences, literal patterns and chains of
    prefer pairs meet often."""
    rng = random.Random(seed)
    minimize = random_program(rng, max_atoms=4, max_rules=1, minimize=True,
                              levels=(1,), weights=(1,)).minimize
    program = Program(
        tuple(Rule(SumConstraint(None, (WeightedLiteral(Literal(a)),)))
              for a in sorted(atoms(Program((), minimize)))),
        minimize)
    crit = random_criteria(rng, program, criteria=criteria, levels=(1,),
                           weights=(1,), empty_chance=0.0)
    return program, crit.with_prefer_closure() if closed else crit


def assert_matches_reference(program, crit):
    m = program.minimize
    answer_sets = enumerate_answer_sets(program)
    for y in answer_sets:
        for x in answer_sets:
            assert dominates(y, x, m, crit) == \
                reference_dominates(y, x, m, crit), (y, x)
    assert optimal_answer_sets(program, crit) == [
        x for x in answer_sets
        if not any(reference_dominates(y, x, m, crit).dominated
                   for y in answer_sets if y != x)]


@given(SEEDS, st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_dominates_matches_reference(seed, closed, outside, unmatched):
    assert_matches_reference(*draw_case(seed, closed, outside, unmatched))


@given(SEEDS, st.sampled_from([("card",), ("incl",), ("pref",), CRITERIA]),
       st.booleans())
@settings(max_examples=400, deadline=None)
def test_dominates_matches_reference_on_one_free_group(seed, criteria,
                                                       closed):
    assert_matches_reference(*free_case(seed, criteria, closed))


def test_group_without_occurrences():
    # card and incl hold both ways on a group with no minimize occurrence
    # and pref holds neither way, so only pref there blocks dominance
    m = statement("a=1@1, b=1@1")
    for criterion in ("card", "incl", "pref"):
        alone = CriteriaSet(((9, 9, criterion),))
        assert dominates(iset("a"), iset("a,b"), m, alone) == UNDOMINATED
        above = CriteriaSet(((9, 9, criterion), (1, 1, "incl")))
        assert dominates(iset("a"), iset("a,b"), m, above) == (
            UNDOMINATED if criterion == "pref" else DOMINATED)


def test_witness_is_the_first_relation_of_its_level():
    # {} ties with x at level 2 and is at least as good at every relation
    # of level 1; the verdict names the first level-1 relation x fails
    m = statement("c=1@2, a=1@1, b=2@1")
    crit = CriteriaSet(((2, 1, "card"), (1, 1, "incl"), (1, 2, "card")))
    for x, weight in (("a,b", 1), ("b", 2), ("a", 1)):
        found = dominates(iset(""), iset(x), m, crit)
        assert found == reference_dominates(iset(""), iset(x), m, crit)
        assert found == DominanceVerdict(True, 1, weight)


def free_program(text) -> Program:
    """Independent choices over the atoms of the minimize statement
    ``text``, under it: every subset is an answer set."""
    m = statement(text)
    return Program(tuple(
        Rule(SumConstraint(None, (WeightedLiteral(Literal(a)),)))
        for a in sorted(atoms(Program((), m)))), m)


BOTH_POLARITIES = ", ".join(f"{a}=1@{{level}}, not {a}=1@{{level}}"
                            for a in "abcdefgh")


def pairs(text) -> tuple[tuple[Literal, Literal], ...]:
    """Prefer pairs written ``l1>l2``, a ``-`` marking a negated literal."""
    def literal(name):
        return Literal(Atom(name.lstrip("-")), name.startswith("-"))
    return tuple(tuple(map(literal, pair.split(">"))) for pair in text.split())


@pytest.mark.parametrize("text,relations,optimal", [
    # the frontier shape: 256 distinct incl values at the top level, two
    # of which always differ both ways, so nothing is dominated; below
    # it a card group with duplicate occurrences and a relation at a
    # group without occurrences
    (BOTH_POLARITIES.format(level=2) + ", a=1@1, a=1@1, b=1@1, c=2@1",
     CriteriaSet(((2, 1, "incl"), (1, 1, "card"), (1, 2, "incl"),
                  (3, 5, "card"))), 256),
    # the same incl group below a card group with duplicate occurrences,
    # which alone decides, and incl and card relations at groups without
    # occurrences at the top
    (BOTH_POLARITIES.format(level=1) + ", a=1@2, a=1@2, b=1@2, c=1@2",
     CriteriaSet(((1, 1, "incl"), (2, 1, "card"), (3, 5, "incl"),
                  (3, 6, "card"))), 32),
    # two incl groups at one level, Pareto-wise: every atom positive in
    # one (256 distinct values), four atoms negated in the other; only
    # the subsets of those four are undominated
    ("a=1, b=1, c=1, d=1, e=1, f=1, g=1, h=1, "
     "not a=2, not b=2, not c=2, not d=2",
     CriteriaSet(((1, 1, "incl"), (1, 2, "incl"))), 16),
    # incl and card with duplicate occurrences at one level: only {}
    # and {c} keep the fewest occurrences among their subsets
    ("a=1, b=1, c=1, d=1, e=1, f=1, g=1, h=1, a=2, a=2, b=2, not c=2",
     CriteriaSet(((1, 1, "incl"), (1, 2, "card"))), 2),
    # pref over 256 distinct values: a chain a < b < c < d < not e of
    # prefer pairs, and g defeating c; the card group below decides
    # between sets preferable to each other
    (BOTH_POLARITIES.format(level=2) + ", a=1@1, b=1@1, c=1@1",
     CriteriaSet(((2, 1, "pref"), (1, 1, "card")),
                 pairs("a>b b>c c>d d>-e g>c")), 36),
])
def test_dominance_tables_match_reference(text, relations, optimal):
    """The card and incl standings, made in time linear per value, and
    the pairwise pref tables select what the pairwise reference selects,
    on 256 answer sets.  ``relations`` holds the criteria."""
    program = free_program(text)
    m = program.minimize
    answer_sets = enumerate_answer_sets(program)
    assert len(answer_sets) == 256
    expected = [x for x in answer_sets
                if not any(reference_dominates(y, x, m, relations).dominated
                           for y in answer_sets if y != x)]
    assert len(expected) == optimal
    assert optimal_answer_sets(program, relations) == expected


def test_incl_standings_memory_is_linear_in_the_vectors():
    """12 independent choices under one incl group holding both
    polarities of every atom: all 4,096 answer sets are optimal, and
    ``undominated`` finds them within memory linear in the vectors (two
    masks per distinct value take over 5 MiB here)."""
    names = [f"a{i}" for i in range(12)]
    program = free_program(", ".join(f"{a}=1@2, not {a}=1@2"
                                     for a in names))
    compiled, masks = answer_set_masks(program, 12)
    criteria = CompiledCriteria(program.minimize,
                                CriteriaSet(((2, 1, "incl"),)), compiled.bit)
    scores = [criteria.score(x) for x in masks]
    tracemalloc.start()
    try:
        undominated = criteria.undominated(scores)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(undominated) == 4096
    assert peak < 1 << 20


def test_pref_standings_test_each_ordered_pair_of_values_once(monkeypatch):
    """The pref standings of 16 answer sets holding 8 distinct values of
    a pref group (e is outside it) call the group's preference test once
    per ordered pair of distinct values: 8 * 8 calls, not twice that."""
    make = optimize._preference
    calls = []

    def counted(*args):
        preferable = make(*args)

        def test(x, y):
            calls.append((x, y))
            return preferable(x, y)

        return test

    monkeypatch.setattr(optimize, "_preference", counted)
    program = free_program("a=1@1, b=1@1, c=1@1, e=1@2")
    compiled, masks = answer_set_masks(program, 4)
    criteria = CompiledCriteria(
        program.minimize,
        CriteriaSet(((1, 1, "pref"), (2, 1, "card")), pairs("a>b b>c")),
        compiled.bit)
    scores = [criteria.score(x) for x in masks]
    assert len(masks) == 16 and len({score[1] for score in scores}) == 8
    undominated = criteria.undominated(scores)
    assert len(calls) == 8 * 8
    assert len(set(calls)) == len(calls)
    assert undominated == {
        score for score in scores
        if not any(criteria.dominates(other, score).dominated
                   for other in scores)}


# -- metamorphic properties of the optimum ------------------------------------


def rename(value, mapping):
    """``value`` with every atom replaced through ``mapping``."""
    if isinstance(value, Atom):
        return mapping[value]
    if isinstance(value, tuple):
        return tuple(rename(item, mapping) for item in value)
    if dataclasses.is_dataclass(value):
        return type(value)(**{f.name: rename(getattr(value, f.name), mapping)
                              for f in dataclasses.fields(value)})
    return value


def metamorphic_case(seed, closed, free):
    if free:
        return free_case(seed, CRITERIA, closed)
    return draw_case(seed, closed, False, False)


def meta_optimum(program, crit):
    return solve_meta(build_meta_program(reify(program), crit))


def check_renaming(solve, seed, closed, free):
    """An atom renaming that reverses the sorted order renames the
    optimum."""
    program, crit = metamorphic_case(seed, closed, free)
    universe = sorted(atoms(program))
    mapping = dict(zip(universe, reversed(universe)))
    renamed = rename(program, mapping)
    expected = {frozenset(mapping[a] for a in x) for x in solve(program, crit)}
    assert set(solve(renamed, rename(crit, mapping))) == expected


def check_permutation(solve, seed, closed, free):
    """Permuted rules, or permuted minimize entries, keep the optimum."""
    program, crit = metamorphic_case(seed, closed, free)
    rng = random.Random(seed ^ 0x5EED)
    rules, entries = list(program.rules), list(program.minimize.entries)
    rng.shuffle(rules)
    rng.shuffle(entries)
    expected = set(solve(program, crit))
    assert set(solve(Program(tuple(rules), program.minimize), crit)) == \
        expected
    assert set(solve(Program(program.rules, MinimizeStatement(tuple(entries))),
                     crit)) == expected


@given(SEEDS, st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_optimum_invariant_under_order_reversing_renaming(seed, closed, free):
    check_renaming(optimal_answer_sets, seed, closed, free)


@given(SEEDS, st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_optimum_invariant_under_rule_and_entry_permutation(seed, closed,
                                                            free):
    check_permutation(optimal_answer_sets, seed, closed, free)


@given(SEEDS, st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_meta_optimum_invariant_under_order_reversing_renaming(seed, closed,
                                                               free):
    check_renaming(meta_optimum, seed, closed, free)


@given(SEEDS, st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_meta_optimum_invariant_under_rule_and_entry_permutation(seed, closed,
                                                                 free):
    check_permutation(meta_optimum, seed, closed, free)
