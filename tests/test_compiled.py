"""Differential tests: the compiled checks against the syntax-level
oracle and the meta solver's earlier candidate check, and the search
against the brute-force loops it replaced."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspkit import consequence, core, semantics
from aspkit.compiled import CompiledProgram, Search
from aspkit.core import (
    Atom,
    BodyLiteral,
    Disjunction,
    Program,
    Rule,
    SumConstraint,
    WeightedLiteral,
    atoms,
    is_extended,
)
from aspkit.metaenc import MetaSolver, Rows, build_meta_program, solve_meta
from aspkit.parser import parse_program
from aspkit.reify import reify
from aspkit.semantics import canonical_order, enumerate_answer_sets
from generators import (
    NAMES,
    choice_program,
    iset,
    random_criteria,
    random_program,
    random_sum,
)
from reference import (
    BOT,
    atoms_of,
    brute_answer_sets,
    brute_stable_candidates,
    candidate_atoms,
    closure_of_rules,
    fail_atoms,
    is_answer_set,
    is_minimal_model,
    is_model,
    positive_part,
    reduct,
    satisfies,
    tp_iterate,
    true_atoms,
)
from reference import is_supported_model as reference_supported

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


def test_mask_minimality_matches_oracle():
    """On every model of 300 disjunctive draws, the compiled answer-set
    test is subset minimality on the syntax reduct, and the compiled
    support test is support on the syntax objects."""
    rng = random.Random(71)
    models = subset_tests = 0
    for _ in range(300):
        program = random_program(rng, max_atoms=6, max_rules=8,
                                 disjunctive=True)
        compiled = CompiledProgram(program.rules, sorted(atoms(program)))
        for x in every_interpretation(program):
            if not is_model(x, program):
                continue
            mask = compiled.encode(x)
            assert compiled.is_answer_set(mask) == is_minimal_model(
                x, reduct(program, x)), (program, x)
            assert compiled.supports(mask) == \
                reference_supported(program, x), (program, x)
            models += 1
            # a proper disjunction with two atoms true in x
            subset_tests += any(
                isinstance(rule.head, Disjunction) and satisfies(x, rule.body)
                and len(set(rule.head.atoms) & x) > 1
                for rule in program.rules)
    assert models > 2000 and subset_tests > 200


@pytest.mark.parametrize("text,true,expected", [
    # the minimal models of a | b. are {a} and {b}
    ("a | b.", "a,b", False),
    ("a | b.", "a", True),
    # each of a and b derives the other, so only {a,b} is a model below it
    ("a | b. a :- b. b :- a.", "a,b", True),
    # the reduct of a sum head keeps both true atoms as facts
    ("1 {a, b} 2. c | d.", "a,b,c", True),
    ("1 {a, b} 2. c | d.", "a,b,c,d", False),
    # ... also where c holds only below a proper disjunction
    ("c | d. c :- d. d :- c. 1 {a, b} 2 :- c.", "a,b,c,d", True),
    # leaving a out of {a,b} forces b, then a | c :- b needs c, not in x
    ("a | b. b :- a. a | c :- b.", "a,b", True),
    # not d adds 1 by absence, so the reduct asks only 1 of a for c, and
    # {a,b} misses c
    ("a | b. a :- b. b :- a. c :- 2 #sum[a=1, not d=1].", "a,b,c", True),
    # with d true the body fails, and {a,b,d} is a smaller model
    ("a | b. a :- b. b :- a. c | e :- 2 #sum[a=1, not d=1]. d | c.",
     "a,b,c,d", False),
    ("a :- b. b :- a.", "a,b", False),
    ("", "", True),
    # c | d :- a fires only once the branch on a | b derives a, and then
    # each of c and d derives the other
    ("a | b. a :- b. b :- a. c | d :- a. c :- d. d :- c.", "a,b,c,d", True),
    # a | c has one head atom in x, so it is definite: a is derived, which
    # meets a | b, and {a} is a smaller model
    ("a | b. a | c.", "a,b", False),
    # three head atoms in x: a and c each derive x, b alone is a model
    ("a | b | c. c :- a. a :- c. b :- a.", "a,b,c", False),
    # c is outside x, so the search branches only on a and b, and each
    # derives the other
    ("a | b | c. a :- b. b :- a.", "a,b", True),
    # not d adds 1 by absence, so the reduct's body asks only for c, and
    # then a | b needs a or b, each of which derives the other
    ("c. a | b :- 2 #sum[c=1, not d=1]. a :- b. b :- a.", "a,b,c", True),
    # the sum head's reduct makes b a fact once a holds, and {b} meets
    # a | b alone
    ("a | b. 1 {b, c} 2 :- a.", "a,b", False),
])
def test_mask_minimality_pins(text, true, expected):
    program = parse_program(text)
    x = iset(true)
    compiled = CompiledProgram(program.rules, sorted(atoms(program)))
    assert compiled.is_answer_set(compiled.encode(x)) == expected
    assert is_answer_set(x, program) == expected


def test_check_wrappers_on_unknown_atoms_and_cap():
    """The public checks compile the program and answer False, as the
    syntax versions do, for an atom the program does not mention; only
    the subset test, which a proper disjunction takes, is capped."""
    x = iset("a,z")
    for text in ("a.", "a | b."):
        program = parse_program(text)
        assert not semantics.is_answer_set(x, program)
        assert not consequence.is_supported_model(program, x)
        assert not is_answer_set(x, program)
        assert not reference_supported(program, x)
    with pytest.raises(core.CapExceededError, match="exceeds cap 1"):
        semantics.is_answer_set(iset("a,b"), parse_program("a | b."), cap=1)
    # not a model: no subset is tried, so nothing is refused
    assert not semantics.is_answer_set(
        iset("a,b"), parse_program("a | b. :- a, b."), cap=1)
    assert semantics.is_answer_set(iset("a,b,c"), parse_program("a. b. c."),
                                   cap=1)


def reference_interpretation(mp, x):
    """The candidate's meta atoms: the definitions closed over the hold
    atoms of ``x``."""
    interp = {candidate_atoms(mp)[a] for a in x}
    definitions = parse_program("\n".join(mp.candidate_definitions)).rules
    changed = True
    while changed:
        changed = False
        for rule in definitions:
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
    candidate = parse_program("\n".join(mp.candidate))
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
    the compare rows against the candidate ``x``, close them together
    with the evaluate, check and saturate rules over the guess ``y``, and
    look for bot."""
    held = {a.name for a in reference_interpretation(mp, x)}
    candidate = {a.name for a in mp.candidate_side}
    resolved = []
    for head, body, sums in mp.compare:
        kept = []
        for text in body:
            name = text.removeprefix("not ")
            if name not in candidate:
                kept.append(text)
            elif (name in held) == (name != text):
                break
        else:
            resolved.append((head, tuple(kept), sums))
    seed = [true_atoms(mp)[a] if a in y else fail_atoms(mp)[a]
            for a in candidate_atoms(mp)]
    side = dataclasses.replace(
        mp, candidate_definitions=(), candidate_rules=(), guess=(),
        compare=Rows(resolved), accept=())
    rules = parse_program(side.to_text()).rules
    closure = closure_of_rules(rules, [BOT, *seed])
    index = closure.index
    return closure.start([index[a] for a in seed], index[BOT]) is None


def check_refutes(program, crit):
    """The walk refutes a stable candidate exactly when the reference
    refutes every guess."""
    mp = build_meta_program(reify(program), crit)
    solver = MetaSolver(mp)
    masks = range(1 << len(solver.object_atoms))
    for held in solver.stable_candidates():
        candidate = solver.decode(solver.project(held))
        assert solver.refutes(solver.conditions(held)) == all(
            reference_refutes(mp, candidate, solver.decode(y))
            for y in masks)


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_refutes_matches_reference(seed):
    rng = random.Random(seed)
    program = random_program(rng, max_atoms=5, max_rules=6, minimize=True)
    check_refutes(program, random_criteria(rng, program))


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_refutes_matches_reference_on_many_answer_sets(seed):
    rng = random.Random(seed)
    program = choice_program(rng, max_atoms=4)
    check_refutes(program, random_criteria(rng, program))


def check_search(program):
    """Both routes' searches find what the brute-force loops find: the
    answer sets, and the meta solver's stable candidates."""
    assert enumerate_answer_sets(program) == brute_answer_sets(program)
    if is_extended(program):
        solver = MetaSolver(build_meta_program(reify(program),
                                               core.CriteriaSet()))
        assert sorted(solver.stable_candidates()) == \
            sorted(brute_stable_candidates(solver))


@given(SEEDS, st.booleans())
@settings(max_examples=120, deadline=None)
def test_search_matches_brute_force(seed, disjunctive):
    check_search(random_program(random.Random(seed), max_atoms=8,
                                max_rules=10, disjunctive=disjunctive))


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_search_matches_brute_force_on_many_answer_sets(seed):
    check_search(choice_program(random.Random(seed), max_atoms=8))


@pytest.mark.parametrize("text,expected", [
    ("", [frozenset()]),
    (":- .", []),
    (":- . :- .", []),
    (":- a.", [frozenset()]),
    (":- not a.", []),
    (":- 1 #sum[a=1, not b=1].", []),
])
def test_search_on_constraints_alone(text, expected):
    program = parse_program(text)
    check_search(program)
    assert enumerate_answer_sets(program) == expected
    assert solve_meta(build_meta_program(reify(program),
                                         core.CriteriaSet())) == expected


def loop_mask(program):
    """The atoms a search of ``program`` keeps the least-model check for."""
    search = Search(CompiledProgram(program.rules, sorted(atoms(program))))
    return search.program.decode(search.loops)


@pytest.mark.parametrize("text,expected,loops", [
    # an unfounded loop: {a,b} and {a,b,c} are supported models
    ("a :- b. b :- a. {c}.", ["", "c"], "a,b"),
    # a loop through a sum body: without c, the reduct's bound on the
    # negated entry drops to 0 and founds the loop; with c it is unfounded
    ("a :- 1 #sum[b=1, not c=1] 2. b :- a. {c}.", ["a,b", "c"], "a,b"),
    # c and d read the loop only through a negated sum entry and a
    # negated sum, which are no positive edges: {c,d} is decided
    # without the check, {a,b,c,d} is not
    ("a :- b. b :- a. c :- 1 #sum[not a=1]. d :- not 1 #sum[b=1].",
     ["c,d"], "a,b"),
    # c needs the loop but lies on none: only a model that makes a or b
    # true is checked, and a supported model with c is one
    ("a :- b. b :- a. c :- a. {d}.", ["", "d"], "a,b"),
    # the same loop with outside support
    ("a :- b. b :- a. a :- c. {c}.", ["", "a,b,c"], "a,b"),
    # a chain whose last link is a choice has no loop
    ("a :- b. b :- c. {c}.", ["", "a,b,c"], ""),
    ("a :- a.", [""], "a"),
])
def test_leaf_check_only_off_positive_loops(text, expected, loops):
    program = parse_program(text)
    assert loop_mask(program) == iset(loops)
    assert enumerate_answer_sets(program) == [iset(x) for x in expected]
    check_search(program)


def bounded_sum(bl):
    """Whether a body literal is a non-negated sum with a negated entry
    or an upper bound."""
    sc = bl.element
    return isinstance(sc, SumConstraint) and not bl.negated and (
        sc.upper is not None or any(wl.literal.negated for wl in sc.elements))


def tight_program(rng, max_atoms=6, max_rules=8):
    """A random program without positive loops: a rule's positive body
    atoms and the entries of its non-negated body sums come before every
    atom its head supports in a fixed order, while negated body atoms
    and negated sums reach any atom."""
    pool = [Atom(n) for n in NAMES[:rng.randint(2, max_atoms)]]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        k = rng.randrange(len(pool))
        head = (Disjunction((pool[k],)) if rng.random() < 0.5
                else random_sum(rng, pool[k:]))
        body = []
        for _ in range(rng.randint(0, 3)):
            negated = rng.random() < 0.3
            if rng.random() < 0.4:
                below = pool if negated else pool[:k]
                if below:
                    body.append(BodyLiteral(rng.choice(below), negated))
            elif k or negated:
                body.append(BodyLiteral(
                    random_sum(rng, pool if negated else pool[:k]), negated))
        rules.append(Rule(head, tuple(body)))
    return Program(tuple(rules))


def test_supported_models_off_loops_are_answer_sets():
    """Fages' theorem for this toolkit's sums: a supported model that
    makes no atom of the search's loop mask true is an answer set, also
    when its supporting rules read sums with negated entries and upper
    bounds; and the search agrees with the brute-force loop, which
    checks every model's least model.  Half the programs are tight by
    construction, so their loop mask is empty; the other half are
    ``random_program`` draws."""
    rng = random.Random(61)
    off_loops = through_sums = 0
    for i in range(600):
        program = (tight_program if i % 2 else random_program)(
            rng, max_atoms=6, max_rules=8)
        loops = loop_mask(program)
        assert not (i % 2 and loops)
        for x in every_interpretation(program):
            if x & loops or not consequence.is_supported_model(program, x):
                continue
            assert is_answer_set(x, program), (program, x)
            off_loops += bool(x)
            through_sums += any(
                satisfies(x, rule.body)
                and atoms_of(positive_part(rule.head)) & x
                and any(bounded_sum(bl) for bl in rule.body)
                for rule in program.rules)
        assert enumerate_answer_sets(program) == brute_answer_sets(program)
    assert off_loops >= 300 and through_sums >= 80, (off_loops, through_sums)


def test_long_positive_chain_enumerates_without_recursion():
    n = 3000
    text = "".join(f"d{i} :- d{i + 1}.\n" for i in range(n - 1))
    program = parse_program(text + f"{{d{n - 1}}}.")
    universe = atoms(program)
    assert enumerate_answer_sets(program, cap=n) == [frozenset(), universe]


def doubled_sum(sc, j):
    """``sc`` with bounds and weights doubled, its entry ``j`` written
    twice at its old weight instead of once at twice it."""
    elements = []
    for k, wl in enumerate(sc.elements):
        elements += [wl, wl] if k == j else [
            WeightedLiteral(wl.literal, 2 * wl.weight)]
    lower, upper = (None if bound is None else 2 * bound
                    for bound in (sc.lower, sc.upper))
    return SumConstraint(lower, tuple(elements), upper)


def repeat_entry(rng, program):
    """``program`` with one sum, in a head or a body, doubled."""
    sites = [(i, None) for i, rule in enumerate(program.rules)
             if isinstance(rule.head, SumConstraint)]
    sites += [(i, k) for i, rule in enumerate(program.rules)
              for k, bl in enumerate(rule.body)
              if isinstance(bl.element, SumConstraint)]
    if not sites:
        return program
    i, k = rng.choice(sites)
    rules = list(program.rules)
    rule = rules[i]
    sc = rule.head if k is None else rule.body[k].element
    new = doubled_sum(sc, rng.randrange(len(sc.elements)))
    if k is None:
        rules[i] = Rule(new, rule.body)
    else:
        body = list(rule.body)
        body[k] = dataclasses.replace(body[k], element=new)
        rules[i] = Rule(rule.head, tuple(body))
    return Program(tuple(rules), program.minimize)


def duplicate_rule(rng, program):
    rules = list(program.rules)
    rules.insert(rng.randrange(len(rules) + 1), rng.choice(rules))
    return Program(tuple(rules), program.minimize)


@given(SEEDS, st.booleans())
@settings(max_examples=60, deadline=None)
def test_duplicates_change_no_result(seed, entry):
    """A rule written twice, or a sum entry written twice with the rest
    of its sum scaled to match, changes no answer set and no optimum:
    the searches must count supports and watches without double
    counting."""
    rng = random.Random(seed)
    program = random_program(rng, max_atoms=5, max_rules=6, minimize=True)
    crit = random_criteria(rng, program)
    changed = (repeat_entry if entry else duplicate_rule)(rng, program)
    assert enumerate_answer_sets(changed) == enumerate_answer_sets(program)
    assert solve_meta(build_meta_program(reify(changed), crit)) == \
        solve_meta(build_meta_program(reify(program), crit))


class TestHornClosure:
    def closure(self, text):
        return closure_of_rules(parse_program(text).rules)

    def derives(self, closure, seed, target):
        index = closure.index
        return closure.start([index[a] for a in seed], index[target]) is None

    def test_chain_and_sum(self):
        closure = self.closure("b :- a. c :- 2 #sum[a=1, b=1]. d :- e.")
        assert self.derives(closure, iset("a"), Atom("c"))
        assert not self.derives(closure, iset("a"), Atom("d"))

    def test_facts_and_seed_goal(self):
        closure = self.closure("a. b :- a.")
        assert self.derives(closure, (), Atom("b"))
        assert self.derives(closure, iset("b"), Atom("b"))

    def test_met_sum_does_not_stand_in_for_a_missing_atom(self):
        # the sum is met before c is derived; deriving c must not count
        # as supplying the missing b
        closure = self.closure("a :- b, 0 #sum[c=1]. c.")
        assert not self.derives(closure, (), Atom("a"))
        program = parse_program("c. a :- b, 0 #sum[c=1]. b :- a.")
        assert enumerate_answer_sets(program) == [iset("c")]

    def test_extend_leaves_its_parent_unchanged(self):
        closure = self.closure(
            "c :- a, b. bot :- c. f :- b, e. g :- 2 #sum[b=1, e=1].")
        idx = closure.index
        root = closure.start([idx[Atom("a")]], idx[Atom("bot")])
        assert closure.extend(root, idx[Atom("b")], idx[Atom("bot")]) is None
        derived = closure.extend(root, idx[Atom("e")], idx[Atom("bot")])[0]
        assert derived[idx[Atom("e")]]
        assert not any(derived[idx[Atom(n)]] for n in "bcfg")
        assert not self.derives(closure, iset("e"), Atom("bot"))

    def test_start_leaves_the_closed_facts_unchanged(self):
        text = ("a. b :- a, c. d :- b. e :- 2 #sum[a=1, f=1]. "
                "bot :- d, f. g :- e, h.")
        closure, untouched = self.closure(text), self.closure(text)
        idx = closure.index
        bot = idx[Atom("bot")]
        first = closure.start([idx[Atom("c")]], bot)
        second = closure.start([idx[Atom("f")]], bot)
        assert closure.extend(first, idx[Atom("h")], bot) is not None
        assert second is not None
        assert second == untouched.start([idx[Atom("f")]], bot)
        assert closure.root == untouched.root

    def test_facts_alone_deriving_the_goal_refute_every_seed(self):
        closure = self.closure("a. b :- a. bot :- b. c :- d.")
        idx = closure.index
        others = [i for a, i in idx.items() if a != Atom("bot")]
        for size in range(len(others) + 1):
            for seed in itertools.combinations(others, size):
                assert closure.start(seed, idx[Atom("bot")]) is None

    @pytest.mark.parametrize(
        "text", ["a :- not b.", "a :- 1 #sum[not b=1].", "a | b.", ":- a."])
    def test_rejects_rules_outside_its_shape(self, text):
        with pytest.raises(core.ContractViolationError):
            self.closure(text)
