"""Seeded random generators shared by property and acceptance tests."""

from __future__ import annotations

import random

from aspkit.core import (
    Atom,
    BodyLiteral,
    CriteriaSet,
    Disjunction,
    Literal,
    MinimizeEntry,
    MinimizeStatement,
    Program,
    Rule,
    SumConstraint,
    WeightedLiteral,
)
from reference import ReifiedFact, Term, reference_text_to_facts

NAMES = "abcdefghijklmnop"


def iset(names: str) -> frozenset[Atom]:
    """Interpretation from a comma-separated name string."""
    return frozenset(Atom(n.strip()) for n in names.split(",") if n.strip())


def fmt(interpretation) -> str:
    return "{" + ",".join(sorted(a.name for a in interpretation)) + "}"


def random_sum(rng: random.Random, pool, negation=True) -> SumConstraint:
    k = rng.randint(1, 3)
    elements = tuple(
        WeightedLiteral(
            Literal(rng.choice(pool), negation and rng.random() < 0.3),
            rng.randint(1, 2))
        for _ in range(k))
    total = sum(e.weight for e in elements)
    lower = rng.choice([None, 0, 1, rng.randint(0, total)])
    upper = rng.choice([None, None, rng.randint(0, total), total + 1])
    return SumConstraint(lower, elements, upper)


def random_program(rng: random.Random, max_atoms=8, max_rules=10,
                   minimize=False, levels=(1, 2), weights=(1, 2),
                   disjunctive=False) -> Program:
    """A random extended program with sum heads/bodies and negation;
    with ``disjunctive``, some heads are proper disjunctions."""
    pool = [Atom(n) for n in NAMES[:rng.randint(2, max_atoms)]]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        dice = rng.random()
        if disjunctive and dice < 0.2:
            head = Disjunction(tuple(rng.sample(pool, 2)))
        elif dice < 0.45:
            head = Disjunction((rng.choice(pool),))
        elif dice < 0.85:
            head = random_sum(rng, pool)
        else:
            head = Disjunction(())
        body = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.6:
                body.append(BodyLiteral(rng.choice(pool), rng.random() < 0.4))
            else:
                body.append(BodyLiteral(random_sum(rng, pool),
                                        rng.random() < 0.25))
        rules.append(Rule(head, tuple(body)))
    entries = ()
    if minimize:
        entries = tuple(
            MinimizeEntry(Literal(rng.choice(pool), rng.random() < 0.3),
                          rng.choice(weights), rng.choice(levels))
            for _ in range(rng.randint(0, 6)))
    return Program(tuple(rules), MinimizeStatement(entries))


def random_criteria(rng: random.Random, program: Program,
                    criteria=("card", "incl", "pref"),
                    levels=(1, 2), weights=(1, 2),
                    empty_chance=0.08) -> CriteriaSet:
    """Random criteria over a level/weight grid, with prefer pairs drawn
    from the program's minimize literals."""
    relations = []
    for level in levels:
        for weight in weights:
            if rng.random() < 0.65:
                relations.append((level, weight, rng.choice(criteria)))
    if rng.random() < empty_chance:
        relations = []
    prefer = []
    literals = sorted({e.literal for e in program.minimize.entries})
    if len(literals) >= 2:
        for _ in range(rng.randint(0, 5)):
            pair = tuple(rng.sample(literals, 2))
            if pair not in prefer:
                prefer.append(pair)
    return CriteriaSet(tuple(relations), tuple(prefer))


def choice_program(rng: random.Random, max_atoms=8, max_constraints=3,
                   levels=(1, 2), weights=(1, 2)) -> Program:
    """Independent choices ``{a}.`` over ``max_atoms`` atoms under a few
    two-literal constraints, so most interpretations stay answer sets,
    and a minimize statement whose groups share atoms."""
    pool = [Atom(n) for n in NAMES[:max_atoms]]
    rules = [Rule(SumConstraint(None, (WeightedLiteral(Literal(a)),)))
             for a in pool]
    for _ in range(rng.randint(0, max_constraints)):
        rules.append(Rule(Disjunction(()), tuple(
            BodyLiteral(a, rng.random() < 0.5)
            for a in rng.sample(pool, 2))))
    groups = [(level, weight) for level in levels for weight in weights]
    entries = []
    for atom in pool:
        if rng.random() < 0.2:
            continue
        for level, weight in rng.sample(groups, rng.randint(1, 2)):
            entries.append(MinimizeEntry(
                Literal(atom, rng.random() < 0.25), weight, level))
    rng.shuffle(entries)
    return Program(tuple(rules), MinimizeStatement(tuple(entries)))


#: Terms outside the reified vocabulary: foreign functors, and the
#: vocabulary's functors with a wrong number of arguments.
FOREIGN_TERMS = reference_text_to_facts(
    "f(foo(1,2),f(g(h)),atom,atom(a,b),pos,neg(1,2),sum(1,2),"
    "conjunction,false(1)).")[0].args


def _paths(args: tuple) -> list[tuple[int, ...]]:
    """The position of every argument in ``args``, at any depth."""
    return [(i, *rest) for i, arg in enumerate(args)
            for rest in [()] + (_paths(arg.args) if type(arg) is Term
                                else [])]


def _replace(args: tuple, path: tuple[int, ...], new) -> tuple:
    i, rest = path[0], path[1:]
    if rest:
        new = Term(args[i].functor, _replace(args[i].args, rest, new))
    return args[:i] + (new,) + args[i + 1:]


def term_mutant(rng: random.Random,
                facts: list[ReifiedFact]) -> list[ReifiedFact]:
    """``facts`` with one or two argument terms, at any depth, each
    replaced by an integer, another term of ``facts`` or a term of
    :data:`FOREIGN_TERMS`."""
    facts = list(facts)
    vocabulary = [arg for fact in facts for arg in fact.args]
    vocabulary += [arg.args[0] for arg in vocabulary
                   if type(arg) is Term and arg.args]
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(facts))
        fact = facts[i]
        dice = rng.random()
        new = (rng.randint(-1, 9) if dice < 0.3
               else rng.choice(vocabulary) if dice < 0.7
               else rng.choice(FOREIGN_TERMS))
        facts[i] = ReifiedFact(fact.predicate, _replace(
            fact.args, rng.choice(_paths(fact.args)), new))
    return facts
