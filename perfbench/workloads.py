"""Seeded workload generators and the output check of every operation.

A workload is a list of files (programs and criteria) plus a fixed
sequence of CLI operations over them.  Everything is drawn from a
``random.Random(seed)``, so one seed always gives the same files and
operations.  Each operation carries the check its output must pass;
the checks rest on :mod:`oracle`, on closed-form counts, or on
properties of the output, never on ``aspkit.semantics`` or
``aspkit.optimize``.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Callable

import oracle
from oracle import Prog

WORKLOADS = ("chain", "frontier", "ground", "corpus")

#: Choice-chain sizes k: 2k - 1 atoms, 2^k - 1 answer sets.
CHAIN_SIZES = (3, 4, 5, 6)
#: Independent choice atoms per frontier instance: 2^n answer sets.
FRONTIER_SIZES = (6, 7)
#: Positive cycles per ground program and atoms per cycle.
GROUND_CYCLES = ((4, 50), (1, 100))
#: Positive chains in one ground program and atoms per chain.
GROUND_CHAINS = (2, 500)
#: Atoms of the seed-independent chain whose reification exceeds
#: Python's default recursion limit in the recursive SCC search.
DEEP_CHAIN = 1500
#: Corpus instances per pass and atoms per instance; every fourth
#: instance has a proper disjunction, and every third leaves one
#: minimize group without a criterion.
CORPUS_INSTANCES = 12
CORPUS_ATOMS = 10
#: Body shapes of a corpus program's sum-head choices, normal rules and
#: constraints, one letter per element: ``a`` an atom, ``s`` a sum.  The
#: shape is fixed so the size of the generated check program varies
#: little from seed to seed.
CORPUS_CHOICE_BODIES = ("", "a", "s")
CORPUS_RULE_BODIES = ("a", "aa", "as", "aaa", "aas")
CORPUS_CONSTRAINT_BODIES = ("aa", "s")
#: Corpus programs are redrawn until their answer-set count, and their
#: optimum count under the crosscheck's criteria, fall in these ranges,
#: they have at most CORPUS_MODELS classical models, and the meta
#: solver is estimated to try at most CORPUS_GUESSES guesses (see
#: ``meta_guesses``).  Unbounded draws make an instance's cost vary
#: tenfold (most of a crosscheck is refuting guesses for each stable
#: candidate), so a pass of few instances would time mostly the luck of
#: the draw.
CORPUS_ANSWER_SETS = (2, 8)
CORPUS_OPTIMA = (1, 2)
CORPUS_MODELS = 60
CORPUS_GUESSES = 5 << (CORPUS_ATOMS - 1)

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Op:
    """One CLI call: ``layer`` names the command (``optimize_default``
    for ``optimize --mode default``); ``check`` returns None when the
    exit code and standard output are right, else the reason."""

    layer: str
    argv: tuple[str, ...]
    check: Check


@dataclass
class Workload:
    name: str
    files: dict[str, str] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)


# -- checks --------------------------------------------------------------------


def expect_sets(prog: Prog, masks: list[int]) -> Check:
    """A printed set list in canonical order; exit 10 when empty."""
    text = "".join(prog.format(m) + "\n" for m in prog.canonical(masks))
    code = 0 if masks else 10

    def check(exit_code: int, out: str):
        if exit_code != code:
            return f"exit {exit_code}, expected {code}"
        if out != text:
            return f"printed {len(out.splitlines())} sets, expected {len(masks)}"
        return None

    return check


def expect_crosscheck(prog: Prog, masks: list[int]) -> Check:
    sets = " ".join(prog.format(m) for m in prog.canonical(masks))
    text = (f"native ({len(masks)}): {sets}\n"
            f"meta   ({len(masks)}): {sets}\nPASS\n")

    def check(exit_code: int, out: str):
        if exit_code != 0 or out != text:
            return f"exit {exit_code}: {out.splitlines()[-1:]}"
        return None

    return check


def expect_verdict(verdict: str) -> Check:
    def check(exit_code: int, out: str):
        lines = out.splitlines()
        if exit_code != 0 or not lines or lines[0] != verdict:
            return f"exit {exit_code}, verdict {lines[:1]}, expected {verdict}"
        extra = lines[1:]
        if extra and (verdict != "supported-model" or not all(
                line.startswith("component ") for line in extra)):
            return f"unexpected diagnosis lines after {verdict}"
        return None

    return check


def expect_metaenc(prog: Prog) -> Check:
    """Properties of a printed check program: one guess per object atom,
    every line a comment or a rule, and the acceptance constraint last."""
    guesses = {f"true_atom_{a} | fail_atom_{a}." for a in prog.atoms}

    def check(exit_code: int, out: str):
        if exit_code != 0:
            return f"exit {exit_code}"
        lines = out.splitlines()
        if not lines or lines[-1] != ":- not bot.":
            return "acceptance constraint missing"
        if not guesses <= set(lines):
            return "guess rules missing"
        if not all(line.startswith("%") or line.endswith(".")
                   for line in lines):
            return "malformed rule line"
        return None

    return check


def expect_reify(text: str, rules: int) -> Check:
    """One rule fact per rule, and the facts decode to the normalized
    program (aspkit's own decoder and normal form)."""

    def check(exit_code: int, out: str):
        if exit_code != 0:
            return f"exit {exit_code}"
        if sum(line.startswith("rule(") for line in out.splitlines()) != rules:
            return "rule fact count differs from the rule count"
        from aspkit.core import normalize
        from aspkit.parser import parse_program
        from aspkit.reify import parse_reified, text_to_facts
        if parse_reified(text_to_facts(out)) != normalize(parse_program(text)):
            return "parse_reified(reify(p)) != normalize(p)"
        return None

    return check


# -- generators ----------------------------------------------------------------


def _names(rng: random.Random, count: int) -> list[str]:
    """Distinct lowercase atom names; they set aspkit's atom order."""
    seen: set[str] = set()
    out: list[str] = []
    alphabet = string.ascii_lowercase + string.digits
    while len(out) < count:
        name = rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(alphabet) for _ in range(rng.randint(2, 4)))
        if name not in seen and name != "not":
            seen.add(name)
            out.append(name)
    return out


def _choice(atom: int):
    return ("sum", (None, ((atom, False, 1),), None))


def _rule(head: int, *body: tuple[int, bool]):
    return (("disj", (head,)), tuple(("atom", a, n) for a, n in body))


def _add(w: Workload, path: str, text: str) -> str:
    w.files[path] = text
    return path


def chain_prog(rng: random.Random, k: int) -> Prog:
    """``{a_i}.``, ``b_i :- a_i, not a_i+1.``, a covering constraint and
    ``#minimize`` over every a_i; atoms a_i are 0..k-1, b_i k..2k-2."""
    prog = Prog(_names(rng, 2 * k - 1))
    prog.rules = [(_choice(i), ()) for i in range(k)]
    prog.rules += [_rule(k + i, (i, False), (i + 1, True)) for i in range(k - 1)]
    prog.rules.append((("disj", ()), tuple(("atom", i, True) for i in range(k))))
    rng.shuffle(prog.rules)
    prog.minimize = [(i, False, 1, 1) for i in range(k)]
    rng.shuffle(prog.minimize)
    prog.relations = [(1, 1, "incl")]
    return prog


def chain_answer_sets(k: int) -> list[int]:
    """Closed form: each non-empty choice S, with b_i for i in S, i+1 not."""
    out = []
    for s in range(1, 1 << k):
        x = s
        for i in range(k - 1):
            if s >> i & 1 and not s >> (i + 1) & 1:
                x |= 1 << (k + i)
        out.append(x)
    return out


def build_chain(rng: random.Random) -> Workload:
    w = Workload("chain")
    for k in CHAIN_SIZES:
        prog = chain_prog(rng, k)
        lp = _add(w, f"chain{k}.lp", prog.render())
        crit = _add(w, f"chain{k}.crit", prog.render_criteria())
        answer_sets = chain_answer_sets(k)
        singletons = [x for x in answer_sets
                      if bin(x & ((1 << k) - 1)).count("1") == 1]
        w.ops += [
            Op("solve", ("solve", lp), expect_sets(prog, answer_sets)),
            Op("optimize", ("optimize", lp, "--criteria", crit),
               expect_sets(prog, singletons)),
            Op("optimize_default", ("optimize", lp, "--mode", "default"),
               expect_sets(prog, singletons)),
            Op("metaenc", ("metaenc", lp, "--criteria", crit),
               expect_metaenc(prog)),
            Op("crosscheck", ("crosscheck", lp, "--criteria", crit),
               expect_crosscheck(prog, singletons)),
        ]
    return w


def frontier_prog(rng: random.Random, n: int) -> Prog:
    """n independent choices under a minimize whose level-2 weight-1
    group holds every atom in both polarities under ``incl``.  Two
    distinct answer sets always differ on that group in both
    directions, so none dominates another whatever the other groups
    say.  Each other group has four literals on distinct atoms and one
    of card, incl and pref; the pref group has three preference pairs."""
    prog = Prog(_names(rng, n))
    prog.rules = [(_choice(i), ()) for i in range(n)]
    prog.minimize = [(i, neg, 1, 2) for i in range(n) for neg in (False, True)]
    prog.relations = [(2, 1, "incl")]
    for level, weight, criterion in ((2, 2, "pref"), (1, 1, "card"),
                                     (1, 2, "incl")):
        literals = [(a, rng.random() < 0.4) for a in rng.sample(range(n), 4)]
        prog.minimize += [(a, neg, weight, level) for a, neg in literals]
        prog.relations.append((level, weight, criterion))
        if criterion == "pref":
            prog.prefer = rng.sample(
                [(a, b) for a in literals for b in literals if a != b], 3)
    rng.shuffle(prog.minimize)
    return prog


def build_frontier(rng: random.Random) -> Workload:
    w = Workload("frontier")
    for n in FRONTIER_SIZES:
        prog = frontier_prog(rng, n)
        lp = _add(w, f"frontier{n}.lp", prog.render())
        crit = _add(w, f"frontier{n}.crit", prog.render_criteria())
        everything = list(range(1 << n))
        w.ops += [
            Op("optimize", ("optimize", lp, "--criteria", crit),
               expect_sets(prog, everything)),
            Op("metaenc", ("metaenc", lp, "--criteria", crit),
               expect_metaenc(prog)),
            Op("crosscheck", ("crosscheck", lp, "--criteria", crit),
               expect_crosscheck(prog, everything)),
        ]
    return w


def cycles_prog(rng: random.Random, cycles: int, size: int) -> Prog:
    """Positive cycles, each entered from one choice atom."""
    prog = Prog(_names(rng, cycles * (size + 1)))
    for c in range(cycles):
        base = c * (size + 1)
        entry, ring = base, list(range(base + 1, base + size + 1))
        prog.rules.append((_choice(entry), ()))
        prog.rules.append(_rule(ring[0], (entry, False)))
        prog.rules += [_rule(ring[(i + 1) % size], (ring[i], False))
                       for i in range(size)]
    rng.shuffle(prog.rules)
    return prog


def chains_prog(rng: random.Random, chains: int, size: int) -> Prog:
    """Positive chains, each grounded in one choice atom."""
    prog = Prog(_names(rng, chains * (size + 1)))
    for c in range(chains):
        base = c * (size + 1)
        prog.rules.append((_choice(base), ()))
        prog.rules += [_rule(base + i + 1, (base + i, False))
                       for i in range(size)]
    rng.shuffle(prog.rules)
    return prog


def deep_chain_prog() -> Prog:
    """``d0000 :- d0001. ... d1499 :- s.`` with the chain head first in
    atom order, so a depth-first search from it descends the whole
    chain.  Independent of the seed."""
    prog = Prog([f"d{i:04d}" for i in range(DEEP_CHAIN)] + ["s"])
    prog.rules = [(_choice(DEEP_CHAIN), ())]
    prog.rules += [_rule(i, (i + 1, False)) for i in range(DEEP_CHAIN)]
    return prog


def build_ground(rng: random.Random) -> Workload:
    w = Workload("ground")
    progs = [(f"cycles{c}x{s}", cycles_prog(rng, c, s))
             for c, s in GROUND_CYCLES]
    progs.append((f"chains{GROUND_CHAINS[0]}x{GROUND_CHAINS[1]}",
                  chains_prog(rng, *GROUND_CHAINS)))
    progs.append((f"deepchain{DEEP_CHAIN}", deep_chain_prog()))
    for name, prog in progs:
        text = prog.render()
        lp = _add(w, f"{name}.lp", text)
        w.ops += [
            Op("reify", ("reify", lp), expect_reify(text, len(prog.rules))),
            Op("metaenc", ("metaenc", lp), expect_metaenc(prog)),
        ]
    return w


def _random_sum(rng: random.Random, n: int, head: bool):
    elements = tuple(
        (rng.randrange(n), rng.random() < (0.15 if head else 0.35),
         rng.randint(1, 2))
        for _ in range(3))
    total = sum(w for _, _, w in elements)
    lower = rng.choice([None, 0, 1, rng.randint(1, total)])
    upper = rng.choice([None, None, total, rng.randint(lower or 0, total)])
    return (lower, elements, upper)


def _random_body(rng: random.Random, n: int, shape: str):
    """One body element per letter of ``shape``: ``a`` an atom, ``s`` a sum."""
    return tuple(
        ("atom", rng.randrange(n), rng.random() < 0.4) if kind == "a"
        else ("sum", _random_sum(rng, n, False), rng.random() < 0.2)
        for kind in shape)


def _rule_atoms(rule):
    head, body = rule
    atoms = list(head[1]) if head[0] == "disj" else [a for a, _, _ in head[1][1]]
    for element in body:
        if element[0] == "atom":
            atoms.append(element[1])
        else:
            atoms += [a for a, _, _ in element[1][1]]
    return atoms


def corpus_prog(rng: random.Random, names: list[str], disjunctive: bool,
                uncovered: bool) -> Prog:
    """A random extended program over the atoms ``names``: a positive
    loop, sum-head choices, normal rules with negated atoms and sum
    bodies, constraints, optionally one proper disjunction, and a
    minimize of two literals in each of 2 levels x 2 weights.  The
    groups get card twice, incl and pref in random order, with one
    group left without a criterion when ``uncovered``; three random
    preference pairs over the minimize literals."""
    n = len(names)
    prog = Prog(names)
    u, v = rng.sample(range(n), 2)
    prog.rules = [_rule(u, (v, False)), _rule(v, (u, False))]
    prog.rules += [(("sum", _random_sum(rng, n, True)),
                    _random_body(rng, n, shape))
                   for shape in CORPUS_CHOICE_BODIES]
    prog.rules += [(("disj", (rng.randrange(n),)), _random_body(rng, n, shape))
                   for shape in CORPUS_RULE_BODIES]
    prog.rules += [(("disj", ()), _random_body(rng, n, shape))
                   for shape in CORPUS_CONSTRAINT_BODIES]
    if disjunctive:
        heads = tuple(sorted(rng.sample(range(n), 2)))
        prog.rules.append((("disj", heads), _random_body(rng, n, "a")))
    # Every atom occurs, so the program has exactly n atoms: atoms no
    # rule mentions become further choices of the sum heads.
    used = {a for rule in prog.rules for a in _rule_atoms(rule)}
    choices = [i for i, (head, _) in enumerate(prog.rules) if head[0] == "sum"]
    for atom in sorted(set(range(n)) - used):
        i = rng.choice(choices)
        (_, (lower, elements, upper)), body = prog.rules[i]
        prog.rules[i] = (("sum", (lower, elements + ((atom, False, 1),),
                                  upper)), body)
    rng.shuffle(prog.rules)
    groups = [(1, 1), (1, 2), (2, 1), (2, 2)]
    prog.minimize = [(rng.randrange(n), rng.random() < 0.3, weight, level)
                     for level, weight in groups for _ in range(2)]
    rng.shuffle(prog.minimize)
    criteria = ["card", "card", "incl", "pref"]
    rng.shuffle(criteria)
    prog.relations = [(level, weight, criterion) for (level, weight), criterion
                      in zip(groups, criteria)]
    if uncovered:
        prog.relations.remove(rng.choice(prog.relations))
    literals = sorted({(a, neg) for a, neg, _, _ in prog.minimize})
    pairs = [(a, b) for a in literals for b in literals if a != b]
    prog.prefer = rng.sample(pairs, min(3, len(pairs)))
    return prog


def meta_guesses(prog: Prog, answer_sets: list[int],
                 relations: list[tuple[int, int, str]]) -> int:
    """An estimate of the guesses a crosscheck's meta solver tries: for
    each stable candidate it walks the 2^n guesses in the mask order of
    the name-sorted atoms until one is an answer set that dominates the
    candidate, and through all of them for an optimum."""
    order = sorted(range(len(prog.atoms)), key=lambda i: prog.atoms[i])

    def position(y: int) -> int:
        return sum(1 << j for j, i in enumerate(order) if y >> i & 1)

    total = 0
    for x in answer_sets:
        better = [position(y) for y in answer_sets
                  if y != x and oracle.dominates(prog, y, x, relations)]
        total += min(better) + 1 if better else 1 << len(prog.atoms)
    return total


def build_corpus(rng: random.Random) -> Workload:
    w = Workload("corpus")
    for index in range(CORPUS_INSTANCES):
        disjunctive = index % 4 == 3
        names = _names(rng, CORPUS_ATOMS)
        while True:
            prog = corpus_prog(rng, names, disjunctive,
                               uncovered=index % 3 == 2)
            if oracle.count_models(prog) > CORPUS_MODELS:
                continue
            kinds = oracle.classify(prog)
            answer_sets = kinds["answer_sets"]
            if not CORPUS_ANSWER_SETS[0] <= len(answer_sets) \
                    <= CORPUS_ANSWER_SETS[1]:
                continue
            if disjunctive:
                break
            relations = oracle.effective_relations(prog)
            effective = oracle.optimal(prog, answer_sets, relations)
            if CORPUS_OPTIMA[0] <= len(effective) <= CORPUS_OPTIMA[1] \
                    and meta_guesses(prog, answer_sets,
                                     relations) <= CORPUS_GUESSES:
                break
        lp = _add(w, f"corpus{index:02d}.lp", prog.render())
        crit = _add(w, f"corpus{index:02d}.crit", prog.render_criteria())
        w.ops += [
            Op("solve", ("solve", lp), expect_sets(prog, answer_sets)),
            Op("optimize", ("optimize", lp, "--criteria", crit),
               expect_sets(prog, oracle.optimal(prog, answer_sets,
                                                prog.relations))),
            Op("optimize_default", ("optimize", lp, "--mode", "default"),
               expect_sets(prog, oracle.default_optimal(prog, answer_sets))),
        ]
        # One answer set, one supported model that is no answer set (the
        # wait-level diagnosis), and one arbitrary interpretation.
        picks = [rng.choice(answer_sets),
                 rng.choice(kinds["supported"] or kinds["models"]),
                 rng.randrange(1 << CORPUS_ATOMS)]
        for x in picks:
            if x not in kinds["models"]:
                verdict = "non-model"
            elif x in answer_sets:
                verdict = "answer-set"
            elif x in kinds["supported"]:
                verdict = "supported-model"
            else:
                verdict = "model"
            w.ops.append(Op(
                "check",
                ("check", lp, "--interpretation", ",".join(prog.names(x))),
                expect_verdict(verdict)))
        if not disjunctive:
            w.ops += [
                Op("reify", ("reify", lp),
                   expect_reify(w.files[lp], len(prog.rules))),
                Op("metaenc", ("metaenc", lp, "--criteria", crit),
                   expect_metaenc(prog)),
                Op("crosscheck", ("crosscheck", lp, "--criteria", crit),
                   expect_crosscheck(prog, effective)),
            ]
    return w


BUILDERS = {"chain": build_chain, "frontier": build_frontier,
            "ground": build_ground, "corpus": build_corpus}


def build(name: str, seed: int) -> Workload:
    """The workload's files and operations for this seed."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
