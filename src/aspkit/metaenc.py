"""Saturation-based disjunctive check programs over reified input.

:func:`build_meta_program` reifies an extended object program once and
assembles from those facts, in the toolkit's own core language, a ground
disjunctive program whose answer sets project onto the optimal answer
sets of the object program (outside facts go through ``parse_reified``).
Its parts:

* candidate: re-derives the object program over ``hold_*`` atoms
  (choice heads become trivial-bound sum heads, each sum and body
  conjunction gets a defining atom, head bounds become constraints);
* guess: one proper disjunction ``true_atom_a | fail_atom_a`` per atom;
* evaluate: negation-free truth rules for conjunctions and sums, with
  upper bounds recast as lower bounds over atoms that do not hold;
* check: derives the error atom ``bot`` from an unsatisfied rule, an
  unsupported true atom, or a true atom of a non-trivial dependency
  component that is still underivable after as many steps as the
  component has atoms (wait levels);
* compare: derives ``bot`` when the guess fails to dominate the
  candidate under the active criteria, chained over priority levels;
* saturate: floods the guess atoms from ``bot``;
* accept: the final constraint ``:- not bot.``.

:func:`solve_meta` exploits exactly this structure: the candidates are
the answer sets of the candidate part alone, found by the search of
:class:`aspkit.compiled.Search`, and a candidate is accepted iff the
counterexample side derives ``bot`` for every guess, which by saturation
is equivalent to the meta program having a (unique) answer set with
that hold-projection.  :class:`MetaSolver` gives the ``hold_atom_*`` of
object atom i bit i of the candidate part, so the search, which branches
on the lowest bits first once the choice heads are decided, settles
them before the definition atoms.  It compiles the counterexample side
(evaluate, check, saturate and compare) once, as one closure whose facts
are closed when it is built and in which each candidate-side body
literal of the compare rules is a condition that a candidate seeds.
Those rules are positive, so a partial guess that derives ``bot``
refutes every guess extending it: the solver walks the guess bits depth
first once per candidate and drops such subtrees.  It checks the
structure that makes this sound when it is built.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from . import core
from .core import (
    Atom,
    BodyLiteral,
    CapExceededError,
    ContractViolationError,
    CriteriaSet,
    Disjunction,
    Interpretation,
    Literal,
    MinimizeStatement,
    Program,
    Rule,
    SumConstraint,
    WeightedLiteral,
)
from .compiled import CompiledProgram, HornClosure, Search
from .optimize import optimal_answer_sets
from .reify import FactReader, Term, reify
from .semantics import canonical_order

#: Cap on guessed candidate-side atoms in solve_meta.
DEFAULT_META_CAP = 26


def effective_criteria(crit: CriteriaSet,
                       minimize: MinimizeStatement) -> CriteriaSet:
    """The criteria the check program enforces: none when the user gave
    none; otherwise the given ones plus cardinality by default for every
    minimize (level, weight) group left without a criterion."""
    if not crit.relations:
        return CriteriaSet((), crit.prefer)
    relations = list(crit.relations)
    for level, weight in minimize.group_keys():
        if crit.criterion_at(level, weight) is None:
            relations.append((level, weight, "card"))
    relations.sort(key=lambda r: (-r[0], r[1], r[2]))
    return CriteriaSet(tuple(relations), crit.prefer)


def _num(n: int) -> str:
    return str(n) if n >= 0 else f"m{-n}"


def _entity(family: str, term: Term) -> Atom:
    """Meta atom naming for atom(a), conjunction(S), sum(L,S,U), false."""
    if term.functor == "atom":
        return Atom(f"{family}_atom_{term.args[0]}")
    if term.functor == "conjunction":
        return Atom(f"{family}_conj_{term.args[0]}")
    if term.functor == "sum":
        lower, label, upper = term.args
        return Atom(f"{family}_sum_{_num(lower)}_{label}_{_num(upper)}")
    if term.functor == "false":
        return Atom(f"{family}_false")
    raise ValueError(f"unexpected entity term: {term}")


def _lit_suffix(literal: Literal) -> str:
    return f"{'neg' if literal.negated else 'pos'}_{literal.atom.name}"


def _pos(atom: Atom) -> BodyLiteral:
    return BodyLiteral(atom)


def _not(atom: Atom) -> BodyLiteral:
    return BodyLiteral(atom, negated=True)


def _fact(atom: Atom) -> Rule:
    return Rule(Disjunction((atom,)))


def _rule(head: Atom, body) -> Rule:
    return Rule(Disjunction((head,)), tuple(body))


def _constraint(body) -> Rule:
    return Rule(Disjunction(()), tuple(body))


def _atleast(bound: int, entries) -> BodyLiteral:
    """Lower-bound-only sum over positive meta literals."""
    return BodyLiteral(SumConstraint(
        bound, tuple(WeightedLiteral(Literal(a), w) for a, w in entries)))


@dataclass
class MetaProgram:
    """The generated program with its parts kept separable."""

    candidate_definitions: tuple[Rule, ...]
    candidate_rules: tuple[Rule, ...]
    guess: tuple[Rule, ...]
    evaluate: tuple[Rule, ...]
    check: tuple[Rule, ...]
    saturate: tuple[Rule, ...]
    compare: tuple[Rule, ...]
    accept: tuple[Rule, ...]
    candidate_atoms: dict[Atom, Atom]
    true_atoms: dict[Atom, Atom]
    fail_atoms: dict[Atom, Atom]
    bot: Atom
    candidate_side: frozenset[Atom]

    @property
    def candidate(self) -> tuple[Rule, ...]:
        return self.candidate_definitions + self.candidate_rules

    @property
    def program(self) -> Program:
        return Program(self.candidate + self.guess + self.evaluate
                       + self.check + self.saturate + self.compare
                       + self.accept)

    def to_text(self) -> str:
        sections = (
            ("candidate generation", self.candidate),
            ("counterexample guess", self.guess),
            ("counterexample evaluation", self.evaluate),
            ("answer-set check", self.check),
            ("saturation", self.saturate),
            ("comparison", self.compare),
            ("acceptance", self.accept),
        )
        lines: list[str] = []
        for title, rules in sections:
            if not rules:
                continue
            lines.append(f"% {title}")
            lines.extend(str(rule) for rule in rules)
        return "".join(line + "\n" for line in lines)


class _View:
    """Decoded lookups over a program's canonical fact list."""

    def __init__(self, program: Program):
        reader = FactReader(reify(program))
        self.program = program
        self.atoms: list[Atom] = sorted(core.atoms(program))
        #: per rule: head term and body conjunction label
        self.rules: list[tuple[Term, int]] = [
            (head, body.args[0]) for head, body in reader.rule_facts]
        self.conjunctions: dict[int, tuple[tuple[bool, Term], ...]] = {
            label: tuple((member.functor == "neg", member.args[0])
                         for member in reader.set_facts.get(label, ()))
            for _, label in self.rules}
        # sum terms in first-occurrence order over heads, then bodies
        self.sums: dict[Term, SumConstraint] = {}
        for head, label in self.rules:
            members = (inner for _, inner in self.conjunctions[label])
            for term in (head, *members):
                if term.functor == "sum" and term not in self.sums:
                    self.sums[term] = reader.decode_sum(term)
        self.minimize: dict[int, tuple[WeightedLiteral, ...]] = {
            level: reader.weighted(label)
            for level, label in reader.minimize_facts}
        self.minimize_label = dict(reader.minimize_facts)
        # components: label -> (atoms, conjunction labels, sum terms)
        self.components: dict[int, tuple[list[Atom], list[int], list[Term]]] = {}
        for label, term in reader.scc_facts:
            entry = self.components.setdefault(label, ([], [], []))
            if term.functor == "atom":
                entry[0].append(Atom(term.args[0].functor))
            elif term.functor == "conjunction":
                entry[1].append(term.args[0])
            else:
                entry[2].append(term)

    def head_support_atoms(self, head: Term) -> tuple[Atom, ...]:
        """Atoms occurring positively in a head term, in order."""
        if head.functor == "atom":
            return (Atom(head.args[0].functor),)
        if head.functor == "false":
            return ()
        found: list[Atom] = []
        for wl in self.sums[head].elements:
            if not wl.literal.negated and wl.literal.atom not in found:
                found.append(wl.literal.atom)
        return tuple(found)


class _Builder:
    def __init__(self, view: _View, crit: CriteriaSet):
        self.view = view
        self.crit = crit
        self.cxopt = effective_criteria(crit, view.program.minimize)
        self._positives: dict[str, BodyLiteral] = {}

    # -- candidate part ------------------------------------------------

    def _cand_literal(self, negated: bool, inner: Term) -> BodyLiteral:
        return BodyLiteral(_entity("hold", inner), negated)

    def candidate_definitions(self) -> list[Rule]:
        rules: list[Rule] = []
        for term, sc in self.view.sums.items():
            elements = tuple(
                WeightedLiteral(Literal(Atom(f"hold_atom_{wl.literal.atom}"),
                                        wl.literal.negated), wl.weight)
                for wl in sc.elements)
            rules.append(_rule(_entity("hold", term), (BodyLiteral(
                SumConstraint(sc.lower, elements, sc.upper)),)))
        for label in sorted(self.view.conjunctions):
            body = tuple(self._cand_literal(neg, inner)
                         for neg, inner in self.view.conjunctions[label])
            rules.append(_rule(Atom(f"hold_conj_{label}"), body))
        return rules

    def candidate_rules(self) -> list[Rule]:
        rules: list[Rule] = []
        for head, label in self.view.rules:
            trigger = _pos(Atom(f"hold_conj_{label}"))
            if head.functor == "atom":
                rules.append(_rule(_entity("hold", head), (trigger,)))
            elif head.functor == "false":
                rules.append(_constraint((trigger,)))
            else:
                choosable = self.view.head_support_atoms(head)
                if choosable:
                    head_sum = SumConstraint(None, tuple(
                        WeightedLiteral(Literal(Atom(f"hold_atom_{a}")))
                        for a in choosable))
                    rules.append(Rule(head_sum, (trigger,)))
                rules.append(_constraint(
                    (trigger, _not(_entity("hold", head)))))
        return rules

    # -- counterexample guess and evaluation ---------------------------

    def guess(self) -> list[Rule]:
        return [
            Rule(Disjunction((Atom(f"true_atom_{a}"), Atom(f"fail_atom_{a}"))))
            for a in self.view.atoms]

    def _ce_lit(self, literal: Literal, holds: bool) -> Atom:
        """Guess atom standing for 'literal holds' (or does not hold)."""
        family = ("true" if holds else "fail") if not literal.negated \
            else ("fail" if holds else "true")
        return Atom(f"{family}_atom_{literal.atom}")

    def _ce_member(self, negated: bool, inner: Term, holds: bool) -> Atom:
        family = "true" if holds != negated else "fail"
        return _entity(family, inner)

    def evaluate(self) -> list[Rule]:
        rules: list[Rule] = []
        if any(head.functor == "false" for head, _ in self.view.rules):
            rules.append(_fact(Atom("fail_false")))
        for term, sc in self.view.sums.items():
            total = sc.total
            holds = [(self._ce_lit(wl.literal, True), wl.weight)
                     for wl in sc.elements]
            fails = [(self._ce_lit(wl.literal, False), wl.weight)
                     for wl in sc.elements]
            true_body = self._bounded_body(
                [(sc.lower, holds), (total - sc.upper, fails)], total)
            if true_body is not None:
                rules.append(_rule(_entity("true", term), true_body))
            for bound, entries_ in ((total - sc.lower + 1, fails),
                                    (sc.upper + 1, holds)):
                body = self._bounded_body([(bound, entries_)], total)
                if body is not None:
                    rules.append(_rule(_entity("fail", term), body))
        for label in sorted(self.view.conjunctions):
            members = self.view.conjunctions[label]
            rules.append(_rule(
                Atom(f"true_conj_{label}"),
                tuple(_pos(self._ce_member(neg, inner, True))
                      for neg, inner in members)))
            for neg, inner in members:
                rules.append(_rule(
                    Atom(f"fail_conj_{label}"),
                    (_pos(self._ce_member(neg, inner, False)),)))
        return rules

    @staticmethod
    def _bounded_body(parts, total: int):
        """Body of lower-bound sums; None when some bound is unreachable,
        trivial bounds dropped (an all-trivial body yields a fact)."""
        body: list[BodyLiteral] = []
        for bound, entries in parts:
            if bound > total:
                return None
            if bound <= 0:
                continue
            body.append(_atleast(bound, entries))
        return tuple(body)

    # -- answer-set check ----------------------------------------------

    def _positive(self, name: str) -> BodyLiteral:
        """The one positive body literal of the meta atom ``name``, so a
        name is turned into an atom (and validated) only once."""
        literal = self._positives.get(name)
        if literal is None:
            literal = self._positives[name] = BodyLiteral(Atom(name))
        return literal

    def check(self) -> list[Rule]:
        lit = self._positive
        bot = Atom("bot")
        rules: list[Rule] = []
        for head, label in self.view.rules:
            rules.append(_rule(bot, (
                lit(f"true_conj_{label}"), lit(_entity("fail", head).name))))
        supports: dict[Atom, list[int]] = {a: [] for a in self.view.atoms}
        for head, label in self.view.rules:
            for atom in self.view.head_support_atoms(head):
                if label not in supports[atom]:
                    supports[atom].append(label)
        for atom in self.view.atoms:
            rules.append(_rule(bot, (
                lit(f"true_atom_{atom}"),
                *(lit(f"fail_conj_{s}") for s in supports[atom]))))
        for label in sorted(self.view.components):
            rules.extend(self._component_rules(label, supports))
        return rules

    def _component_rules(self, label: int, supports) -> list[Rule]:
        """Wait-level rules of one component, in time linear in their
        number: each element's wait literals are made once, indexed by
        step, and membership in the component is a set lookup."""
        lit = self._positive
        catoms, conj_labels, sum_terms = self.view.components[label]
        catoms = sorted(catoms)
        steps = len(catoms)
        internal_conjs = set(conj_labels)
        # wait literals by step: atoms (keyed by name) at 0..steps,
        # conjunctions and sums at 0..steps-1
        wait_atom = {a.name: [lit(f"wait_atom_{a}_{step}")
                              for step in range(steps + 1)] for a in catoms}
        wait_conj = {c: [lit(f"wait_conj_{c}_{step}") for step in range(steps)]
                     for c in conj_labels}
        wait_sum = {}
        for term in sum_terms:
            name = _entity("wait", term).name
            wait_sum[term] = [lit(f"{name}_{step}") for step in range(steps)]
        rules: list[Rule] = []

        for atom in catoms:
            rules.append(_fact(wait_atom[atom.name][0].element))
        for atom in catoms:
            fail = (lit(f"fail_atom_{atom}"),)
            rules.extend(_rule(wait.element, fail)
                         for wait in wait_atom[atom.name][1:])
        for atom in catoms:
            internal = [wait_conj[s] for s in supports[atom]
                        if s in internal_conjs]
            sccw = lit(f"sccw_atom_{atom}")
            rules.append(_rule(sccw.element, tuple(
                lit(f"fail_conj_{s}") for s in supports[atom]
                if s not in internal_conjs)))
            for step in range(1, steps + 1):
                rules.append(_rule(wait_atom[atom.name][step].element, (
                    sccw, *(waits[step - 1] for waits in internal))))
        for conj in conj_labels:
            fail = (lit(f"fail_conj_{conj}"),)
            members = [
                wait_atom.get(inner.args[0].functor)
                if inner.functor == "atom" else wait_sum.get(inner)
                for negated, inner in self.view.conjunctions[conj]
                if not negated]
            members = [waits for waits in members if waits is not None]
            for step in range(steps):
                head = wait_conj[conj][step].element
                rules.append(_rule(head, fail))
                rules.extend(_rule(head, (waits[step],)) for waits in members)
        for term in sum_terms:
            sc = self.view.sums[term]
            total = sc.total
            threshold = total - sc.lower + 1
            fail = (lit(_entity("fail", term).name),)
            # per entry: its wait literals by step, or its fixed guess atom
            entries = [
                (wait_atom.get(wl.literal.atom.name)
                 if not wl.literal.negated else None,
                 self._ce_lit(wl.literal, False), wl.weight)
                for wl in sc.elements]
            for step in range(steps):
                head = wait_sum[term][step].element
                rules.append(_rule(head, fail))
                if threshold <= 0:
                    rules.append(_fact(head))
                elif threshold <= total:
                    counted = [(waits[step].element if waits else fixed, weight)
                               for waits, fixed, weight in entries]
                    rules.append(_rule(head, (_atleast(threshold, counted),)))
        bot = Atom("bot")
        for atom in catoms:
            rules.append(_rule(bot, (
                lit(f"true_atom_{atom}"), wait_atom[atom.name][steps])))
        return rules

    # -- saturation and acceptance --------------------------------------

    def saturate(self) -> list[Rule]:
        bot = _pos(Atom("bot"))
        rules: list[Rule] = []
        for atom in self.view.atoms:
            rules.append(_rule(Atom(f"true_atom_{atom}"), (bot,)))
            rules.append(_rule(Atom(f"fail_atom_{atom}"), (bot,)))
        return rules

    def accept(self) -> list[Rule]:
        return [_constraint((_not(Atom("bot")),))]

    # -- comparison ------------------------------------------------------

    def _cand_holds(self, literal: Literal) -> BodyLiteral:
        return BodyLiteral(Atom(f"hold_atom_{literal.atom}"), literal.negated)

    def _cand_fails(self, literal: Literal) -> BodyLiteral:
        return BodyLiteral(Atom(f"hold_atom_{literal.atom}"),
                           not literal.negated)

    def compare(self) -> list[Rule]:
        bot = Atom("bot")
        if not self.crit.relations:
            return [_fact(bot)]
        rules: list[Rule] = []
        lit_rules: dict[Atom, list[Rule]] = {}
        levels = self.cxopt.levels()
        for level, weight, criterion in self.cxopt.relations:
            rules.extend(self._criterion_rules(
                level, weight, criterion, lit_rules))
        for atom in sorted(lit_rules):
            rules.extend(lit_rules[atom])
        for level in levels:
            body = tuple(
                _pos(Atom(f"equal_{_num(lv)}_{_num(w)}_{o}"))
                for lv, w, o in self.cxopt.relations if lv == level)
            rules.append(_rule(Atom(f"eqlevel_{_num(level)}"), body))
        rules.append(_fact(Atom(f"inspect_{_num(levels[0])}")))
        for higher, lower_ in zip(levels, levels[1:]):
            rules.append(_rule(Atom(f"inspect_{_num(lower_)}"), (
                _pos(Atom(f"inspect_{_num(higher)}")),
                _pos(Atom(f"eqlevel_{_num(higher)}")))))
        for level in levels:
            rules.append(_rule(bot, (
                _pos(Atom(f"inspect_{_num(level)}")),
                _pos(Atom(f"worse_{_num(level)}")))))
        rules.append(_rule(bot, (
            _pos(Atom(f"inspect_{_num(levels[-1])}")),
            _pos(Atom(f"eqlevel_{_num(levels[-1])}")))))
        return rules

    def _group(self, level: int, weight: int):
        """(index, literal) pairs of the minimize group, in list order."""
        return tuple((index, wl.literal) for index, wl
                     in enumerate(self.view.minimize.get(level, ()))
                     if wl.weight == weight)

    def _criterion_rules(self, level: int, weight: int, criterion: str,
                         lit_rules) -> list[Rule]:
        group = self._group(level, weight)
        label = self.view.minimize_label.get(level, 0)
        key = f"{_num(level)}_{_num(weight)}"
        skey = f"{label}_{_num(weight)}"
        equal = Atom(f"equal_{key}_{criterion}")
        worse = Atom(f"worse_{_num(level)}")
        if criterion == "card":
            return self._card_rules(group, skey, equal, worse)
        if criterion == "incl":
            return self._incl_rules(group, equal, worse, lit_rules)
        return self._pref_rules(group, skey, equal, worse, lit_rules)

    def _card_rules(self, group, skey: str, equal: Atom,
                    worse: Atom) -> list[Rule]:
        if not group:
            return [_fact(equal)]
        rules: list[Rule] = []
        size = len(group)

        def count(position: int, value: int) -> Atom:
            return Atom(f"count_{skey}_{position}_{_num(value)}")

        def cdown(position: int, value: int) -> Atom:
            return Atom(f"cdown_{skey}_{_num(position)}_{_num(value)}")

        first_q, first_lit = group[0]
        rules.append(_rule(count(first_q, 1), (self._cand_holds(first_lit),)))
        rules.append(_rule(count(first_q, 0), (self._cand_fails(first_lit),)))
        for i in range(1, size):
            q, lit = group[i]
            prev_q = group[i - 1][0]
            for value in range(i + 1):
                rules.append(_rule(count(q, value + 1), (
                    _pos(count(prev_q, value)), self._cand_holds(lit))))
                rules.append(_rule(count(q, value), (
                    _pos(count(prev_q, value)), self._cand_fails(lit))))
        last_q = group[-1][0]
        for value in range(size + 1):
            rules.append(_rule(cdown(last_q, value),
                               (_pos(count(last_q, value)),)))
        for i in range(size - 1, -1, -1):
            q, lit = group[i]
            prev = group[i - 1][0] if i else -1
            y_holds = self._ce_lit(lit, True)
            for value in range(size + 1):
                rules.append(_rule(cdown(prev, value - 1), (
                    _pos(cdown(q, value)), _pos(y_holds))))
            for value in range(-1, size + 1):
                rules.append(_rule(cdown(prev, value), (_pos(cdown(q, value)),)))
        rules.append(_rule(equal, (_pos(cdown(-1, 0)),)))
        rules.append(_rule(worse, (_pos(cdown(-1, -1)),)))
        return rules

    def _literals(self, group) -> list[Literal]:
        seen: list[Literal] = []
        for _, lit in group:
            if lit not in seen:
                seen.append(lit)
        return seen

    def _incl_rules(self, group, equal: Atom, worse: Atom,
                    lit_rules) -> list[Rule]:
        literals = self._literals(group)
        if not literals:
            return [_fact(equal)]
        rules: list[Rule] = []
        for lit in literals:
            ndiff = Atom(f"ndiff_{_lit_suffix(lit)}")
            lit_rules.setdefault(ndiff, [
                _rule(ndiff, (self._cand_fails(lit),)),
                _rule(ndiff, (_pos(self._ce_lit(lit, True)),)),
            ])
            rules.append(_rule(worse, (
                _pos(self._ce_lit(lit, True)), self._cand_fails(lit))))
        rules.append(_rule(equal, tuple(
            _pos(Atom(f"ndiff_{_lit_suffix(lit)}")) for lit in literals)))
        return rules

    def _pref_rules(self, group, skey: str, equal: Atom, worse: Atom,
                    lit_rules) -> list[Rule]:
        literals = self._literals(group)
        if not literals:
            return [_fact(worse)]
        inside = set(literals)
        pairs = [(a, b) for a, b in self.crit.prefer
                 if a in inside and b in inside]

        def one(family: str, lit: Literal) -> Atom:
            return Atom(f"{family}_{_lit_suffix(lit)}")

        for lit in literals:
            holds_x, fails_x = self._cand_holds(lit), self._cand_fails(lit)
            true_y = _pos(self._ce_lit(lit, True))
            fail_y = _pos(self._ce_lit(lit, False))
            defs = {
                "cando": [_rule(one("cando", lit), (holds_x, fail_y))],
                "nocan": [_rule(one("nocan", lit), (fails_x,)),
                          _rule(one("nocan", lit), (true_y,))],
                "condo": [_rule(one("condo", lit), (true_y, fails_x))],
                "nocon": [_rule(one("nocon", lit), (fail_y,)),
                          _rule(one("nocon", lit), (holds_x,))],
            }
            for family, rule_list in defs.items():
                lit_rules.setdefault(one(family, lit), rule_list)

        rules: list[Rule] = []
        defeaters = {
            lit: [d for d in literals
                  if (d, lit) in pairs and (lit, d) not in pairs]
            for lit in literals}
        successors = {lit: [s for p, s in pairs if p == lit]
                      for lit in literals}
        for lit in literals:
            grp = Atom(f"candog_{skey}_{_lit_suffix(lit)}")
            for succ in successors[lit]:
                rules.append(_rule(grp, (
                    _pos(one("cando", lit)), _pos(one("condo", succ)))))
            if successors[lit]:
                rules.append(_rule(equal, (
                    _pos(grp),
                    *(_pos(one("nocon", d)) for d in defeaters[lit]))))
        for lit in literals:
            grp = Atom(f"nocong_{skey}_{_lit_suffix(lit)}")
            rules.append(_rule(grp, (_pos(one("nocon", lit)),)))
            rules.append(_rule(grp, tuple(
                _pos(one("nocan", s)) for s in successors[lit])))
            for d in defeaters[lit]:
                rules.append(_rule(grp, (_pos(one("cando", d)),)))
        rules.append(_rule(worse, tuple(
            _pos(Atom(f"nocong_{skey}_{_lit_suffix(lit)}"))
            for lit in literals)))
        return rules


def build_meta_program(program: Program, crit: CriteriaSet) -> MetaProgram:
    """Assemble the check program from ``program``'s canonical facts."""
    view = _View(program)
    builder = _Builder(view, crit)
    candidate_defs = tuple(builder.candidate_definitions())
    candidate_rules = tuple(builder.candidate_rules())
    candidate_atoms = {a: Atom(f"hold_atom_{a}") for a in view.atoms}
    candidate_side = frozenset(candidate_atoms.values()) | core.atoms(
        Program(candidate_defs + candidate_rules))
    return MetaProgram(
        candidate_definitions=candidate_defs,
        candidate_rules=candidate_rules,
        guess=tuple(builder.guess()),
        evaluate=tuple(builder.evaluate()),
        check=tuple(builder.check()),
        saturate=tuple(builder.saturate()),
        compare=tuple(builder.compare()),
        accept=tuple(builder.accept()),
        candidate_atoms=candidate_atoms,
        true_atoms={a: Atom(f"true_atom_{a}") for a in view.atoms},
        fail_atoms={a: Atom(f"fail_atom_{a}") for a in view.atoms},
        bot=Atom("bot"),
        candidate_side=candidate_side,
    )


def _compare_conditions(mp: MetaProgram,
                        static: tuple[Rule, ...]) -> list[BodyLiteral]:
    """The candidate-side body literals of the compare rules in order of
    first occurrence, once the structure that makes the counterexample
    side a positive closure over the guess atoms and these conditions is
    checked: the static rules mention no candidate-side atom and derive
    guess atoms only from ``bot``; compare heads other than ``bot`` occur
    nowhere else; compare bodies read the static rules only through
    guess atoms, and the candidate only through whole literals."""
    guess = set(mp.true_atoms.values()) | set(mp.fail_atoms.values())
    static_atoms = core.atoms(Program(static))
    if static_atoms & mp.candidate_side:
        raise ContractViolationError(
            "counterexample rules mention candidate atoms: "
            f"{sorted(static_atoms & mp.candidate_side)}")
    for rule in static:
        if guess & core.atoms_of(rule.head) and _pos(mp.bot) not in rule.body:
            raise ContractViolationError(
                f"guess atom derived other than by saturation: {rule}")
    heads = {a for rule in mp.compare for a in core.atoms_of(rule.head)}
    heads.discard(mp.bot)
    shared = heads & (static_atoms | guess | mp.candidate_side)
    if shared:
        raise ContractViolationError(
            f"compare rules derive atoms used outside them: {sorted(shared)}")
    foreign = mp.candidate_side | (static_atoms - guess)
    conditions: dict[BodyLiteral, None] = {}
    for rule in mp.compare:
        for bl in rule.body:
            if bl.element in mp.candidate_side:
                conditions[bl] = None
            elif core.atoms_of(bl.element) & foreign:
                raise ContractViolationError(
                    f"compare rule reads outside the compare part: {rule}")
    return list(conditions)


class MetaSolver:
    """Structure-exploiting solver for generated check programs.

    Candidates and guesses are int masks whose bit ``i`` stands for
    ``object_atoms[i]``; so does the candidate part's hold atom of
    ``object_atoms[i]``, which makes :meth:`project` a mask of low bits."""

    def __init__(self, mp: MetaProgram):
        self.mp = mp
        self.object_atoms = sorted(mp.candidate_atoms)
        n = len(self.object_atoms)
        if n > DEFAULT_META_CAP:
            raise CapExceededError(
                f"{n} candidate atoms exceed meta cap {DEFAULT_META_CAP}")
        holds = [mp.candidate_atoms[a] for a in self.object_atoms]
        self._candidate = CompiledProgram(
            mp.candidate, holds + sorted(mp.candidate_side.difference(holds)))
        self._objects = (1 << n) - 1
        self._search = Search(self._candidate)
        # The closure indexes true_atom of object atom i at i, its
        # fail_atom at n + i and bot at 2n, so a guess atom is an int.
        keys = ([mp.true_atoms[a] for a in self.object_atoms]
                + [mp.fail_atoms[a] for a in self.object_atoms] + [mp.bot])
        self._bot = 2 * n
        static = mp.evaluate + mp.check + mp.saturate
        conditions = _compare_conditions(mp, static)
        self._closure = HornClosure.of_rules(static + mp.compare,
                                             keys + conditions)
        self._condition_bits = [
            (self._closure.index[bl], self._candidate.bit[bl.element],
             bl.negated) for bl in conditions]

    def decode(self, x: int) -> Interpretation:
        return frozenset(a for i, a in enumerate(self.object_atoms)
                         if x >> i & 1)

    def project(self, held: int) -> int:
        """The object mask of the candidate-side mask ``held``."""
        return held & self._objects

    def stable_candidates(self) -> Iterator[int]:
        """The candidate-side masks of the candidate part's answer sets."""
        return self._search.answer_sets()

    def candidate_stable(self, x: int) -> bool:
        """Whether the candidate part has an answer set projecting to x."""
        return any(self.project(held) == x for held in self.stable_candidates())

    def conditions(self, held: int) -> list[int]:
        """Closure indexes of the conditions met by the candidate whose
        candidate-side mask is ``held``."""
        return [idx for idx, bit, negated in self._condition_bits
                if bool(held & bit) != negated]

    def refutes(self, conditions: list[int]) -> bool:
        """Whether the counterexample side derives bot for every guess,
        given a candidate's ``conditions``.

        A depth-first walk fixes guess bit i at depth i, as fail_atom_i
        or true_atom_i, each child closing only its one new atom on a
        copy of its parent's closure.  The rules are positive, so once a
        partial guess derives bot every completion does too, and its
        subtree is dropped; a complete guess that escapes bot ends the
        walk."""
        closure = self._closure
        bot = self._bot
        n = len(self.object_atoms)

        def escapes(state, i: int) -> bool:
            if i == n:
                return True
            for atom in (n + i, i):
                child = closure.extend(state, atom, bot)
                if child is not None and escapes(child, i + 1):
                    return True
            return False

        root = closure.start(conditions, bot)
        return root is None or not escapes(root, 0)

    def accepted(self, held: int) -> bool:
        """Whether the stable candidate with candidate-side mask ``held``
        survives every guess."""
        return self.refutes(self.conditions(held))

    def solve(self, limit: int | None = None) -> list[Interpretation]:
        core.check_limit(limit)
        accepted = [self.decode(self.project(held))
                    for held in self.stable_candidates() if self.accepted(held)]
        ordered = canonical_order(accepted)
        return ordered[:limit] if limit is not None else ordered


def solve_meta(mp: MetaProgram,
               limit: int | None = None) -> list[Interpretation]:
    """Hold-projections of the meta program's answer sets."""
    return MetaSolver(mp).solve(limit)


@dataclass(frozen=True)
class CrosscheckReport:
    native: tuple[Interpretation, ...]
    meta: tuple[Interpretation, ...]

    @property
    def agree(self) -> bool:
        return set(self.native) == set(self.meta)

    @property
    def difference(self) -> tuple[Interpretation, ...]:
        return tuple(canonical_order(set(self.native) ^ set(self.meta)))


def crosscheck(program: Program, crit: CriteriaSet,
               cap: int = core.DEFAULT_ATOM_CAP) -> CrosscheckReport:
    """Optimal answer sets computed natively and via the reify -> build
    -> solve pipeline; both sides apply the same criteria defaulting."""
    native = optimal_answer_sets(
        program, effective_criteria(crit, program.minimize), cap=cap)
    meta = solve_meta(build_meta_program(program, crit))
    return CrosscheckReport(tuple(native), tuple(meta))
