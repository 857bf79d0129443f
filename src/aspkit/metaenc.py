"""Saturation-based disjunctive check programs over reified input.

:func:`build_meta_program` reifies an extended object program once and
assembles from that reification's label tables
(:class:`aspkit.reify.Tables`, read as they are, with no copy or view),
in the toolkit's own core language, a ground disjunctive program whose
answer sets project onto the optimal answer sets of the object program
(outside facts go through ``parse_reified``).  Its parts:

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

Every part is written with meta atom names, and no fact, term or
``Rule`` object is made to build or print it.  The evaluate, check,
saturate and compare parts, the counterexample side, are positive Horn
rules once a candidate is fixed, and most of a large check program's
rules are among them (the wait levels grow quadratically in a
component's size).  They are kept as name-level rows (see :data:`Row`),
which :meth:`MetaProgram.to_text` prints and :class:`MetaSolver`
compiles directly.  The candidate, guess and accept parts are kept as
the lines that :meth:`MetaProgram.to_text` prints; a whole program as
rules is ``parse_program(mp.to_text())``, the paper's route.

:func:`solve_meta` exploits exactly this structure: the candidates are
the answer sets of the candidate part alone, found by the search of
:class:`aspkit.compiled.Search` over ``parse_program`` of exactly the
candidate lines that are printed, and a candidate is accepted iff the
counterexample side derives ``bot`` for every guess, which by saturation
is equivalent to the meta program having a (unique) answer set with
that hold-projection.  :class:`MetaSolver` gives the ``hold_atom_*`` of
object atom i bit i of the candidate part, so the search, which branches
on the lowest bits first once the choice heads are decided, settles
them before the definition atoms.  It compiles the counterexample side
(evaluate, check, saturate and compare) once, as one closure whose facts
are closed when it is built and in which each candidate-side body
literal of the compare rows is a condition that a candidate seeds.
Those rules are positive, so a partial guess that derives ``bot``
refutes every guess extending it: the solver walks the guess bits depth
first and drops such subtrees.  A complete guess that escapes ``bot``
is a better answer set; the solver keeps it, and tests each later
candidate against the kept guesses before it walks.  It checks the
structure that makes this sound when it is built.  Object atoms are
kept by name, and every meta atom is a name made from one.
:func:`crosscheck` checks its caps before either route enumerates.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

from . import core
from .core import (
    Atom,
    CapExceededError,
    ContractViolationError,
    CriteriaSet,
    Interpretation,
    MinimizeStatement,
    Program,
    sorted_atoms,
)
from .compiled import (
    ClosureState,
    CompiledProgram,
    HornClosure,
    HornRule,
    Search,
    canonical_masks,
)
from .optimize import optimal_answer_sets
from .parser import parse_program
from .reify import Inner, Tables, tables
from .semantics import canonical_order, universe

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


def _entity(family: str, key: Inner | int | None) -> str:
    """Meta atom name for an atom (its name), a conjunction (its label),
    a sum (its (lower, label, upper)) or falsity (None)."""
    if type(key) is str:
        return f"{family}_atom_{key}"
    if type(key) is int:
        return f"{family}_conj_{key}"
    if key is None:
        return f"{family}_false"
    lower, label, upper = key
    return f"{family}_sum_{_num(lower)}_{label}_{_num(upper)}"


#: A literal of a minimize list or prefer pair: (negated, atom name).
Lit = tuple[bool, str]


def _lit_suffix(lit: Lit) -> str:
    return f"{'neg' if lit[0] else 'pos'}_{lit[1]}"


def _ce_lit(negated: bool, name: str, holds: bool) -> str:
    """Guess atom name standing for 'literal holds' (or does not hold)."""
    family = "true" if holds != negated else "fail"
    return f"{family}_atom_{name}"


def _ce_member(negated: bool, inner: Inner, holds: bool) -> str:
    return _entity("true" if holds != negated else "fail", inner)


#: A rule of the evaluate, check, saturate or compare part: head name,
#: body atom names, and lower-bounded sums as (lower, ((name, weight),
#: ...)); the shape of :data:`aspkit.compiled.HornRule` with meta atom
#: names in place of indexes.  A fact has an empty body.  A compare
#: row's body may also hold a candidate condition as its literal text,
#: ``hold_atom_a`` or ``not hold_atom_a``, the key the closure gives it.
Row = tuple[str, tuple[str, ...],
            tuple[tuple[int, tuple[tuple[str, int], ...]], ...]]


def _row(head: str, *body: str) -> Row:
    """A row without sums."""
    return head, body, ()


def _row_text(row: Row) -> str:
    """A row as a rule of the core language: atoms, then sums."""
    head, body, sums = row
    if sums:
        body = (*body, *(
            f"{lower} #sum[{','.join(f'{name}={w}' for name, w in entries)}]"
            for lower, entries in sums))
    return f"{head} :- {', '.join(body)}." if body else f"{head}."


def _rows_text(rows) -> list[str]:
    """Rows as rules of the core language; the sum-free ones, most rows
    of a large program, are written here inline."""
    return [_row_text(row) if row[2]
            else f"{row[0]} :- {', '.join(row[1])}." if row[1]
            else f"{row[0]}."
            for row in rows]


def _bounded_sums(parts, total: int):
    """Lower-bound sums of a row; None when some bound is unreachable,
    trivial bounds dropped (an all-trivial body yields a fact)."""
    sums = []
    for bound, entries in parts:
        if bound > total:
            return None
        if bound > 0:
            sums.append((bound, entries))
    return tuple(sums)


@dataclass
class MetaProgram:
    """The generated program with its parts kept separable.

    The candidate, guess and accept parts are lines of text, one rule
    each, as :meth:`to_text` prints them; the evaluate, check, saturate
    and compare parts are :data:`Row` tuples.  The object atoms are kept
    by name, sorted; the candidate part as rules and the candidate side
    are made when first asked for."""

    atom_names: tuple[str, ...]
    candidate_definitions: tuple[str, ...]
    candidate_rules: tuple[str, ...]
    guess: tuple[str, ...]
    evaluate: tuple[Row, ...]
    check: tuple[Row, ...]
    saturate: tuple[Row, ...]
    compare: tuple[Row, ...]
    accept: tuple[str, ...]

    @property
    def candidate(self) -> tuple[str, ...]:
        return self.candidate_definitions + self.candidate_rules

    @cached_property
    def candidate_program(self) -> Program:
        """The candidate part as rules: its printed lines, parsed."""
        return parse_program("\n".join(self.candidate))

    @cached_property
    def candidate_side(self) -> frozenset[Atom]:
        """The hold atoms and the atoms of the candidate part."""
        holds = (Atom(f"hold_atom_{name}") for name in self.atom_names)
        return core.atoms(self.candidate_program).union(holds)

    def to_text(self) -> str:
        sections = (
            ("candidate generation", self.candidate),
            ("counterexample guess", self.guess),
            ("counterexample evaluation", _rows_text(self.evaluate)),
            ("answer-set check", _rows_text(self.check)),
            ("saturation", _rows_text(self.saturate)),
            ("comparison", _rows_text(self.compare)),
            ("acceptance", self.accept),
        )
        lines: list[str] = []
        for title, part in sections:
            if part:
                lines.append(f"% {title}")
                lines.extend(part)
        return "\n".join(lines) + "\n" if lines else ""


class _Builder:
    """Emits the parts of one check program, every rule written with
    meta atom names: the candidate, guess and accept parts as lines of
    text, the evaluate, check, saturate and compare parts as rows."""

    def __init__(self, labels: Tables, crit: CriteriaSet,
                 minimize: MinimizeStatement):
        self.labels = labels
        self.crit = crit
        self.cxopt = effective_criteria(crit, minimize)

    # -- candidate part ------------------------------------------------

    def candidate_definitions(self) -> list[str]:
        lines: list[str] = []
        for key, entries in self.labels.sums.items():
            lower, _, upper = key
            elements = ",".join(
                f"{'not ' if negated else ''}hold_atom_{name}={weight}"
                for negated, name, weight in entries)
            lines.append(f"{_entity('hold', key)} :- "
                         f"{lower} #sum[{elements}] {upper}.")
        for label, members in enumerate(self.labels.conjunctions):
            body = ", ".join([("not " if negated else "")
                              + _entity("hold", inner)
                              for negated, inner in members])
            lines.append(f"hold_conj_{label} :- {body}." if body
                         else f"hold_conj_{label}.")
        return lines

    def candidate_rules(self) -> list[str]:
        lines: list[str] = []
        for head, label in self.labels.rules:
            trigger = f"hold_conj_{label}"
            if head is None:
                lines.append(f":- {trigger}.")
            elif type(head) is str:
                lines.append(f"hold_atom_{head} :- {trigger}.")
            else:
                choosable = self.labels.support(head)
                if choosable:
                    elements = ",".join([f"hold_atom_{name}=1"
                                         for name in choosable])
                    lines.append(f"#sum[{elements}] :- {trigger}.")
                lines.append(f":- {trigger}, not {_entity('hold', head)}.")
        return lines

    # -- counterexample guess and evaluation ---------------------------

    def guess(self) -> list[str]:
        return [f"true_atom_{name} | fail_atom_{name}."
                for name in self.labels.names]

    def evaluate(self) -> list[Row]:
        rows: list[Row] = []
        if any(head is None for head, _ in self.labels.rules):
            rows.append(("fail_false", (), ()))
        for key, entries in self.labels.sums.items():
            lower, _, upper = key
            total = sum(weight for _, _, weight in entries)
            holds = tuple((_ce_lit(negated, name, True), weight)
                          for negated, name, weight in entries)
            fails = tuple((_ce_lit(negated, name, False), weight)
                          for negated, name, weight in entries)
            sums = _bounded_sums(
                [(lower, holds), (total - upper, fails)], total)
            if sums is not None:
                rows.append((_entity("true", key), (), sums))
            for bound, counted in ((total - lower + 1, fails),
                                   (upper + 1, holds)):
                sums = _bounded_sums([(bound, counted)], total)
                if sums is not None:
                    rows.append((_entity("fail", key), (), sums))
        for label, members in enumerate(self.labels.conjunctions):
            rows.append((f"true_conj_{label}", tuple(
                _ce_member(negated, inner, True)
                for negated, inner in members), ()))
            fail = f"fail_conj_{label}"
            rows.extend((fail, (_ce_member(negated, inner, False),), ())
                        for negated, inner in members)
        return rows

    # -- answer-set check ----------------------------------------------

    def check(self) -> list[Row]:
        rows: list[Row] = [
            ("bot", (f"true_conj_{label}", _entity("fail", head)), ())
            for head, label in self.labels.rules]
        # labels of each atom's supporting rules, in first-occurrence order
        supports: dict[str, dict[int, None]] = {
            name: {} for name in self.labels.names}
        for head, label in self.labels.rules:
            for name in self.labels.support(head):
                supports[name][label] = None
        for name, labels in supports.items():
            rows.append(("bot", (f"true_atom_{name}",
                                *(f"fail_conj_{s}" for s in labels)), ()))
        for label in range(len(self.labels.components)):
            rows.extend(self._component_rules(label, supports))
        return rows

    def _component_rules(self, label: int, supports) -> list[Row]:
        """Wait-level rows of one component, made in bulk: the step
        suffixes ``_0`` ... ``_z`` are made once, each element's wait
        atom names are its prefix plus each suffix, and the rows of a
        family are zipped from those name lists and repeated bodies, so
        no step's row is built by a Python statement of its own.  The
        rows of a conjunction or sum interleave by step.  The component's
        members are split by key type, its atom names coming first and
        sorted.  Membership in the component is a dict lookup."""
        found = self.labels.components[label]
        names = [key for key in found if type(key) is str]
        conj_labels = [key for key in found if type(key) is int]
        sum_keys = [key for key in found if type(key) is tuple]
        steps = len(names)
        internal_conjs = set(conj_labels)
        suffixes = [f"_{step}" for step in range(steps + 1)]
        # wait atom names by step: atoms (keyed by name) at 0..steps,
        # conjunctions and sums at 0..steps-1
        wait_atom = {a: list(map(f"wait_atom_{a}".__add__, suffixes))
                     for a in names}
        suffixes = suffixes[:steps]
        wait_conj = {c: list(map(f"wait_conj_{c}".__add__, suffixes))
                     for c in conj_labels}
        wait_sum = {key: list(map(_entity("wait", key).__add__, suffixes))
                    for key in sum_keys}
        no_sums = repeat(())
        rows: list[Row] = [(wait_atom[a][0], (), ()) for a in names]
        for a in names:
            rows.extend(zip(wait_atom[a][1:], repeat((f"fail_atom_{a}",)),
                            no_sums))
        for a in names:
            internal = [wait_conj[s] for s in supports[a]
                        if s in internal_conjs]
            sccw = f"sccw_atom_{a}"
            rows.append((sccw, tuple(f"fail_conj_{s}" for s in supports[a]
                                     if s not in internal_conjs), ()))
            rows.extend(zip(wait_atom[a][1:], zip(repeat(sccw), *internal),
                            no_sums))
        for conj in conj_labels:
            waits = wait_conj[conj]
            members = [
                (wait_atom if type(inner) is str else wait_sum).get(inner)
                for negated, inner in self.labels.conjunctions[conj]
                if not negated]
            # per step: the fail row, then one row per internal member
            streams = [zip(waits, repeat((f"fail_conj_{conj}",)), no_sums)]
            streams.extend(zip(waits, zip(member), no_sums)
                           for member in members if member is not None)
            rows.extend(chain.from_iterable(zip(*streams)))
        for key in sum_keys:
            waits = wait_sum[key]
            entries = self.labels.sums[key]
            total = sum(weight for _, _, weight in entries)
            threshold = total - key[0] + 1
            streams = [zip(waits, repeat((_entity("fail", key),)), no_sums)]
            if threshold <= 0:
                streams.append(zip(waits, no_sums, no_sums))
            elif threshold <= total:
                # per entry: its wait atom names by step, or its fixed
                # guess atom at every step
                columns = [
                    zip(wait_atom[name], repeat(weight))
                    if not negated and name in wait_atom
                    else repeat((_ce_lit(negated, name, False), weight))
                    for negated, name, weight in entries]
                sums = (((threshold, counted),) for counted in zip(*columns))
                streams.append(zip(waits, no_sums, sums))
            rows.extend(chain.from_iterable(zip(*streams)))
        rows.extend(("bot", (f"true_atom_{a}", wait_atom[a][steps]), ())
                    for a in names)
        return rows

    # -- saturation and acceptance --------------------------------------

    def saturate(self) -> list[Row]:
        bot = ("bot",)
        rows: list[Row] = []
        for name in self.labels.names:
            rows.append((f"true_atom_{name}", bot, ()))
            rows.append((f"fail_atom_{name}", bot, ()))
        return rows

    # -- comparison ------------------------------------------------------

    @staticmethod
    def _cand_holds(lit: Lit) -> str:
        """The candidate condition that ``lit`` holds."""
        name = f"hold_atom_{lit[1]}"
        return f"not {name}" if lit[0] else name

    @staticmethod
    def _cand_fails(lit: Lit) -> str:
        """The candidate condition that ``lit`` does not hold."""
        name = f"hold_atom_{lit[1]}"
        return name if lit[0] else f"not {name}"

    def compare(self) -> list[Row]:
        if not self.crit.relations:
            return [_row("bot")]
        rows: list[Row] = []
        lit_rows: dict[str, list[Row]] = {}
        levels = self.cxopt.levels()
        for level, weight, criterion in self.cxopt.relations:
            rows.extend(self._criterion_rows(
                level, weight, criterion, lit_rows))
        for name in sorted(lit_rows):
            rows.extend(lit_rows[name])
        for level in levels:
            rows.append(_row(f"eqlevel_{_num(level)}", *(
                f"equal_{_num(lv)}_{_num(w)}_{o}"
                for lv, w, o in self.cxopt.relations if lv == level)))
        rows.append(_row(f"inspect_{_num(levels[0])}"))
        for higher, lower_ in zip(levels, levels[1:]):
            rows.append(_row(f"inspect_{_num(lower_)}",
                             f"inspect_{_num(higher)}",
                             f"eqlevel_{_num(higher)}"))
        for level in levels:
            rows.append(_row("bot", f"inspect_{_num(level)}",
                             f"worse_{_num(level)}"))
        rows.append(_row("bot", f"inspect_{_num(levels[-1])}",
                         f"eqlevel_{_num(levels[-1])}"))
        return rows

    def _group(self, level: int, weight: int) -> tuple[tuple[int, Lit], ...]:
        """(index, literal) pairs of the minimize group, in list order."""
        label = self.labels.minimize.get(level)
        entries = () if label is None else self.labels.lists[label]
        return tuple((index, (negated, name)) for index, (negated, name, w)
                     in enumerate(entries) if w == weight)

    def _criterion_rows(self, level: int, weight: int, criterion: str,
                        lit_rows) -> list[Row]:
        group = self._group(level, weight)
        label = self.labels.minimize.get(level, 0)
        key = f"{_num(level)}_{_num(weight)}"
        skey = f"{label}_{_num(weight)}"
        equal = f"equal_{key}_{criterion}"
        worse = f"worse_{_num(level)}"
        if criterion == "card":
            return self._card_rows(group, skey, equal, worse)
        if criterion == "incl":
            return self._incl_rows(group, equal, worse, lit_rows)
        return self._pref_rows(group, skey, equal, worse, lit_rows)

    def _card_rows(self, group, skey: str, equal: str,
                   worse: str) -> list[Row]:
        if not group:
            return [_row(equal)]
        rows: list[Row] = []
        size = len(group)

        def count(position: int, value: int) -> str:
            return f"count_{skey}_{position}_{_num(value)}"

        def cdown(position: int, value: int) -> str:
            return f"cdown_{skey}_{_num(position)}_{_num(value)}"

        first_q, first_lit = group[0]
        rows.append(_row(count(first_q, 1), self._cand_holds(first_lit)))
        rows.append(_row(count(first_q, 0), self._cand_fails(first_lit)))
        for i in range(1, size):
            q, lit = group[i]
            prev_q = group[i - 1][0]
            holds, fails = self._cand_holds(lit), self._cand_fails(lit)
            for value in range(i + 1):
                prev = count(prev_q, value)
                rows.append(_row(count(q, value + 1), prev, holds))
                rows.append(_row(count(q, value), prev, fails))
        last_q = group[-1][0]
        for value in range(size + 1):
            rows.append(_row(cdown(last_q, value), count(last_q, value)))
        for i in range(size - 1, -1, -1):
            q, lit = group[i]
            prev = group[i - 1][0] if i else -1
            y_holds = _ce_lit(*lit, True)
            for value in range(size + 1):
                rows.append(_row(cdown(prev, value - 1), cdown(q, value),
                                 y_holds))
            for value in range(-1, size + 1):
                rows.append(_row(cdown(prev, value), cdown(q, value)))
        rows.append(_row(equal, cdown(-1, 0)))
        rows.append(_row(worse, cdown(-1, -1)))
        return rows

    @staticmethod
    def _literals(group) -> list[Lit]:
        return list(dict.fromkeys(lit for _, lit in group))

    def _incl_rows(self, group, equal: str, worse: str,
                   lit_rows) -> list[Row]:
        literals = self._literals(group)
        if not literals:
            return [_row(equal)]
        rows: list[Row] = []
        for lit in literals:
            ndiff = f"ndiff_{_lit_suffix(lit)}"
            true_y, fails_x = _ce_lit(*lit, True), self._cand_fails(lit)
            lit_rows.setdefault(ndiff, [
                _row(ndiff, fails_x), _row(ndiff, true_y)])
            rows.append(_row(worse, true_y, fails_x))
        rows.append(_row(equal, *(
            f"ndiff_{_lit_suffix(lit)}" for lit in literals)))
        return rows

    def _pref_rows(self, group, skey: str, equal: str, worse: str,
                   lit_rows) -> list[Row]:
        literals = self._literals(group)
        if not literals:
            return [_row(worse)]
        inside = set(literals)
        prefer = [((a.negated, a.atom.name), (b.negated, b.atom.name))
                  for a, b in self.crit.prefer]
        pairs = [(a, b) for a, b in prefer if a in inside and b in inside]

        def one(family: str, lit: Lit) -> str:
            return f"{family}_{_lit_suffix(lit)}"

        for lit in literals:
            holds_x, fails_x = self._cand_holds(lit), self._cand_fails(lit)
            true_y, fail_y = _ce_lit(*lit, True), _ce_lit(*lit, False)
            defs = {
                "cando": [_row(one("cando", lit), holds_x, fail_y)],
                "nocan": [_row(one("nocan", lit), fails_x),
                          _row(one("nocan", lit), true_y)],
                "condo": [_row(one("condo", lit), true_y, fails_x)],
                "nocon": [_row(one("nocon", lit), fail_y),
                          _row(one("nocon", lit), holds_x)],
            }
            for family, row_list in defs.items():
                lit_rows.setdefault(one(family, lit), row_list)

        rows: list[Row] = []
        defeaters = {
            lit: [d for d in literals
                  if (d, lit) in pairs and (lit, d) not in pairs]
            for lit in literals}
        successors = {lit: [s for p, s in pairs if p == lit]
                      for lit in literals}
        for lit in literals:
            grp = f"candog_{skey}_{_lit_suffix(lit)}"
            for succ in successors[lit]:
                rows.append(_row(grp, one("cando", lit), one("condo", succ)))
            if successors[lit]:
                rows.append(_row(equal, grp, *(
                    one("nocon", d) for d in defeaters[lit])))
        for lit in literals:
            grp = f"nocong_{skey}_{_lit_suffix(lit)}"
            rows.append(_row(grp, one("nocon", lit)))
            rows.append(_row(grp, *(one("nocan", s) for s in successors[lit])))
            for d in defeaters[lit]:
                rows.append(_row(grp, one("cando", d)))
        rows.append(_row(worse, *(
            f"nocong_{skey}_{_lit_suffix(lit)}" for lit in literals)))
        return rows


def build_meta_program(program: Program, crit: CriteriaSet) -> MetaProgram:
    """Assemble the check program from ``program``'s canonical labels."""
    labels = tables(program)
    builder = _Builder(labels, crit, program.minimize)
    return MetaProgram(
        atom_names=tuple(labels.names),
        candidate_definitions=tuple(builder.candidate_definitions()),
        candidate_rules=tuple(builder.candidate_rules()),
        guess=tuple(builder.guess()),
        evaluate=tuple(builder.evaluate()),
        check=tuple(builder.check()),
        saturate=tuple(builder.saturate()),
        compare=tuple(builder.compare()),
        accept=(":- not bot.",),
    )


def _compare_conditions(mp: MetaProgram) -> list[str]:
    """The candidate conditions of the compare rows in order of first
    occurrence, once the structure that makes the counterexample side a
    positive closure over the guess atoms and these conditions is
    checked: the static rows (evaluate, check, saturate) mention no
    candidate-side atom and derive guess atoms only from ``bot``; compare
    heads other than ``bot`` occur nowhere else; compare bodies read the
    static rows only through guess atoms, the candidate only through
    whole literals, and are positive otherwise.  A condition is a
    literal's text: a candidate-side name, which these checks keep out of
    every other row and head, or that name after ``not``."""
    bot = "bot"
    guess = {f"{family}_atom_{name}" for name in mp.atom_names
             for family in ("true", "fail")}
    candidate = {a.name for a in mp.candidate_side}
    static: set[str] = set()
    for row in mp.evaluate + mp.check + mp.saturate:
        head, body, sums = row
        if head in guess and bot not in body:
            raise ContractViolationError(
                f"guess atom derived other than by saturation: "
                f"{_row_text(row)}")
        static.add(head)
        static.update(body)
        for _, entries in sums:
            static.update(name for name, _ in entries)
    if static & candidate:
        raise ContractViolationError(
            "counterexample rules mention candidate atoms: "
            f"{sorted(static & candidate)}")
    foreign = candidate | (static - guess)
    conditions: dict[str, None] = {}
    for row in mp.compare:
        _, body, sums = row
        for text in body:
            name = text.removeprefix("not ")
            if name in candidate:
                conditions[text] = None
            elif name != text:
                raise ContractViolationError(
                    f"compare rule must be positive: {_row_text(row)}")
            elif name in foreign:
                raise ContractViolationError(
                    f"compare rule reads outside the compare part: "
                    f"{_row_text(row)}")
        for _, entries in sums:
            if any(name in foreign or name.startswith("not ")
                   for name, _ in entries):
                raise ContractViolationError(
                    f"compare sum must be positive over the compare part: "
                    f"{_row_text(row)}")
    heads = {head for head, _, _ in mp.compare}
    heads.discard(bot)
    shared = heads & (static | guess | candidate | conditions.keys())
    if shared:
        raise ContractViolationError(
            f"compare rules derive atoms used outside them: {sorted(shared)}")
    return list(conditions)


def _check_meta_cap(mp: MetaProgram) -> None:
    """Refuse a check program of more than ``DEFAULT_META_CAP`` object
    atoms, each of which the meta solver guesses."""
    if len(mp.atom_names) > DEFAULT_META_CAP:
        raise CapExceededError(f"{len(mp.atom_names)} candidate atoms "
                               f"exceed meta cap {DEFAULT_META_CAP}")


class MetaSolver:
    """Structure-exploiting solver for generated check programs.

    Candidates and guesses are int masks whose bit ``i`` stands for
    ``object_atoms[i]``; so does the candidate part's hold atom of
    ``object_atoms[i]``, which makes :meth:`project` a mask of low bits."""

    def __init__(self, mp: MetaProgram):
        _check_meta_cap(mp)
        self.mp = mp
        names = mp.atom_names
        n = len(names)
        self.object_atoms = [Atom(name) for name in names]
        holds = [Atom(f"hold_atom_{name}") for name in names]
        self._candidate = CompiledProgram(
            mp.candidate_program.rules,
            holds + sorted_atoms(mp.candidate_side.difference(holds)))
        self._objects = (1 << n) - 1
        self._search = Search(self._candidate)
        # The closure indexes true_atom of object atom i at i, its
        # fail_atom at n + i and bot at 2n, so a guess atom is an int;
        # the conditions follow, then other names in order of first
        # occurrence.
        conditions = _compare_conditions(mp)
        keys = ([f"true_atom_{name}" for name in names]
                + [f"fail_atom_{name}" for name in names]
                + ["bot"] + conditions)
        index = {key: i for i, key in enumerate(keys)}

        def idx(name: str) -> int:
            return index.setdefault(name, len(index))

        horn: list[HornRule] = [
            (idx(head), [idx(name) for name in body],
             [(lower, [(idx(name), w) for name, w in entries])
              for lower, entries in sums])
            for head, body, sums in (*mp.evaluate, *mp.check, *mp.saturate,
                                     *mp.compare)]
        self._bot = 2 * n
        self._closure = HornClosure(list(index), horn)
        #: closed states of the guesses that escaped, tried in this order
        self._kept: list[ClosureState] = []
        bit = {a.name: b for a, b in self._candidate.bit.items()}
        self._condition_bits = [
            (index[text], bit[text.removeprefix("not ")],
             text.startswith("not "))
            for text in conditions]

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

        The guesses that escaped for earlier candidates are tried first,
        the one that escaped last first: each is kept as the closure of
        its guess atoms alone, on which only the conditions are closed.
        The side is positive, so a kept guess that escapes bot under these
        conditions is itself a better answer set, and the candidate is
        rejected without a walk.

        Otherwise a depth-first walk fixes guess bit i at depth i, as
        fail_atom_i or true_atom_i, each child closing only its one new
        atom on a copy of its parent's closure.  Once a partial guess
        derives bot every completion does too, and its subtree is
        dropped; a complete guess that escapes bot ends the walk and is
        kept."""
        return self._escape(conditions) is None

    def _escape(self, conditions: list[int]) -> ClosureState | None:
        """A closed state of a guess that escapes bot under
        ``conditions`` (see :meth:`refutes`), or None when there is none."""
        closure = self._closure
        bot = self._bot
        kept = self._kept
        for k, guess in enumerate(kept):
            state = closure.start(conditions, bot, guess)
            if state is not None:
                if k:
                    kept.insert(0, kept.pop(k))
                return state
        n = len(self.object_atoms)
        leaves = []

        def escapes(state, i: int) -> bool:
            if i == n:
                leaves.append(state)
                return True
            for atom in (n + i, i):
                child = closure.extend(state, atom, bot)
                if child is not None and escapes(child, i + 1):
                    return True
            return False

        root = closure.start(conditions, bot)
        if root is None or not escapes(root, 0):
            return None
        # guess atoms are derived only with bot, so the leaf's derived
        # guess atoms are the ones the walk fixed
        leaf = leaves[0]
        derived = leaf[0]
        kept.insert(0, closure.start(
            [i if derived[i] else n + i for i in range(n)], bot))
        return leaf

    def accepted(self, held: int) -> bool:
        """Whether the stable candidate with candidate-side mask ``held``
        survives every guess."""
        return self.refutes(self.conditions(held))

    def rejection(self, x: int) -> Interpretation | None:
        """Why the object mask ``x`` is not accepted: the guess that
        escapes refutation for the stable candidate projecting to ``x``,
        or None when no stable candidate projects to ``x``.  Raises
        ValueError when ``x`` is accepted."""
        for held in self.stable_candidates():
            if self.project(held) == x:
                state = self._escape(self.conditions(held))
                if state is None:
                    raise ValueError(f"{x:#b} is accepted")
                derived = state[0]
                return frozenset(a for i, a in enumerate(self.object_atoms)
                                 if derived[i])
        return None

    def solve(self, limit: int | None = None) -> list[Interpretation]:
        core.check_limit(limit)
        # object atoms take bits in name order, so this is canonical_order
        accepted = canonical_masks(self.project(held)
                                   for held in self.stable_candidates()
                                   if self.accepted(held))
        return [self.decode(x) for x in accepted[:limit]]


def solve_meta(mp: MetaProgram,
               limit: int | None = None) -> list[Interpretation]:
    """Hold-projections of the meta program's answer sets."""
    return MetaSolver(mp).solve(limit)


@dataclass(frozen=True)
class CrosscheckReport:
    native: tuple[Interpretation, ...]
    meta: tuple[Interpretation, ...]
    #: each set only native has, with the guess that escapes refutation
    #: for it, or None when it is not a stable candidate
    rejections: tuple[tuple[Interpretation, Interpretation | None], ...] = ()

    @property
    def agree(self) -> bool:
        return set(self.native) == set(self.meta)

    @property
    def difference(self) -> tuple[Interpretation, ...]:
        return tuple(canonical_order(set(self.native) ^ set(self.meta)))


def crosscheck(program: Program, crit: CriteriaSet,
               cap: int = core.DEFAULT_ATOM_CAP) -> CrosscheckReport:
    """Optimal answer sets computed natively and via the reify -> build
    -> solve pipeline; both sides apply the same criteria defaulting.  A
    set only the native side has comes with the meta solver's reason to
    reject it.  The enumeration cap, the contract of reify and the meta
    cap are checked first, in that order."""
    universe(program, cap)
    mp = build_meta_program(program, crit)
    _check_meta_cap(mp)
    native = optimal_answer_sets(
        program, effective_criteria(crit, program.minimize), cap=cap)
    meta = solve_meta(mp)
    found = set(meta)
    lacking = [x for x in native if x not in found]
    rejections = ()
    if lacking:
        solver = MetaSolver(mp)
        bit = {a: 1 << i for i, a in enumerate(solver.object_atoms)}
        rejections = tuple((x, solver.rejection(sum(map(bit.get, x))))
                           for x in lacking)
    return CrosscheckReport(tuple(native), tuple(meta), rejections)
