"""Reference routes that the tests compare aspkit's engines with; no
command line path uses them.

Satisfaction and models on syntax objects (``satisfies``,
``is_model``), with the positive projection and the atoms of a
component (``positive_part``, ``atoms_of``), are the set-level
evaluation that the library itself no longer has: it evaluates
programs only as compiled masks.  On them rest the reduct, subset
minimality and support on syntax objects, the oracle for the compiled
answer-set checks.  The immediate consequence operator on syntax
objects is a second answer-set route beside the compiled least-model
check and the subset-minimality oracle, and, localized to a component,
the oracle for its wait levels.  A rescan of every rule per component
is the oracle for the members of the scc facts of a reification.  The
brute-force loops try every interpretation, or every hold-projection
of a meta candidate, with the compiled checks, as enumeration did
before it searched.  ``candidate_atoms``, ``true_atoms`` and
``fail_atoms`` map each object atom of a check program to its meta
atom, and ``BOT`` is its error atom.  ``closure_of_rules`` compiles
positive syntax-object rules into a ``HornClosure`` on its own, and
``row_of_rule`` writes a rule as a row of the check program's
counterexample side.  ``fresh_meta_solve`` asks a new meta solver
about each stable candidate, so no candidate is tested against a guess
kept for another.  The token-stream readers of program, criteria and
fact text are the oracle for the shared lexer's readers.  A
reification that builds a new term per occurrence, and a Tarjan
decomposition over atoms into plain :class:`Component` records, are the
oracles of ``reify`` and ``sccs``.  The dependency graph read through
``positive_part`` and ``atoms_of`` rule by rule, as a :class:`Graph` of
atoms and atom pairs, is the oracle of the two graphs the library
reads, ``CompiledProgram.successors`` and the one ``reify.Tables``
builds from its label tables; the wait-level rows built one row at a
time are the oracle of the meta build's component rows."""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

from aspkit.compiled import CompiledProgram, HornClosure, HornRule
from aspkit.core import (
    DEFAULT_ATOM_CAP,
    Atom,
    Body,
    BodyLiteral,
    CapExceededError,
    ContractViolationError,
    CriteriaSet,
    Disjunction,
    Interpretation,
    Literal,
    MinimizeEntry,
    MinimizeStatement,
    Program,
    Rule,
    SumConstraint,
    WeightedLiteral,
    atoms,
    is_extended,
    sorted_atoms,
)
from aspkit.metaenc import MetaProgram, MetaSolver, _ce_lit, _entity
from aspkit.parser import ParseError, SourceSpan
from aspkit.reify import MAX_TERM_DEPTH, ReifiedFact, Term
from aspkit.semantics import canonical_order


# -- set-level evaluation on syntax objects ---------------------------------


def satisfies(x: Interpretation, e) -> bool:
    """The inductive satisfaction relation on literals, disjunctions,
    sum constraints, body literals, bodies, and rules."""
    if isinstance(e, Atom):
        return e in x
    if isinstance(e, Literal):
        return (e.atom not in x) if e.negated else (e.atom in x)
    if isinstance(e, Disjunction):
        return any(a in x for a in e.atoms)
    if isinstance(e, SumConstraint):
        weight = sum(wl.weight for wl in e.elements if satisfies(x, wl.literal))
        if weight < (e.lower if e.lower is not None else 0):
            return False
        return e.upper is None or weight <= e.upper
    if isinstance(e, BodyLiteral):
        holds = satisfies(x, e.element)
        return not holds if e.negated else holds
    if isinstance(e, tuple):
        return all(satisfies(x, bl) for bl in e)
    if isinstance(e, Rule):
        return satisfies(x, e.head) or not satisfies(x, e.body)
    raise TypeError(f"satisfaction undefined for {type(e).__name__}")


def is_model(x: Interpretation, program: Program) -> bool:
    return all(satisfies(x, rule) for rule in program.rules)


def positive_part(x: Body | Disjunction | SumConstraint):
    """Positive projection: the positive components of a body, the atom
    set of a disjunction, or the positively signed entries of a sum."""
    if isinstance(x, Disjunction):
        return frozenset(x.atoms)
    if isinstance(x, SumConstraint):
        return tuple(wl for wl in x.elements if not wl.literal.negated)
    if isinstance(x, tuple):
        return tuple(bl.element for bl in x if not bl.negated)
    raise TypeError(f"no positive projection for {type(x).__name__}")


def atoms_of(x) -> frozenset[Atom]:
    """The atoms underlying a disjunction, sum constraint, body, or
    collection of (weighted) literals, with signs and weights stripped."""
    if isinstance(x, Atom):
        return frozenset((x,))
    if isinstance(x, Disjunction):
        return frozenset(x.atoms)
    if isinstance(x, SumConstraint):
        return frozenset(wl.literal.atom for wl in x.elements)
    out: set[Atom] = set()
    for item in x:
        if isinstance(item, Atom):
            out.add(item)
        elif isinstance(item, WeightedLiteral):
            out.add(item.literal.atom)
        elif isinstance(item, Literal):
            out.add(item.atom)
        elif isinstance(item, BodyLiteral):
            element = item.element
            out |= {element} if isinstance(element, Atom) else atoms_of(element)
        else:
            raise TypeError(f"cannot extract atoms from {type(item).__name__}")
    return frozenset(out)


# -- the check program's meta atoms as maps ---------------------------------


def _meta_atoms(mp: MetaProgram, prefix: str) -> dict[Atom, Atom]:
    return {Atom(name): Atom(prefix + name) for name in mp.atom_names}


def candidate_atoms(mp: MetaProgram) -> dict[Atom, Atom]:
    """Each object atom of ``mp`` with its ``hold_atom_*``."""
    return _meta_atoms(mp, "hold_atom_")


def true_atoms(mp: MetaProgram) -> dict[Atom, Atom]:
    """Each object atom of ``mp`` with its ``true_atom_*``."""
    return _meta_atoms(mp, "true_atom_")


def fail_atoms(mp: MetaProgram) -> dict[Atom, Atom]:
    """Each object atom of ``mp`` with its ``fail_atom_*``."""
    return _meta_atoms(mp, "fail_atom_")


#: The check program's error atom.
BOT = Atom("bot")


# -- reduct, minimality and support on syntax objects -----------------------


@dataclass(frozen=True)
class PositiveProgram:
    """Reduct shape: no negated body literals, no upper bounds, and
    disjunction heads only (sum heads collapse to single atoms)."""

    rules: tuple[Rule, ...] = ()

    def __post_init__(self) -> None:
        for rule in self.rules:
            if not isinstance(rule.head, Disjunction):
                raise ValueError("positive program heads must be disjunctions")
            for bl in rule.body:
                if bl.negated:
                    raise ValueError("positive program bodies must not use negation")
                if isinstance(bl.element, SumConstraint):
                    if bl.element.upper is not None:
                        raise ValueError("positive program sums must drop upper bounds")
                    if any(wl.literal.negated for wl in bl.element.elements):
                        raise ValueError("positive program sums must be negation-free")


def _reduce_body(body: Body, x: Interpretation) -> Body:
    reduced: list[BodyLiteral] = []
    for element in positive_part(body):
        if isinstance(element, Atom):
            reduced.append(BodyLiteral(element))
            continue
        # Lower bound shrinks by the weight of negative entries satisfied
        # through absence; it may go negative and is kept as computed.
        lower = element.lower if element.lower is not None else 0
        lower -= sum(wl.weight for wl in element.elements
                     if wl.literal.negated and wl.literal.atom not in x)
        reduced.append(BodyLiteral(
            SumConstraint(lower, positive_part(element), None)))
    return tuple(reduced)


def reduct(program: Program, x: Interpretation) -> PositiveProgram:
    """The reduct: rules with satisfied bodies, sum heads replaced by
    their true positive atoms, negative body parts dropped, and residual
    lower bounds reduced accordingly."""
    out: list[Rule] = []
    for rule in program.rules:
        if not satisfies(x, rule.body):
            continue
        body = _reduce_body(rule.body, x)
        if isinstance(rule.head, Disjunction):
            out.append(Rule(rule.head, body))
        else:
            for atom in sorted(atoms_of(positive_part(rule.head)) & x):
                out.append(Rule(Disjunction((atom,)), body))
    return PositiveProgram(tuple(out))


def is_minimal_model(x: Interpretation, program: PositiveProgram,
                     cap: int = DEFAULT_ATOM_CAP) -> bool:
    """True iff ``x`` is a model and no proper subset is one; checked by
    exhaustive enumeration of the 2^|x| subsets."""
    if len(x) > cap:
        raise CapExceededError(
            f"minimal-model check over {len(x)} atoms exceeds cap {cap}")
    if not is_model(x, program):
        return False
    members = sorted(x)
    # Smallest subsets first: non-minimal models usually fail fast.
    for size in range(len(members)):
        for sub in combinations(members, size):
            if is_model(frozenset(sub), program):
                return False
    return True


def is_answer_set(x: Interpretation, program: Program,
                  cap: int = DEFAULT_ATOM_CAP) -> bool:
    """A model of ``program`` that is a minimal model of its reduct."""
    return is_model(x, program) and is_minimal_model(x, reduct(program, x), cap)


def is_supported_model(program: Program, x: Interpretation) -> bool:
    """A model every true atom of which occurs positively in the head of
    some rule whose body holds."""
    if not is_model(x, program):
        return False
    supported: set[Atom] = set()
    for rule in program.rules:
        if satisfies(x, rule.body):
            supported |= atoms_of(positive_part(rule.head))
    return x <= supported


def tp_step(program: PositiveProgram, x: Interpretation) -> frozenset:
    """Heads of rules whose bodies ``x`` satisfies."""
    return frozenset(r.head for r in program.rules if satisfies(x, r.body))


def tp_iterate(program: PositiveProgram, seed: Interpretation,
               steps: int) -> Interpretation:
    """Iterate the consequence operator ``steps`` times from ``seed``,
    accumulating derived atoms.  Only single-atom heads may arise."""
    current = frozenset(seed)
    for _ in range(steps):
        derived = set(current)
        for head in tp_step(program, current):
            if len(head.atoms) != 1:
                raise ContractViolationError(
                    f"non-atomic head {head!r} in fixpoint iteration")
            derived.add(head.atoms[0])
        if derived == current:
            break
        current = frozenset(derived)
    return current


def scc_fixpoint_check(program: Program, x: Interpretation) -> bool:
    """SCC-localized answer-set check: for a model, iterate the operator
    on the reduct once per component (seeded with everything outside it)
    and require the union of the local results to reproduce ``x``."""
    if not is_model(x, program):
        return False
    reduced = reduct(program, x)
    covered: set[Atom] = set()
    for component in program_sccs(program):
        local = tp_iterate(reduced, x - component.atoms, len(component.atoms))
        covered |= local & component.atoms
    return covered == x


def scc_members(
        program: Program) -> set[tuple[int, Atom | Body | SumConstraint]]:
    """Oracle for the members of the scc facts: per non-trivial
    component, its atoms and, scanning every rule once per component,
    the bodies and sums of rules with a positive head atom in it that
    reach it through a positive body atom or a positive entry of a
    non-negated body sum."""
    members: set[tuple[int, Atom | Body | SumConstraint]] = set()
    for component in program_sccs(program):
        if not component.nontrivial:
            continue
        label, inside = component.label, component.atoms
        members.update((label, atom) for atom in inside)
        for rule in program.rules:
            if not atoms_of(positive_part(rule.head)) & inside:
                continue
            positive = positive_part(rule.body)
            sums = [element for element in positive
                    if isinstance(element, SumConstraint)
                    and atoms_of(positive_part(element)) & inside]
            if sums or any(isinstance(element, Atom) and element in inside
                           for element in positive):
                members.add((label, rule.body))
            members.update((label, element) for element in sums)
    return members


def brute_answer_sets(program: Program) -> list[Interpretation]:
    """Every interpretation that passes the compiled least-model check,
    or without it, for proper disjunctions, the compiled model check and
    subset minimality on the reduct; in canonical order."""
    compiled = CompiledProgram(program.rules, sorted(atoms(program)))

    def stable(mask: int) -> bool:
        if compiled.extended:
            return compiled.is_answer_set(mask)
        x = compiled.decode(mask)
        return compiled.is_model(mask) and is_minimal_model(
            x, reduct(program, x))

    return canonical_order(compiled.decode(mask)
                           for mask in range(1 << len(compiled.atoms))
                           if stable(mask))


def brute_stable_candidates(solver) -> list[int]:
    """The candidate-side masks of a meta solver's stable candidates, by
    hold-projection in mask order: each projection's hold atoms closed
    by one pass over the candidate definitions, which are ordered sums
    before conjunctions, kept when the candidate part's least-model
    check accepts the result."""
    candidate = solver._candidate
    definitions = candidate.rules[:len(solver.mp.candidate_definitions)]
    holds = candidate_atoms(solver.mp)
    found = []
    for x in range(1 << len(solver.object_atoms)):
        held = sum(candidate.bit[holds[a]]
                   for i, a in enumerate(solver.object_atoms) if x >> i & 1)
        for rule in definitions:
            if rule.body_holds(held):
                held |= rule.head
        if candidate.is_answer_set(held):
            found.append(held)
    return found


def fresh_meta_solve(mp: MetaProgram) -> list[Interpretation]:
    """The hold-projections of the stable candidates that a fresh
    ``MetaSolver`` of ``mp``, one per candidate, accepts by its own walk;
    in canonical order."""
    solver = MetaSolver(mp)
    return canonical_order(
        solver.decode(solver.project(held))
        for held in solver.stable_candidates()
        if MetaSolver(mp).accepted(held))


def closure_of_rules(rules: Iterable[Rule],
                     atoms: Iterable[Atom] = ()) -> HornClosure:
    """The closure of positive ground rules with one-atom heads.  The
    atoms in ``atoms`` are indexed first, in their order, and other atoms
    in order of first occurrence."""
    order: dict[Atom, int] = {
        atom: i for i, atom in enumerate(dict.fromkeys(atoms))}

    def idx(atom: Atom) -> int:
        return order.setdefault(atom, len(order))

    compiled: list[HornRule] = []
    for rule in rules:
        if not isinstance(rule.head, Disjunction) or len(rule.head.atoms) != 1:
            raise ContractViolationError(
                f"closure rule needs a one-atom head: {rule}")
        head = idx(rule.head.atoms[0])
        plain: list[int] = []
        sums: list[tuple[int, list[tuple[int, int]]]] = []
        for bl in rule.body:
            element = bl.element
            if bl.negated or (isinstance(element, SumConstraint) and any(
                    wl.literal.negated for wl in element.elements)):
                raise ContractViolationError(
                    f"closure rule must be positive: {rule}")
            if isinstance(element, Atom):
                plain.append(idx(element))
            else:
                sums.append((element.lower or 0, [
                    (idx(wl.literal.atom), wl.weight)
                    for wl in element.elements]))
        compiled.append((head, plain, sums))
    return HornClosure(list(order), compiled)


def row_of_rule(rule: Rule):
    """A rule with a one-atom head as a row of the check program's
    counterexample side: head name, body atom names, and lower-bounded
    sums as (lower, ((name, weight), ...)).  A negated atom, in the body
    or in a sum, is written as its literal text ``not name``, the form a
    compare row gives a candidate condition."""
    (head,) = rule.head.atoms
    body: list[str] = []
    sums = []
    for bl in rule.body:
        if isinstance(bl.element, Atom):
            body.append(str(bl))
        else:
            assert not bl.negated
            sums.append((bl.element.lower or 0, tuple(
                (str(wl.literal), wl.weight)
                for wl in bl.element.elements)))
    return head.name, tuple(body), tuple(sums)


# -- the token-stream readers ----------------------------------------------
#
# The program, criteria and fact readers as they were before the readers
# shared one ``findall`` lexer: a token list of (kind, text, offset)
# tuples behind a cursor with ``at``/``take``/``take_if``.  They are the
# differential oracle of ``parse_program``, ``parse_criteria`` and
# ``text_to_facts``: equal values, or ParseErrors with equal message,
# line and column.

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<hashword>\#[A-Za-z]+)
  | (?P<name>[a-z][A-Za-z0-9_]*)
  | (?P<upper>[A-Z_][A-Za-z0-9_]*)
  | (?P<int>-?[0-9]+)
  | (?P<arrow>:-)
  | (?P<punct>[.,|{}\[\]()=@])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _span(text: str, pos: int) -> SourceSpan:
    """The line and column of offset ``pos`` in ``text``."""
    return SourceSpan(text.count("\n", 0, pos) + 1,
                      pos - text.rfind("\n", 0, pos))


#: A token: kind, text and offset in the source.
_Token = tuple[str, str, int]


def reference_tokenize(text: str) -> list[_Token]:
    """Lex program, criteria, or fact text into tokens, ending with eof."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        value = m.group()
        if kind == "name" and value == "not":
            kind = "not"
        elif kind == "upper":
            raise ParseError(f"non-ground input: variable-like token {value!r}",
                             _span(text, m.start()))
        elif kind == "bad":
            raise ParseError(f"unexpected character {value!r}",
                             _span(text, m.start()))
        tokens.append((kind, value, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _TokenStream:
    """A cursor over the tokens of ``text``; spans are made only for errors."""

    def __init__(self, text: str):
        self._text = text
        self._tokens = reference_tokenize(text)
        self._pos = 0

    @property
    def current(self) -> _Token:
        return self._tokens[self._pos]

    def error(self, message: str, token: _Token) -> ParseError:
        return ParseError(message, _span(self._text, token[2]))

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self._tokens[self._pos]
        return tok[0] == kind and (value is None or tok[1] == value)

    def take(self, kind: str, value: str | None = None) -> _Token:
        tok = self._tokens[self._pos]
        if not self.at(kind, value):
            want = value if value is not None else kind
            raise self.error(f"expected {want!r}, found {tok[1]!r}", tok)
        self._pos += 1
        return tok

    def take_if(self, kind: str, value: str | None = None) -> _Token | None:
        if self.at(kind, value):
            return self.take(kind, value)
        return None


def _parse_atom(ts: _TokenStream) -> Atom:
    return Atom(ts.take("name")[1])


def _parse_literal(ts: _TokenStream) -> Literal:
    negated = ts.take_if("not") is not None
    return Literal(_parse_atom(ts), negated)


def _at_sum(ts: _TokenStream) -> bool:
    return ts.at("int") or ts.at("punct", "{") or ts.at("hashword", "#sum")


def _parse_sum(ts: _TokenStream) -> SumConstraint:
    lower = None
    if tok := ts.take_if("int"):
        lower = int(tok[1])
    elements: list[WeightedLiteral] = []
    if ts.take_if("punct", "{"):
        while True:
            elements.append(WeightedLiteral(_parse_literal(ts), 1))
            if not ts.take_if("punct", ","):
                break
        ts.take("punct", "}")
    else:
        ts.take("hashword", "#sum")
        ts.take("punct", "[")
        while True:
            literal = _parse_literal(ts)
            weight = 1
            if ts.take_if("punct", "="):
                wtok = ts.take("int")
                weight = int(wtok[1])
                if weight < 0:
                    raise ts.error("negative weight in #sum constraint", wtok)
            elements.append(WeightedLiteral(literal, weight))
            if not ts.take_if("punct", ","):
                break
        ts.take("punct", "]")
    upper = None
    if tok := ts.take_if("int"):
        upper = int(tok[1])
    return SumConstraint(lower, tuple(elements), upper)


def _parse_head(ts: _TokenStream):
    if _at_sum(ts):
        return _parse_sum(ts)
    atoms = [_parse_atom(ts)]
    while ts.take_if("punct", "|"):
        atoms.append(_parse_atom(ts))
    return Disjunction(tuple(atoms))


def _parse_body(ts: _TokenStream) -> Body:
    literals: list[BodyLiteral] = []
    while True:
        negated = ts.take_if("not") is not None
        element = _parse_sum(ts) if _at_sum(ts) else _parse_atom(ts)
        literals.append(BodyLiteral(element, negated))
        if not ts.take_if("punct", ","):
            break
    return tuple(literals)


def _parse_minimize_entries(ts: _TokenStream) -> tuple[MinimizeEntry, ...]:
    ts.take("punct", "[")
    entries: list[MinimizeEntry] = []
    if not ts.at("punct", "]"):
        while True:
            literal = _parse_literal(ts)
            weight, level = 1, 1
            if ts.take_if("punct", "="):
                weight = int(ts.take("int")[1])
            if ts.take_if("punct", "@"):
                level = int(ts.take("int")[1])
            entries.append(MinimizeEntry(literal, weight, level))
            if not ts.take_if("punct", ","):
                break
    ts.take("punct", "]")
    return tuple(entries)


def reference_parse_program(text: str) -> Program:
    """Parse program text; raises :class:`ParseError` with a source span."""
    ts = _TokenStream(text)
    rules: list[Rule] = []
    minimize: MinimizeStatement | None = None
    while not ts.at("eof"):
        if ts.at("hashword", "#minimize"):
            tok = ts.take("hashword")
            if minimize is not None:
                raise ts.error("duplicate #minimize statement", tok)
            minimize = MinimizeStatement(_parse_minimize_entries(ts))
            ts.take("punct", ".")
            continue
        if ts.at("hashword") and ts.current[1] != "#sum":
            raise ts.error(f"unknown directive {ts.current[1]!r}", ts.current)
        if ts.take_if("arrow"):
            head: Disjunction | SumConstraint = Disjunction(())
        else:
            head = _parse_head(ts)
            if not ts.at("punct", "."):
                ts.take("arrow")
        body: Body = ()
        if not ts.at("punct", "."):
            body = _parse_body(ts)
        ts.take("punct", ".")
        rules.append(Rule(head, body))
    return Program(tuple(rules), minimize or MinimizeStatement())


def _parse_literal_term(ts: _TokenStream) -> Literal:
    tok = ts.take("name")
    if tok[1] not in ("pos", "neg"):
        raise ts.error("expected pos(...) or neg(...) literal term", tok)
    ts.take("punct", "(")
    ts.take("name", "atom")
    ts.take("punct", "(")
    atom = _parse_atom(ts)
    ts.take("punct", ")")
    ts.take("punct", ")")
    return Literal(atom, tok[1] == "neg")


def reference_parse_criteria(text: str) -> CriteriaSet:
    """Parse ``optimize(J,W,O).`` and ``prefer(L1,L2).`` facts."""
    ts = _TokenStream(text)
    relations: list[tuple[int, int, str]] = []
    seen: dict[tuple[int, int], str] = {}
    prefer: list[tuple[Literal, Literal]] = []
    while not ts.at("eof"):
        tok = ts.take("name")
        if tok[1] == "optimize":
            ts.take("punct", "(")
            level = int(ts.take("int")[1])
            ts.take("punct", ",")
            weight = int(ts.take("int")[1])
            ts.take("punct", ",")
            crit_tok = ts.take("name")
            criterion = crit_tok[1]
            if criterion not in ("card", "incl", "pref"):
                raise ts.error(f"unknown criterion {criterion!r}", crit_tok)
            ts.take("punct", ")")
            key = (level, weight)
            if key in seen and seen[key] != criterion:
                raise ts.error(
                    f"conflicting criteria for level {level}, weight {weight}",
                    crit_tok)
            if key not in seen:
                seen[key] = criterion
                relations.append((level, weight, criterion))
        elif tok[1] == "prefer":
            ts.take("punct", "(")
            first = _parse_literal_term(ts)
            ts.take("punct", ",")
            second = _parse_literal_term(ts)
            ts.take("punct", ")")
            pair = (first, second)
            if pair not in prefer:
                prefer.append(pair)
        else:
            raise ts.error(
                f"expected optimize(...) or prefer(...), found {tok[1]!r}", tok)
        ts.take("punct", ".")
    return CriteriaSet(tuple(relations), tuple(prefer))


def _parse_term(ts, depth: int = 1) -> Term | int:
    if ts.at("int"):
        return int(ts.take("int")[1])
    token = ts.take("name")
    if depth > MAX_TERM_DEPTH:
        raise ts.error(
            f"term nested deeper than {MAX_TERM_DEPTH} levels", token)
    args: list[Term | int] = []
    if ts.take_if("punct", "("):
        while True:
            args.append(_parse_term(ts, depth + 1))
            if not ts.take_if("punct", ","):
                break
        ts.take("punct", ")")
    return Term(token[1], tuple(args))


def reference_text_to_facts(text: str) -> list[ReifiedFact]:
    """Parse fact text; syntax errors carry source spans."""
    ts = _TokenStream(text)
    facts: list[ReifiedFact] = []
    while not ts.at("eof"):
        start = ts.current
        term = _parse_term(ts)
        ts.take("punct", ".")
        if isinstance(term, int) or not term.args:
            raise ts.error("expected a fact with arguments", start)
        facts.append(ReifiedFact(term.functor, term.args))
    return facts


# -- the reification and SCC decomposition on syntax objects ----------------

# The reification builder and the Tarjan decomposition as they were before
# the builder shared one term per distinct atom, sum and signed member and
# keyed its labels by plain tuples, and before the decomposition numbered
# the atoms: a new ``Term`` per occurrence, labels keyed by tuples of
# ``Term``s, and Tarjan over dicts and sets of atoms.  They are the
# differential oracle of ``reify`` and ``sccs``: equal fact lists, and
# equal components, labels and order.


@dataclass(frozen=True)
class Graph:
    """A directed graph over atoms."""

    nodes: frozenset[Atom]
    edges: frozenset[tuple[Atom, Atom]]


@dataclass(frozen=True)
class Component:
    """One component of :func:`reference_sccs`: its label (None unless
    non-trivial), its atoms, and whether it has an internal edge."""

    label: int | None
    atoms: frozenset[Atom]
    nontrivial: bool


def reference_sccs(graph: Graph) -> list[Component]:
    """Recursive Tarjan over atoms, the components in completion order;
    non-trivial components are labeled 0,1,... in that order."""
    succ: dict[Atom, list[Atom]] = {a: [] for a in sorted_atoms(graph.nodes)}
    for a, b in graph.edges:
        succ[a].append(b)
    succ = {a: sorted_atoms(targets) for a, targets in succ.items()}

    index: dict[Atom, int] = {}
    lowlink: dict[Atom, int] = {}
    stack: list[Atom] = []
    on_stack: set[Atom] = set()
    counter = iter(range(len(succ)))
    found: list[frozenset[Atom]] = []

    def connect(v: Atom) -> None:
        index[v] = lowlink[v] = next(counter)
        stack.append(v)
        on_stack.add(v)
        for w in succ[v]:
            if w not in index:
                connect(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif w in on_stack:
                lowlink[v] = min(lowlink[v], index[w])
        if lowlink[v] == index[v]:
            scc = set()
            while True:
                w = stack.pop()
                on_stack.discard(w)
                scc.add(w)
                if w == v:
                    break
            found.append(frozenset(scc))

    for v in succ:
        if v not in index:
            connect(v)

    components: list[Component] = []
    labels = iter(range(len(found)))
    for members in found:
        nontrivial = len(members) > 1 or any(a in succ[a] for a in members)
        label = next(labels) if nontrivial else None
        components.append(Component(label, members, nontrivial))
    return components


def program_sccs(program: Program) -> list[Component]:
    """:func:`reference_sccs` of the program's dependency graph read rule
    by rule."""
    return reference_sccs(reference_dependency_graph(program))


_FALSE_TERM = Term("false")


def _atom_term(atom: Atom) -> Term:
    return Term("atom", (Term(atom.name),))


def _literal_term(literal: Literal) -> Term:
    wrapper = "neg" if literal.negated else "pos"
    return Term(wrapper, (_atom_term(literal.atom),))


def _signed(term: Term, negated: bool) -> Term:
    return Term("neg" if negated else "pos", (term,))


class _ReifyBuilder:
    def __init__(self, program: Program):
        self.program = program
        self._wlist_labels: dict[tuple, int] = {}
        self._conj_labels: dict[tuple, int] = {}
        #: per rule: its conjunction label and member terms
        self.bodies: list[tuple[int, tuple[Term, ...]]] = []
        self.facts: list[ReifiedFact] = []

    def _wlist(self, entries: tuple[tuple[Term, int], ...],
               out: list[ReifiedFact]) -> int:
        label = self._wlist_labels.get(entries)
        if label is None:
            label = len(self._wlist_labels)
            self._wlist_labels[entries] = label
            for index, (literal, weight) in enumerate(entries):
                out.append(
                    ReifiedFact("wlist", (label, index, literal, weight)))
        return label

    def _sum_term(self, sc: SumConstraint, out: list[ReifiedFact]) -> Term:
        if not sc.elements:
            raise ContractViolationError(f"empty sums cannot be reified: {sc}")
        entries = tuple(
            (_literal_term(wl.literal), wl.weight) for wl in sc.elements)
        label = self._wlist(entries, out)
        lower = sc.lower if sc.lower is not None else 0
        upper = sc.upper if sc.upper is not None else sc.total
        return Term("sum", (lower, label, upper))

    def _conjunction(self, body: Body, out: list[ReifiedFact]
                     ) -> tuple[int, tuple[Term, ...]]:
        members: list[Term] = []
        member_facts: list[list[ReifiedFact]] = []
        for bl in body:
            facts: list[ReifiedFact] = []
            inner = (_atom_term(bl.element) if isinstance(bl.element, Atom)
                     else self._sum_term(bl.element, facts))
            members.append(_signed(inner, bl.negated))
            member_facts.append(facts)
        key = tuple(members)
        label = self._conj_labels.get(key)
        if label is None:
            label = len(self._conj_labels)
            self._conj_labels[key] = label
            for member, facts in zip(members, member_facts):
                out.append(ReifiedFact("set", (label, member)))
                out.extend(facts)
        return label, key

    def add_rule(self, rule: Rule) -> None:
        head_facts: list[ReifiedFact] = []
        if isinstance(rule.head, Disjunction):
            if len(rule.head.atoms) > 1:
                raise ContractViolationError(
                    "proper disjunction heads cannot be reified")
            head = (_atom_term(rule.head.atoms[0]) if rule.head.atoms
                    else _FALSE_TERM)
        else:
            head = self._sum_term(rule.head, head_facts)
        body_facts: list[ReifiedFact] = []
        label, members = self._conjunction(rule.body, body_facts)
        self.bodies.append((label, members))
        self.facts.append(ReifiedFact(
            "rule", (_signed(head, False),
                     _signed(Term("conjunction", (label,)), False))))
        self.facts.extend(head_facts)
        self.facts.extend(body_facts)

    def add_sccs(self) -> None:
        label_of: dict[Atom, int] = {}
        members: list[dict[Term, None]] = []
        for component in program_sccs(self.program):
            if not component.nontrivial:
                continue
            label_of.update(dict.fromkeys(component.atoms, component.label))
            members.append(dict.fromkeys(
                map(_atom_term, sorted_atoms(component.atoms))))
        if not members:
            return
        for rule, (label, terms) in zip(self.program.rules, self.bodies):
            heads = set(map(label_of.get,
                            atoms_of(positive_part(rule.head)))) - {None}
            conjunction = Term("conjunction", (label,))
            for bl, term in zip(rule.body, terms):
                if bl.negated:
                    continue
                if isinstance(bl.element, Atom):
                    inside, sums = {label_of.get(bl.element)}, ()
                else:
                    inside = {label_of.get(wl.literal.atom)
                              for wl in positive_part(bl.element)}
                    sums = (term.args[0],)
                for component in inside & heads:
                    members[component].update(
                        dict.fromkeys((conjunction, *sums)))
        for component, terms in enumerate(members):
            for term in terms:
                self.facts.append(ReifiedFact("scc", (component, term)))

    def add_minimize(self, statement: MinimizeStatement) -> None:
        for level in statement.levels():
            entries = tuple(
                (_literal_term(e.literal), e.weight)
                for e in statement.entries if e.level == level)
            facts: list[ReifiedFact] = []
            label = self._wlist(entries, facts)
            self.facts.append(ReifiedFact("minimize", (level, label)))
            self.facts.extend(facts)


def reference_reify(program: Program) -> list[ReifiedFact]:
    """The fact list describing ``program``, one new term per occurrence."""
    if not is_extended(program):
        raise ContractViolationError(
            "only extended programs (no proper disjunctions) can be reified")
    builder = _ReifyBuilder(program)
    for rule in program.rules:
        builder.add_rule(rule)
    builder.add_sccs()
    builder.add_minimize(program.minimize)
    return builder.facts


# -- the dependency graph and the wait-level rows, one object at a time -----

# The dependency graph and the wait-level rows of one component as they
# were before the graph was read in one walk and the rows were zipped from
# name lists: ``positive_part``/``atoms_of`` per rule plus a separate
# ``atoms`` pass, and one tuple built per row.  They are the differential
# oracles of ``CompiledProgram.successors``, the graph of
# ``reify.Tables.add_sccs`` and the meta build's component rows: equal
# graphs, and equal rows in equal order.


def reference_dependency_graph(program: Program) -> Graph:
    """Edges from positive head atoms to positive body atoms."""
    edges: set[tuple[Atom, Atom]] = set()
    for rule in program.rules:
        heads = atoms_of(positive_part(rule.head))
        for element in positive_part(rule.body):
            targets = ({element} if isinstance(element, Atom)
                       else atoms_of(positive_part(element)))
            edges.update((a, b) for a in heads for b in targets)
    return Graph(atoms(program), frozenset(edges))


def reference_component_rules(labels, label: int, supports) -> list:
    """Wait-level rows of the component ``label`` of a meta build's
    reification ``labels``, one tuple built per row; ``supports`` maps
    each atom name to its supporting rules' conjunction labels."""
    found = labels.components[label]
    names = sorted(key for key in found if isinstance(key, str))
    conj_labels = [key for key in found if isinstance(key, int)]
    sum_keys = [key for key in found if isinstance(key, tuple)]
    steps = len(names)
    internal_conjs = set(conj_labels)
    wait_atom = {a: [f"wait_atom_{a}_{step}" for step in range(steps + 1)]
                 for a in names}
    wait_conj = {c: [f"wait_conj_{c}_{step}" for step in range(steps)]
                 for c in conj_labels}
    wait_sum = {}
    for key in sum_keys:
        name = _entity("wait", key)
        wait_sum[key] = [f"{name}_{step}" for step in range(steps)]
    rows = [(wait_atom[a][0], (), ()) for a in names]

    for a in names:
        fail = (f"fail_atom_{a}",)
        rows.extend((wait, fail, ()) for wait in wait_atom[a][1:])
    for a in names:
        internal = [wait_conj[s] for s in supports[a]
                    if s in internal_conjs]
        sccw = f"sccw_atom_{a}"
        rows.append((sccw, tuple(f"fail_conj_{s}" for s in supports[a]
                                 if s not in internal_conjs), ()))
        for step, wait in enumerate(wait_atom[a][1:]):
            rows.append((wait, (sccw, *[waits[step] for waits in internal]),
                         ()))
    for conj in conj_labels:
        fail = (f"fail_conj_{conj}",)
        members = [
            wait_atom.get(inner) if isinstance(inner, str)
            else wait_sum.get(inner)
            for negated, inner in labels.conjunctions[conj]
            if not negated]
        members = [waits for waits in members if waits is not None]
        for step, wait in enumerate(wait_conj[conj]):
            rows.append((wait, fail, ()))
            rows.extend((wait, (waits[step],), ()) for waits in members)
    for key in sum_keys:
        lower, _, _ = key
        entries = labels.sums[key]
        total = sum(weight for _, _, weight in entries)
        threshold = total - lower + 1
        fail = (_entity("fail", key),)
        columns = [
            (wait_atom.get(name) if not negated else None,
             _ce_lit(negated, name, False), weight)
            for negated, name, weight in entries]
        for step, wait in enumerate(wait_sum[key]):
            rows.append((wait, fail, ()))
            if threshold <= 0:
                rows.append((wait, (), ()))
            elif threshold <= total:
                counted = tuple((waits[step] if waits else fixed, weight)
                                for waits, fixed, weight in columns)
                rows.append((wait, (), ((threshold, counted),)))
    rows.extend(("bot", (f"true_atom_{a}", wait_atom[a][steps]), ())
                for a in names)
    return rows
