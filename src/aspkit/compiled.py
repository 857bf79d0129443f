"""Rule lists compiled once to bitmasks, and one Horn closure engine.

:class:`CompiledProgram` fixes an atom order, so an interpretation is an
int whose bit ``i`` stands for the ``i``-th atom.  Plain bodies become a
positive and a negative mask, sums become a lower bound, an upper bound
and weighted bits, and heads become a mask or a sum.  An interpretation
is an answer set when it is a model and a minimal model of its own
reduct, and every check of an interpretation reads these masks.  Every
model of the reduct inside the interpretation holds the least model of
the reduct's rules with one head atom in it, which comes from
:class:`HornClosure`, the watch-list closure of Dowling and Gallier
(1984) that also serves the wait levels of :mod:`aspkit.consequence`
and the meta solver's counterexample side.  The interpretation is
minimal when a depth-first search over closed states of the same
closure, rooted at that least model, finds no smaller model of the
whole reduct; it branches only on the head atoms of a rule whose body
holds, as in minimal model generation with positive hyper tableaux
(Bry and Yahya, 2000), and without proper disjunctions it ends at the
root.  :class:`Search` finds every
answer set of a compiled program by depth-first search with Clark
completion propagation, as in conflict-driven answer-set enumeration
(Gebser, Kaufmann, Neumann and Schaub, 2007), but with no unfounded-set
reasoning.  Every complete assignment that survives propagation is a
supported model, and a supported model none of whose true atoms lies
on a positive loop is an answer set (Fages, 1994; Erdem and
Lifschitz, 2003), so without proper disjunctions the least-model check
decides only the complete assignments that make such an atom true.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from functools import cached_property

from .core import (
    Atom,
    Disjunction,
    Interpretation,
    Program,
    Rule,
    SumConstraint,
    is_extended,
)

#: A closure rule: head atom index, plain body atom indexes, and
#: lower-bounded sums as (lower, ((atom index, weight), ...)).
HornRule = tuple[int, Iterable[int], Iterable[tuple[int, Iterable[tuple[int, int]]]]]

#: A closed closure: derived flag per atom, missing count per rule, and
#: the weight each sum slot still lacks.  Never changed once returned.
ClosureState = tuple[bytearray, list[int], list[int]]


class HornClosure:
    """Forward closure of positive rules with one head atom, plain body
    atoms and lower-bounded sums of positive weighted atoms.

    Each rule counts the body atoms it still misses plus the sums still
    below their lower bound, and each sum the weight it still lacks;
    deriving an atom updates only the rules watching it, so a closure
    costs time linear in the rules' size.  The facts are closed once,
    into :attr:`root`; :meth:`start` adds a seed to a copy of it, or of
    another closed state, and :meth:`extend` one atom to a copy of a
    closed state.  Atoms are keys indexed in the order of ``atoms``; a
    key need not be an :class:`Atom`.
    """

    #: Missing count of a rule left out of a closure: no sequence of
    #: derivations brings it down to zero.
    _OUT = -1

    def __init__(self, atoms: Sequence[Hashable], rules: Iterable[HornRule]):
        self.index: dict[Hashable, int] = {a: i for i, a in enumerate(atoms)}
        self.heads: list[int] = []
        #: distinct plain body atoms per rule
        self.plain: list[int] = []
        #: missing count per rule before anything is derived
        self.missing: list[int] = []
        #: first sum slot per rule, and the lower bound of every slot
        self.first: list[int] = []
        self.bounds: list[int] = []
        self.plain_watch: list[list[int]] = [[] for _ in atoms]
        self.sum_watch: list[list[tuple[int, int, int]]] = [[] for _ in atoms]
        facts: list[int] = []
        for head, plain, sums in rules:
            rid = len(self.heads)
            plain = set(plain)
            for idx in plain:
                self.plain_watch[idx].append(rid)
            self.first.append(len(self.bounds))
            missing = len(plain)
            for lower, entries in sums:
                slot = len(self.bounds)
                self.bounds.append(lower)
                missing += lower > 0
                weights: dict[int, int] = {}
                for idx, weight in entries:
                    weights[idx] = weights.get(idx, 0) + weight
                for idx, weight in weights.items():
                    self.sum_watch[idx].append((rid, slot, weight))
            self.heads.append(head)
            self.plain.append(len(plain))
            self.missing.append(missing)
            if not missing:
                facts.append(head)
        # each fact once: a closure's queue must not hold an atom twice
        facts = list(dict.fromkeys(facts))
        derived = bytearray(len(atoms))
        for idx in facts:
            derived[idx] = 1
        #: the closure of the facts alone, which :meth:`start` copies
        self.root: ClosureState = (derived, list(self.missing),
                                   list(self.bounds))
        self._close(facts, *self.root)

    def _close(self, queue: list[int], derived: bytearray, missing: list[int],
               need: list[int], goal: int = -1) -> bool:
        """Extend ``queue``, the derived atoms in order, to the closure;
        ``need`` holds the weight each sum slot still lacks.  Stop early,
        returning True, once ``goal`` is derived."""
        heads = self.heads
        plain_watch = self.plain_watch
        sum_watch = self.sum_watch
        pos = 0
        while pos < len(queue):
            idx = queue[pos]
            pos += 1
            for rid in plain_watch[idx]:
                missing[rid] -= 1
                if missing[rid] == 0:
                    head = heads[rid]
                    if not derived[head]:
                        if head == goal:
                            return True
                        derived[head] = 1
                        queue.append(head)
            for rid, slot, weight in sum_watch[idx]:
                lacking = need[slot]
                need[slot] = lacking - weight
                if lacking > 0 >= lacking - weight:
                    missing[rid] -= 1
                    if missing[rid] == 0:
                        head = heads[rid]
                        if not derived[head]:
                            if head == goal:
                                return True
                            derived[head] = 1
                            queue.append(head)
        return False

    def start(self, seed: Iterable[int], goal: int,
              state: ClosureState | None = None) -> ClosureState | None:
        """The closure of all rules over the closed ``state`` (by default
        :attr:`root`) and the atom indexes ``seed``, or None once it
        contains the atom index ``goal``; it extends a copy of ``state``,
        which stays as it was, so only what ``seed`` adds is closed."""
        derived, missing, need = self.root if state is None else state
        derived = bytearray(derived)
        queue = []
        for idx in seed:
            if not derived[idx]:
                derived[idx] = 1
                queue.append(idx)
        if derived[goal]:
            return None
        state = (derived, list(missing), list(need))
        return None if self._close(queue, *state, goal) else state

    def extend(self, state: ClosureState, idx: int,
               goal: int) -> ClosureState | None:
        """A copy of the closed ``state`` closed again with the atom index
        ``idx`` added, or None once it contains ``goal``; ``state`` itself
        is left as it was, so it can be extended again."""
        derived, missing, need = state
        if idx == goal:
            return None
        if derived[idx]:
            return state
        derived = bytearray(derived)
        derived[idx] = 1
        child = (derived, list(missing), list(need))
        return None if self._close([idx], *child, goal) else child

    def least_model(self, active: Iterable[tuple[int, Sequence[int]]],
                    seed: Iterable[int] = ()) -> ClosureState:
        """The closed state derived from the atom indexes ``seed`` by the
        ``active`` rules, given as (rule id, its sums' lower bounds)
        pairs, the seed included; other rules never fire, there or in a
        state :meth:`extend` makes from it."""
        missing = [self._OUT] * len(self.heads)
        need = list(self.bounds)
        derived = bytearray(len(self.index))
        queue: list[int] = []
        for idx in seed:
            if not derived[idx]:
                derived[idx] = 1
                queue.append(idx)
        for rid, lowers in active:
            count = self.plain[rid]
            slot = self.first[rid]
            for lower in lowers:
                need[slot] = lower
                slot += 1
                count += lower > 0
            missing[rid] = count
            if not count:
                head = self.heads[rid]
                if not derived[head]:
                    derived[head] = 1
                    queue.append(head)
        self._close(queue, derived, missing, need)
        return derived, missing, need


def _indexes(mask: int) -> list[int]:
    """Bit positions set in ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def canonical_masks(masks: Iterable[int]) -> list[int]:
    """``masks`` sorted by their lists of set bit positions, lowest
    first; when bit order is name order, this is the order of
    :func:`aspkit.semantics.canonical_order` on their interpretations."""
    return sorted(masks, key=_indexes)


def _layers(entries: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """(weight, mask) pairs whose weighted popcounts add up to the
    entries' weight: entries of one weight share a mask, and an atom
    repeated at that weight goes to a further mask."""
    layers: list[list[int]] = []
    for b, w in entries:
        if not w:
            continue
        for layer in layers:
            if layer[0] == w and not layer[1] & b:
                layer[1] |= b
                break
        else:
            layers.append([w, b])
    return tuple((w, mask) for w, mask in layers)


class _Sum:
    """A sum constraint over bits: satisfied weight within bounds."""

    __slots__ = ("lower", "upper", "positive", "negative", "_positive",
                 "_negative")

    def __init__(self, sc: SumConstraint, bit: dict[Atom, int]):
        self.lower = sc.lower if sc.lower is not None else 0
        self.upper = sc.upper
        self.positive = tuple((bit[wl.literal.atom], wl.weight)
                              for wl in sc.elements if not wl.literal.negated)
        self.negative = tuple((bit[wl.literal.atom], wl.weight)
                              for wl in sc.elements if wl.literal.negated)
        self._positive = _layers(self.positive)
        self._negative = _layers(self.negative)

    def absent(self, x: int) -> int:
        """Weight of negated entries satisfied by ``x`` through absence."""
        weight = 0
        for w, mask in self._negative:
            weight += w * (mask & ~x).bit_count()
        return weight

    def present(self, x: int) -> int:
        """Weight of positive entries true in ``x``."""
        weight = 0
        for w, mask in self._positive:
            weight += w * (mask & x).bit_count()
        return weight

    def holds(self, x: int) -> bool:
        weight = self.absent(x) + self.present(x)
        return self.lower <= weight and (self.upper is None or weight <= self.upper)

    def surely(self, t: int, f: int) -> int:
        """1 when every completion of the partial assignment (true atoms
        ``t``, false atoms ``f``) satisfies the sum, -1 when none does,
        else 0; weights are non-negative, so the satisfied weight ranges
        from the weight of the surely satisfied entries to that plus the
        weight of the undecided ones."""
        least = undecided = 0
        open_ = ~(t | f)
        for w, mask in self._positive:
            least += w * (mask & t).bit_count()
            undecided += w * (mask & open_).bit_count()
        for w, mask in self._negative:
            least += w * (mask & f).bit_count()
            undecided += w * (mask & open_).bit_count()
        most = least + undecided
        upper = self.upper
        if most < self.lower or (upper is not None and least > upper):
            return -1
        return int(least >= self.lower and (upper is None or most <= upper))


class _Rule:
    """One compiled rule: ``head`` is the mask of every head atom and
    ``supported`` that of the atoms it supports, those positive in the
    head; ``reads`` is the mask of the atoms the body reads, its plain
    atoms and the entries of its sums; ``closure`` lists the (closure
    rule id, head bit) pairs it contributes to the reduct's closure, and
    ``key`` is the closure index of the key a proper disjunction derives
    when its body holds, or -1."""

    __slots__ = ("head", "head_sum", "supported", "pos", "neg", "reads",
                 "sums", "reduced", "closure", "key")

    def __init__(self, rule: Rule, bit: dict[Atom, int]):
        self.head = self.supported = 0
        self.head_sum = None
        if isinstance(rule.head, Disjunction):
            for atom in rule.head.atoms:
                self.supported |= bit[atom]
        else:
            self.head_sum = _Sum(rule.head, bit)
            # OR, not add: a head may repeat an entry
            for b, _ in self.head_sum.positive:
                self.supported |= b
            for b, _ in self.head_sum.negative:
                self.head |= b
        self.head |= self.supported
        self.pos = self.neg = self.reads = 0
        sums: list[tuple[_Sum, bool]] = []
        for bl in rule.body:
            if isinstance(bl.element, Atom):
                if bl.negated:
                    self.neg |= bit[bl.element]
                else:
                    self.pos |= bit[bl.element]
            else:
                s = _Sum(bl.element, bit)
                sums.append((s, bl.negated))
                for b, _ in s.positive + s.negative:
                    self.reads |= b
        self.reads |= self.pos | self.neg
        self.sums = tuple(sums)
        self.reduced = tuple(s for s, negated in sums if not negated)
        self.closure: list[tuple[int, int]] = []
        self.key = -1

    def body_holds(self, x: int) -> bool:
        if x & self.pos != self.pos or x & self.neg:
            return False
        for s, negated in self.sums:
            if s.holds(x) == negated:
                return False
        return True

    def head_holds(self, x: int) -> bool:
        if self.head_sum is None:
            return bool(x & self.head)
        return self.head_sum.holds(x)


class CompiledProgram:
    """A rule list compiled against a fixed atom order; interpretations
    are int masks with bit ``i`` set for ``atoms[i]``."""

    def __init__(self, rules: Iterable[Rule], atoms: Sequence[Atom]):
        self.atoms = tuple(atoms)
        self.bit = {a: 1 << i for i, a in enumerate(self.atoms)}
        rules = tuple(rules)
        self.extended = is_extended(Program(rules))
        self.rules = [_Rule(rule, self.bit) for rule in rules]
        # The reduct keeps a rule's body and splits its head into one
        # rule per supported atom; a proper disjunction also derives a key
        # of its own, placed after the atoms, when its body holds.
        horn: list[HornRule] = []
        n = keys = len(self.atoms)
        for rule in self.rules:
            plain = _indexes(rule.pos)
            sums = [(s.lower, [(b.bit_length() - 1, w) for b, w in s.positive])
                    for s in rule.reduced]
            heads = _indexes(rule.supported)
            if rule.head_sum is None and len(heads) > 1:
                rule.key = keys
                heads.append(keys)
                keys += 1
            for idx in heads:
                rule.closure.append((len(horn), 1 << idx))
                horn.append((idx, plain, sums))
        self.horn = HornClosure([*self.atoms, *range(n, keys)], horn)

    @cached_property
    def supporting(self) -> list[list[_Rule]]:
        """Per atom index, the rules that support the atom."""
        supporting: list[list[_Rule]] = [[] for _ in self.atoms]
        for rule in self.rules:
            for idx in _indexes(rule.supported):
                supporting[idx].append(rule)
        return supporting

    @cached_property
    def successors(self) -> list[int]:
        """Per atom index, the mask of its successors in the positive
        dependency graph.  An edge runs from each atom a rule supports to
        each atom of its positive body and to each positive entry of its
        non-negated body sums, the atoms the reduct's rule for it needs."""
        successors = [0] * len(self.atoms)
        for rule in self.rules:
            needs = rule.pos
            for s in rule.reduced:
                for b, _ in s.positive:
                    needs |= b
            if needs:
                for idx in _indexes(rule.supported):
                    successors[idx] |= needs
        return successors

    def decode(self, x: int) -> Interpretation:
        return frozenset(map(self.atoms.__getitem__, _indexes(x)))

    def encode(self, x: Interpretation) -> int | None:
        """The mask of ``x``, or None when ``x`` holds an atom not in
        :attr:`atoms`."""
        try:
            return sum(map(self.bit.__getitem__, x))
        except KeyError:
            return None

    def is_model(self, x: int) -> bool:
        for rule in self.rules:
            if rule.body_holds(x) and not rule.head_holds(x):
                return False
        return True

    def is_answer_set(self, x: int) -> bool:
        """Whether ``x`` is a model and a minimal model of its reduct (see
        :meth:`is_reduct_minimal`)."""
        applied: list[_Rule] = []
        for rule in self.rules:
            if rule.body_holds(x):
                if not rule.head_holds(x):
                    return False
                applied.append(rule)
        return self.is_reduct_minimal(x, applied)

    def supports(self, x: int) -> bool:
        """Whether every atom of ``x`` is positive in the head of a rule
        whose body holds in ``x``."""
        supported = 0
        for rule in self.rules:
            if rule.body_holds(x):
                supported |= rule.supported
        return not x & ~supported

    @staticmethod
    def reduct_rules(x: int, rules: Iterable[_Rule],
                     heads: int) -> Iterator[tuple[int, Sequence[int]]]:
        """The reduct of ``rules`` by the model ``x`` as (closure rule id,
        reduced lower bounds) pairs for :meth:`HornClosure.least_model`,
        one per atom or key of ``heads`` that a rule derives.  The reduct
        keeps a rule's positive body atoms and its non-negated sums, each
        lower bound reduced by the weight of negated entries made true by
        absence."""
        for rule in rules:
            lowers = [s.lower - s.absent(x) for s in rule.reduced] \
                if rule.reduced else ()
            for rid, bit in rule.closure:
                if heads & bit:
                    yield rid, lowers

    def is_reduct_minimal(self, x: int, applied: Sequence[_Rule]) -> bool:
        """Whether the model ``x`` is a minimal model of its reduct, given
        ``applied``, the rules whose body holds in ``x``; a sum head's
        reduct is one rule per positive atom of ``x``.

        Below ``x``, a rule with one head atom in ``x`` is definite, so
        every model of the reduct inside ``x`` holds the least model of
        those rules.  From that least model, a depth-first search over
        closed :class:`HornClosure` states looks for such a model other
        than ``x``: a rule with two or more head atoms in ``x``, whose
        body holds in the state (its key is derived) and none of whose
        head atoms in ``x`` is derived, branches on each of them.  A
        state that no such rule extends is a model of the reduct; every
        state lies inside ``x``, so one as large as ``x`` is ``x``."""
        definite: list[_Rule] = []
        choices: list[_Rule] = []
        for rule in applied:
            heads = rule.supported & x
            if rule.head_sum is None and heads & (heads - 1):
                choices.append(rule)
            else:
                definite.append(rule)
        horn, n, size = self.horn, len(self.atoms), x.bit_count()
        # every bit from n up is a key's
        state = horn.least_model([*self.reduct_rules(x, definite, x),
                                  *self.reduct_rules(x, choices, -1 << n)])
        branches = [(rule.key, _indexes(rule.supported & x))
                    for rule in choices]
        # (state, head atom) pairs, each extended only once popped
        stack: list[tuple[ClosureState, int]] = []
        while True:
            derived = state[0]
            if derived.count(1, 0, n) != size:
                for key, heads in branches:
                    if derived[key] and not any(
                            map(derived.__getitem__, heads)):
                        stack += [(state, h) for h in heads]
                        break
                else:
                    return False
            if not stack:
                return True
            state = horn.extend(*stack.pop(), -1)


def _loop_atoms(program: CompiledProgram) -> int:
    """The mask of the atoms that both reach a cycle and are reached from
    one along the edges of :attr:`CompiledProgram.successors`, a
    superset of the atoms on positive loops (every atom on a cycle does
    both).  Atoms with no edge to an atom still left are peeled off,
    without recursion, until none is left; then so are atoms with no
    edge from one.  Peeling the latter makes no atom lose an edge to one
    still left, so one pass each suffices."""
    n = len(program.atoms)
    successors = program.successors
    predecessors = [0] * n
    for idx, mask in enumerate(successors):
        for target in _indexes(mask):
            predecessors[target] |= 1 << idx
    loops = (1 << n) - 1
    for edges, back in ((successors, predecessors),
                        (predecessors, successors)):
        degree = [(mask & loops).bit_count() for mask in edges]
        peeled = [idx for idx in _indexes(loops) if not degree[idx]]
        for idx in peeled:  # grows while it is read
            loops ^= 1 << idx
            for source in _indexes(back[idx] & loops):
                degree[source] -= 1
                if not degree[source]:
                    peeled.append(source)
    return loops


class Search:
    """Depth-first search for the answer sets of a compiled program.

    A node is a partial assignment held as two masks, the true atoms and
    the false atoms, plus the mask of rules whose body surely fails.
    Propagation runs to a fixpoint and looks at a rule again only when
    one of its body or head atoms gets a value.  A rule whose body
    surely holds sets its head's one undecided atom to the value that
    meets the head, and is a conflict when the head cannot be met.  An
    atom all of whose supporting rules (those with the atom positive in
    the head) have surely failing bodies becomes false, and is a
    conflict when true (Clark completion).  Every answer set is a
    supported model, so propagation loses none.  A rule is looked at
    once all its atoms have values, so a complete assignment that
    survives propagation is a model, and the rules not marked as
    failing are exactly those whose body holds in it.  It is an answer
    set when it is a minimal model of its reduct, so no unfounded set is
    taken for one: the least model of the reduct without proper
    disjunctions, no smaller model of it otherwise.  Without proper
    disjunctions, the least model is only built for a model that makes
    an atom of :attr:`loops` true: otherwise the positive edges among
    its true atoms form no cycle, and each true atom is derived in the
    reduct from its supporting rule, by induction along those edges.

    The search branches first on atoms occurring positively in a sum
    head, rule by rule, then on the rest, lowest bit first, trying false
    before true; a caller that wants some atoms decided early gives them
    the lowest bits.
    """

    def __init__(self, program: CompiledProgram):
        self.program = program
        n = len(program.atoms)
        self.full = (1 << n) - 1
        self.watch: list[list[int]] = [[] for _ in range(n)]
        #: per atom, the mask of rules supporting it
        self.support = [0] * n
        #: per rule: its bit, body masks and sums, head mask and sum, the
        #: (index, bit) of each atom it supports, and the rule itself
        self.rules: list[tuple] = []
        chosen: list[int] = []
        for rid, rule in enumerate(program.rules):
            if rule.head_sum is not None:
                chosen += _indexes(rule.supported)
            for idx in _indexes(rule.head | rule.reads):
                self.watch[idx].append(rid)
            supports = tuple((idx, 1 << idx)
                             for idx in _indexes(rule.supported))
            for idx, _ in supports:
                self.support[idx] |= 1 << rid
            self.rules.append((1 << rid, rule.pos, rule.neg, rule.sums,
                               rule.head, rule.head_sum, supports, rule))
        self.order = list(dict.fromkeys([*chosen, *range(n)]))
        self.unsupported = sum(1 << i for i in range(n) if not self.support[i])
        #: the atoms that may lie on a positive loop (see _loop_atoms),
        #: or every atom when a proper disjunction leaves the subset test
        self.loops = _loop_atoms(program) if program.extended else self.full

    def answer_sets(self) -> Iterator[int]:
        """Every answer set, each once, in no particular order."""
        stack = []
        root = self._propagate(0, self.unsupported, 0,
                               list(range(len(self.rules))))
        if root is not None:
            stack.append((*root, 0))
        order, watch, full = self.order, self.watch, self.full
        while stack:
            t, f, dead, pos = stack.pop()
            decided = t | f
            if decided == full:
                if self._stable(t, dead):
                    yield t
                continue
            while decided >> order[pos] & 1:
                pos += 1
            idx = order[pos]
            bit = 1 << idx
            for child in (self._propagate(t | bit, f, dead, list(watch[idx])),
                          self._propagate(t, f | bit, dead, list(watch[idx]))):
                if child is not None:
                    stack.append((*child, pos + 1))

    def _stable(self, x: int, dead: int) -> bool:
        """Whether the complete assignment ``x`` is an answer set, given
        ``dead``, the rules whose body fails in ``x``.  Propagation made
        ``x`` a supported model, so what is left to check is that ``x`` is
        a minimal model of its reduct, and that holds when ``x`` makes no
        atom of :attr:`loops` true."""
        if not x & self.loops:
            return True
        return self.program.is_reduct_minimal(
            x, [entry[-1] for entry in self.rules if not dead & entry[0]])

    def _propagate(self, t: int, f: int, dead: int,
                   todo: list[int]) -> tuple[int, int, int] | None:
        """The fixpoint of propagation from the rules ``todo``, or None
        on a conflict."""
        if t & f:
            return None
        rules, watch, support = self.rules, self.watch, self.support
        while todo:
            rbit, pos, neg, sums, head, head_sum, supports, _ = \
                rules[todo.pop()]
            if dead & rbit:
                continue
            if pos & f or neg & t:
                body = -1
            else:
                body = int(t & pos == pos and f & neg == neg)
                for s, negated in sums:
                    state = s.surely(t, f)
                    if state < 0 if not negated else state > 0:
                        body = -1
                        break
                    if not state:
                        body = 0
            if body < 0:
                dead |= rbit
                for idx, bit in supports:
                    if not f & bit and not support[idx] & ~dead:
                        if t & bit:
                            return None
                        f |= bit
                        todo += watch[idx]
            elif body:
                if head_sum is None:
                    if t & head:
                        continue
                    open_ = head & ~f
                    if not open_:
                        return None
                    if open_ & (open_ - 1):
                        continue
                    t |= open_
                else:
                    state = head_sum.surely(t, f)
                    if state > 0:
                        continue
                    if state < 0:
                        return None
                    open_ = head & ~(t | f)
                    if open_ & (open_ - 1):
                        continue
                    # all other head atoms are decided: try both values
                    if head_sum.holds(t | open_):
                        if head_sum.holds(t):
                            continue
                        t |= open_
                    elif head_sum.holds(t):
                        f |= open_
                    else:
                        return None
                todo += watch[open_.bit_length() - 1]
        return t, f, dead
