"""Rule lists compiled once to bitmasks, and one Horn closure engine.

:class:`CompiledProgram` fixes an atom order, so an interpretation is an
int whose bit ``i`` stands for the ``i``-th atom.  Plain bodies become a
positive and a negative mask, sums become a lower bound, an upper bound
and weighted bits, and heads become a mask or a sum.  For a program
without proper disjunctions, an interpretation is an answer set exactly
when it is a model equal to the least model of its own reduct; the
least model comes from :class:`HornClosure`, the watch-list closure of
Dowling and Gallier (1984), which also serves the meta solver's
counterexample side.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

from .core import (
    Atom,
    ContractViolationError,
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


class HornClosure:
    """Forward closure of positive rules with one head atom, plain body
    atoms and lower-bounded sums of positive weighted atoms.

    Each rule counts the body atoms it still misses plus the sums still
    below their lower bound, and each sum the weight it still lacks;
    deriving an atom updates only the rules watching it, so a closure
    costs time linear in the rules' size.  Atoms are keys indexed in the
    order of ``atoms``; a key need not be an :class:`Atom`.
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
        self.facts: list[int] = []
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
                self.facts.append(head)
        # each fact once: a closure's queue must not hold an atom twice
        self.facts = list(dict.fromkeys(self.facts))
        #: the derived flags of the facts alone
        self._base = bytearray(len(atoms))
        for idx in self.facts:
            self._base[idx] = 1

    @classmethod
    def of_rules(cls, rules: Iterable[Rule],
                 atoms: Iterable[Hashable] = ()) -> "HornClosure":
        """The closure of positive ground rules with one-atom heads.  The
        keys in ``atoms`` are indexed first, in their order, and other
        atoms in order of first occurrence.  A body literal that is itself
        one of those keys is a condition the caller seeds, whatever its
        sign."""
        order: dict[Hashable, int] = {
            key: i for i, key in enumerate(dict.fromkeys(atoms))}

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
                if bl in order:
                    plain.append(order[bl])
                    continue
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
        return cls(list(order), compiled)

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

    def reaches(self, seed: Iterable[int], goal: int) -> bool:
        """Whether the closure of all rules over the atom indexes
        ``seed`` contains the atom index ``goal``."""
        derived = bytearray(self._base)
        queue = list(self.facts)
        for idx in seed:
            if not derived[idx]:
                derived[idx] = 1
                queue.append(idx)
        if derived[goal]:
            return True
        return self._close(queue, derived, list(self.missing),
                           list(self.bounds), goal)

    def derives(self, seed: Iterable[Hashable], target: Hashable) -> bool:
        """Whether the closure of all rules over ``seed`` contains
        ``target``; atoms the rules do not mention are ignored."""
        goal = self.index.get(target)
        if goal is None:
            return False
        index = self.index
        return self.reaches((index[a] for a in seed if a in index), goal)

    def least_model(self, active: Iterable[tuple[int, list[int]]]) -> list[int]:
        """Atom indexes derived from the empty set by the ``active`` rules,
        given as (rule id, its sums' lower bounds) pairs; other rules
        never fire."""
        missing = [self._OUT] * len(self.heads)
        need = list(self.bounds)
        derived = bytearray(len(self.index))
        queue: list[int] = []
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
        return queue


class _Sum:
    """A sum constraint over bits: satisfied weight within bounds."""

    __slots__ = ("lower", "upper", "positive", "negative")

    def __init__(self, sc: SumConstraint, bit: dict[Atom, int]):
        self.lower = sc.lower if sc.lower is not None else 0
        self.upper = sc.upper
        self.positive = tuple((bit[wl.literal.atom], wl.weight)
                              for wl in sc.elements if not wl.literal.negated)
        self.negative = tuple((bit[wl.literal.atom], wl.weight)
                              for wl in sc.elements if wl.literal.negated)

    def absent(self, x: int) -> int:
        """Weight of negated entries satisfied by ``x`` through absence."""
        return sum(w for b, w in self.negative if not x & b)

    def holds(self, x: int) -> bool:
        weight = self.absent(x) + sum(w for b, w in self.positive if x & b)
        return self.lower <= weight and (self.upper is None or weight <= self.upper)


class _Rule:
    """One compiled rule; ``closure`` lists the (closure rule id, head
    bit) pairs it contributes to the reduct's closure."""

    __slots__ = ("head", "head_sum", "pos", "neg", "sums", "reduced", "closure")

    def __init__(self, rule: Rule, bit: dict[Atom, int]):
        self.head = 0
        self.head_sum = None
        if isinstance(rule.head, Disjunction):
            for atom in rule.head.atoms:
                self.head |= bit[atom]
        else:
            self.head_sum = _Sum(rule.head, bit)
        self.pos = self.neg = 0
        sums: list[tuple[_Sum, bool]] = []
        for bl in rule.body:
            if isinstance(bl.element, Atom):
                if bl.negated:
                    self.neg |= bit[bl.element]
                else:
                    self.pos |= bit[bl.element]
            else:
                sums.append((_Sum(bl.element, bit), bl.negated))
        self.sums = tuple(sums)
        self.reduced = tuple(s for s, negated in sums if not negated)
        self.closure: list[tuple[int, int]] = []

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
        # rule per positive head atom: a one-atom disjunction or the
        # positive entries of a sum head.
        horn: list[HornRule] = []
        for rule, compiled in zip(rules, self.rules):
            head = rule.head
            heads = head.atoms if isinstance(head, Disjunction) else tuple(
                wl.literal.atom for wl in head.elements if not wl.literal.negated)
            for atom in dict.fromkeys(heads):
                bit = self.bit[atom]
                compiled.closure.append((len(horn), bit))
                horn.append((bit.bit_length() - 1,
                             [i for i in range(len(self.atoms))
                              if compiled.pos >> i & 1],
                             [(s.lower, [(b.bit_length() - 1, w)
                                         for b, w in s.positive])
                              for s in compiled.reduced]))
        self.horn = HornClosure(self.atoms, horn)

    def decode(self, x: int) -> Interpretation:
        return frozenset(a for a, b in self.bit.items() if x & b)

    def is_model(self, x: int) -> bool:
        for rule in self.rules:
            if rule.body_holds(x) and not rule.head_holds(x):
                return False
        return True

    def forward(self, x: int) -> int:
        """One pass over the rules in order, adding the atoms of each
        disjunctive head whose body holds in what the pass has built so
        far; sum heads add nothing."""
        for rule in self.rules:
            if rule.body_holds(x):
                x |= rule.head
        return x

    def is_answer_set(self, x: int) -> bool:
        """Whether ``x`` is a model equal to the least model of its
        reduct: the reduct's rules are those whose body holds in ``x``,
        with sum lower bounds reduced by the weight of negated entries
        made true by absence, and heads cut down to atoms of ``x``.

        Only sound for programs without proper disjunctions."""
        if not self.extended:
            raise ContractViolationError(
                "least-model test on a program with a proper disjunction")
        active: list[tuple[int, list[int]]] = []
        for rule in self.rules:
            if not rule.body_holds(x):
                continue
            if not rule.head_holds(x):
                return False
            lowers = [s.lower - s.absent(x) for s in rule.reduced]
            for rid, bit in rule.closure:
                if x & bit:
                    active.append((rid, lowers))
        # The least model lies inside x, so equal sizes mean equal sets.
        return len(self.horn.least_model(active)) == x.bit_count()

