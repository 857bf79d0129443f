"""Comparison relations, dominance, and optimal answer-set selection.

Within one (level, weight) group of minimize occurrences, answer sets
compare by occurrence cardinality (``card``), by inclusion of satisfied
literals (``incl``), or by a given literal preference relation
(``pref``).  Levels order groups lexicographically, greater levels
being more significant, and groups sharing a level combine Pareto-wise:
an answer set is dominated when some group strictly improves on it
while every group at a greater-or-equal level is at least as good.
The default semantics instead sums weights per level.

:class:`CompiledCriteria` compiles the criteria against the minimize
statement and an atom order once and scores each answer set, as the
mask the search found it as, once per criterion group; dominance then
compares two score vectors with integer operations.  Answer sets are
decoded only when they are returned.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass
from functools import partial

from .core import (
    DEFAULT_ATOM_CAP,
    Atom,
    CriteriaSet,
    Interpretation,
    Literal,
    MinimizeStatement,
    Program,
    check_limit,
)
from .semantics import answer_set_masks

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DominanceVerdict:
    dominated: bool
    witness_level: int | None = None
    witness_weight: int | None = None


_UNDOMINATED = DominanceVerdict(False)


def _included(x: int, y: int) -> bool:
    """``incl``: every group literal ``x`` satisfies, ``y`` satisfies."""
    return not x & ~y


def _preference(literals: tuple[Literal, ...], prefer, level: int,
                weight: int):
    """``pref`` over one group as a test on two literal masks: ``x`` is
    preferable to ``y`` when some preference pair (l1, l2) of group
    literals has l1 satisfied by ``x`` only and l2 by ``y`` only, and no
    ``y``-only literal l defeats l1 via l <= l1 without l1 <= l."""
    index = {literal: bit for bit, literal in enumerate(literals)}
    pairs = set()
    for first, second in prefer:
        if first in index and second in index:
            pairs.add((index[first], index[second]))
        else:
            logger.debug("prefer pair (%s, %s) ignored: outside group %s@%s",
                         first, second, weight, level)
    better = [0] * len(literals)   # bit l2 of better[l1]: l1 <= l2
    defeat = [0] * len(literals)   # bit l of defeat[l1]: l <= l1, not l1 <= l
    for first, second in pairs:
        better[first] |= 1 << second
        if (second, first) not in pairs:
            defeat[second] |= 1 << first

    def preferable(x: int, y: int) -> bool:
        x_only, y_only = x & ~y, y & ~x
        while x_only:
            low = x_only & -x_only
            l1 = low.bit_length() - 1
            if better[l1] & y_only and not defeat[l1] & y_only:
                return True
            x_only ^= low
        return False

    return preferable


def _card_table(buckets: dict[int, int]) -> dict[int, tuple[int, int]]:
    """``card`` tables from one running OR over the ascending counts."""
    table = {}
    below = 0
    for v in sorted(buckets):
        as_good = below | buckets[v]
        table[v] = (as_good, below)
        below = as_good
    return table


def _incl_table(buckets: dict[int, int],
                width: int) -> dict[int, tuple[int, int]]:
    """``incl`` tables over masks of ``width`` literals, from the mask
    ``lacking[b]`` of the vectors whose value lacks literal bit b: u <= v
    when u lacks every bit v lacks, and not v <= u when u lacks a bit of
    v."""
    everything = 0
    lacking = [0] * width
    for u, mask in buckets.items():
        everything |= mask
        for b in range(width):
            if not u >> b & 1:
                lacking[b] |= mask
    table = {}
    for v in buckets:
        as_good, better = everything, 0
        for b in range(width):
            if v >> b & 1:
                better |= lacking[b]
            else:
                as_good &= lacking[b]
        table[v] = (as_good, better)
    return table


def _pairwise_table(buckets: dict[int, int],
                    leq) -> dict[int, tuple[int, int]]:
    """Tables of any relation ``leq``, comparing every pair of values."""
    table = {}
    for v in buckets:
        as_good = better = 0
        for u, mask in buckets.items():
            if leq(u, v):
                as_good |= mask
            if not leq(v, u):
                better |= mask
        table[v] = (as_good, better)
    return table


class CompiledCriteria:
    """Criteria compiled against one minimize statement and one atom
    order, ``bit`` giving each atom its bit in an interpretation mask.

    Relations are kept most significant first.  :meth:`score` maps an
    interpretation mask to one int per relation: a ``card`` relation's
    satisfied-occurrence count (duplicates count), an ``incl`` or
    ``pref`` relation's mask of satisfied group literals, bit i standing
    for the i-th distinct literal of the group.  A group without
    minimize occurrences scores 0, so ``card`` and ``incl`` hold on it
    and ``pref`` never does.
    """

    def __init__(self, m: MinimizeStatement, crit: CriteriaSet,
                 bit: dict[Atom, int]):
        ordered = sorted(crit.relations, key=lambda r: (-r[0], r[1], r[2]))
        self._groups = []
        leqs = []
        tables = []
        for level, weight, criterion in ordered:
            occurrences = tuple(e.literal for e in m.group(level, weight))
            if criterion == "card":
                self._groups.append((
                    [(bit[l.atom], l.negated) for l in occurrences], True))
                leqs.append(operator.le)
                tables.append(_card_table)
                continue
            literals = tuple(dict.fromkeys(occurrences))
            self._groups.append((
                [(bit[l.atom], l.negated) for l in literals], False))
            if criterion == "incl":
                leqs.append(_included)
                tables.append(partial(_incl_table, width=len(literals)))
            else:
                leqs.append(_preference(literals, crit.prefer, level, weight))
                tables.append(partial(_pairwise_table, leq=leqs[-1]))
        self._relations = tuple(
            (level, weight, leqs[i], tables[i],
             tuple((j, leqs[j]) for j, other in enumerate(ordered)
                   if other[0] >= level))
            for i, (level, weight, _) in enumerate(ordered))

    def score(self, x: int) -> tuple[int, ...]:
        vector = []
        for literals, counted in self._groups:
            if counted:
                vector.append(sum(bool(x & b) != negated
                                  for b, negated in literals))
                continue
            value = 0
            for k, (b, negated) in enumerate(literals):
                if bool(x & b) != negated:
                    value |= 1 << k
            vector.append(value)
        return tuple(vector)

    def dominates(self, y: tuple[int, ...],
                  x: tuple[int, ...]) -> DominanceVerdict:
        """Whether score vector ``y`` dominates ``x``: some criterion
        group (J, w) fails x <= y while every criterion at a level >= J
        has y <= x."""
        for i, (level, weight, leq, _, at_or_above) in enumerate(self._relations):
            if leq(x[i], y[i]):
                continue
            if all(leq_j(y[j], x[j]) for j, leq_j in at_or_above):
                return DominanceVerdict(True, level, weight)
        return _UNDOMINATED

    def undominated(self, scores: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
        """The score vectors in ``scores`` that none of them dominates.

        Equal vectors dominate the same vectors and never each other, so
        only distinct vectors are compared, each standing for bit k of a
        mask by its position k.  Per relation and distinct value v,
        ``as_good[v]`` masks the vectors whose value u there has u <= v,
        and ``better[v]`` those whose value u has not v <= u; ``card``
        and ``incl`` build these tables in time linear per value, and
        ``pref`` compares every pair of values once.  A vector x is then
        dominated exactly when, for some relation i, ``better[x_i]``
        meets ``as_good[x_j]`` of every relation j at a level >= that of
        i."""
        distinct = list(dict.fromkeys(scores))
        tables = []
        for i, (_, _, _, tabulate, _) in enumerate(self._relations):
            buckets: dict[int, int] = {}
            for k, vector in enumerate(distinct):
                buckets[vector[i]] = buckets.get(vector[i], 0) | 1 << k
            tables.append(tabulate(buckets))
        out = set()
        for x in distinct:
            for i, (_, _, _, _, at_or_above) in enumerate(self._relations):
                witnesses = tables[i][x[i]][1]
                for j, _ in at_or_above:
                    witnesses &= tables[j][x[j]][0]
                    if not witnesses:
                        break
                if witnesses:
                    break
            else:
                out.add(x)
        return out


def dominates(y: Interpretation, x: Interpretation, m: MinimizeStatement,
              crit: CriteriaSet) -> DominanceVerdict:
    """Whether ``y`` dominates ``x`` under ``crit`` (see
    :meth:`CompiledCriteria.dominates`)."""
    bit = {atom: 1 << i for i, atom in
           enumerate(dict.fromkeys(e.literal.atom for e in m.entries))}
    compiled = CompiledCriteria(m, crit, bit)
    y_mask, x_mask = (sum(bit[a] for a in s if a in bit) for s in (y, x))
    return compiled.dominates(compiled.score(y_mask), compiled.score(x_mask))


def optimal_answer_sets(program: Program, crit: CriteriaSet,
                        limit: int | None = None,
                        cap: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """Answer sets not dominated by any other answer set."""
    check_limit(limit)
    compiled, masks = answer_set_masks(program, cap)
    criteria = CompiledCriteria(program.minimize, crit, compiled.bit)
    scores = [criteria.score(x) for x in masks]
    undominated = criteria.undominated(scores)
    optimal = [x for x, sx in zip(masks, scores) if sx in undominated]
    return [compiled.decode(x) for x in optimal[:limit]]


def default_optimal(program: Program, limit: int | None = None,
                    cap: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """Smodels-style semantics: lexicographic weight-sum minimization,
    greater levels more significant; negative weights act as rewards."""
    check_limit(limit)
    compiled, masks = answer_set_masks(program, cap)
    m = program.minimize
    levels = [[(compiled.bit[e.literal.atom], e.literal.negated, e.weight)
               for e in m.entries if e.level == level]
              for level in sorted(m.levels(), reverse=True)]
    sums = [tuple(sum(weight for b, negated, weight in entries
                      if bool(x & b) != negated)
                  for entries in levels)
            for x in masks]
    best = min(sums, default=None)
    optimal = [x for x, sx in zip(masks, sums) if sx == best]
    return [compiled.decode(x) for x in optimal[:limit]]
