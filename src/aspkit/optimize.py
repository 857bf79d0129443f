"""Comparison relations, dominance, and optimal answer-set selection.

Within one (level, weight) group of minimize occurrences, answer sets
compare by occurrence cardinality (``card``), by inclusion of satisfied
literals (``incl``), or by a given literal preference relation
(``pref``).  Levels order groups lexicographically, greater levels
being more significant, and groups sharing a level combine Pareto-wise:
an answer set is dominated when some group strictly improves on it
while every group at a greater-or-equal level is at least as good.
The default semantics instead sums weights per level.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .core import (
    DEFAULT_ATOM_CAP,
    CriteriaSet,
    Interpretation,
    Literal,
    MinimizeStatement,
    Program,
    check_limit,
)
from .semantics import canonical_order, enumerate_answer_sets, satisfies

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GroupKey:
    """Identifies the minimize occurrences at one level and weight."""

    level: int
    weight: int


@dataclass(frozen=True)
class DominanceVerdict:
    dominated: bool
    witness_level: int | None = None
    witness_weight: int | None = None


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


def dominates(y: Interpretation, x: Interpretation, m: MinimizeStatement,
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


def optimal_answer_sets(program: Program, crit: CriteriaSet,
                        limit: int | None = None,
                        cap: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """Answer sets not dominated by any other answer set."""
    check_limit(limit)
    candidates = enumerate_answer_sets(program, cap=cap)
    optimal = [
        x for x in candidates
        if not any(dominates(y, x, program.minimize, crit).dominated
                   for y in candidates if y != x)]
    return optimal[:limit] if limit is not None else optimal


def _level_sums(x: Interpretation, m: MinimizeStatement,
                levels: tuple[int, ...]) -> tuple[int, ...]:
    """Satisfied weight per level, most significant (greatest) first."""
    return tuple(
        sum(e.weight for e in m.entries
            if e.level == level and satisfies(x, e.literal))
        for level in levels)


def default_optimal(program: Program, limit: int | None = None,
                    cap: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """Smodels-style semantics: lexicographic weight-sum minimization,
    greater levels more significant; negative weights act as rewards."""
    check_limit(limit)
    candidates = enumerate_answer_sets(program, cap=cap)
    if not candidates:
        return []
    levels = tuple(sorted(program.minimize.levels(), reverse=True))
    sums = {x: _level_sums(x, program.minimize, levels) for x in candidates}
    best = min(sums.values())
    optimal = canonical_order([x for x in candidates if sums[x] == best])
    return optimal[:limit] if limit is not None else optimal
