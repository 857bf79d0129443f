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
mask the search found it as, once per criterion group.  Dominance is
one sweep over the levels, most significant first, of masks over the
distinct score vectors: each relation gives a vector its standing, the
vectors at least as good as it there and those it is not at least as
good as, and the sweep intersects the former level by level until one
of the latter meets them.  Answer sets are decoded only when they are
returned.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class DominanceVerdict:
    dominated: bool
    witness_level: int | None = None
    witness_weight: int | None = None


_UNDOMINATED = DominanceVerdict(False)


def _preference(literals: tuple[Literal, ...], prefer):
    """``pref`` over one group as a test on two literal masks: ``x`` is
    preferable to ``y`` when some preference pair (l1, l2) of group
    literals has l1 satisfied by ``x`` only and l2 by ``y`` only, and no
    ``y``-only literal l defeats l1 via l <= l1 without l1 <= l."""
    index = {literal: bit for bit, literal in enumerate(literals)}
    pairs = {(index[first], index[second]) for first, second in prefer
             if first in index and second in index}
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


# A standing builder takes one relation's column of values, value k
# belonging to the vector at bit k, and returns the pair of functions
# ``as_good(v)`` and ``better(v)``: the masks of the vectors whose value u
# has u <= v, and of those whose value u has not v <= u.


def _incl(width: int, column: list[int]):
    """``incl`` standings over masks of ``width`` literals, from the mask
    ``lacking[b]`` of the vectors whose value lacks literal bit b: u <= v
    when u lacks every bit v lacks, and not v <= u when u lacks a bit of
    v.  Each ``lacking[b]`` is read off one 0/1 string of the column's
    complements, last vector first; a mask is made on each call, -1
    standing for every vector."""
    full, spec = (1 << width) - 1, f"0{width}b"
    text = "".join(format(full ^ v, spec) for v in reversed(column))
    lacking = [int(text[width - 1 - b::width] or "0", 2)
               for b in range(width)]

    def as_good(v: int) -> int:
        mask = -1
        for b, lacks in enumerate(lacking):
            if not v >> b & 1:
                mask &= lacks
        return mask

    def better(v: int) -> int:
        mask = 0
        for b, lacks in enumerate(lacking):
            if v >> b & 1:
                mask |= lacks
        return mask

    return as_good, better


def _pairwise(leq, column: list[int]):
    """Standings of any relation ``leq``, from one test per ordered pair
    of values: u <= v puts u's vectors in v's ``as_good``, and its
    failure puts v's vectors in u's ``better``.  ``card`` is ``<=`` on
    counts, of which a group of k occurrences has at most k + 1."""
    buckets: dict[int, int] = {}   # each value's mask of vectors
    for k, v in enumerate(column):
        buckets[v] = buckets.get(v, 0) | 1 << k
    as_good = dict.fromkeys(buckets, 0)
    better = dict.fromkeys(buckets, 0)
    for u, u_mask in buckets.items():
        for v, v_mask in buckets.items():
            if leq(u, v):
                as_good[v] |= u_mask
            else:
                better[u] |= v_mask
    return as_good.__getitem__, better.__getitem__


class CompiledCriteria:
    """Criteria compiled against one minimize statement and one atom
    order, ``bit`` giving each atom its bit in an interpretation mask.

    Relations are kept most significant first, each with its standing
    builder.  :meth:`score` maps an interpretation mask to one int per
    relation: a ``card`` relation's satisfied-occurrence count
    (duplicates count), an ``incl`` or ``pref`` relation's mask of
    satisfied group literals, bit i standing for the i-th distinct
    literal of the group.  A group without minimize occurrences scores
    0, so ``card`` and ``incl`` hold on it and ``pref`` never does.
    :meth:`dominates` and :meth:`undominated` share one sweep over the
    levels.
    """

    def __init__(self, m: MinimizeStatement, crit: CriteriaSet,
                 bit: dict[Atom, int]):
        ordered = sorted(crit.relations, key=lambda r: (-r[0], r[1], r[2]))
        self._groups = []
        self._builders = []
        #: (level, [(relation index, weight), ...]), most significant first
        self._levels: list[tuple[int, list[tuple[int, int]]]] = []
        for i, (level, weight, criterion) in enumerate(ordered):
            if not self._levels or self._levels[-1][0] != level:
                self._levels.append((level, []))
            self._levels[-1][1].append((i, weight))
            occurrences = tuple(e.literal for e in m.group(level, weight))
            if criterion == "card":
                self._groups.append((
                    [(bit[l.atom], l.negated) for l in occurrences], True))
                self._builders.append(partial(_pairwise, operator.le))
                continue
            literals = tuple(dict.fromkeys(occurrences))
            self._groups.append((
                [(bit[l.atom], l.negated) for l in literals], False))
            if criterion == "incl":
                self._builders.append(partial(_incl, len(literals)))
            else:
                self._builders.append(partial(_pairwise, _preference(
                    literals, crit.prefer)))

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

    def _standings(self, vectors: list[tuple[int, ...]]) -> list:
        return [build([vector[i] for vector in vectors])
                for i, build in enumerate(self._builders)]

    def _witness(self, standings: list,
                 x: tuple[int, ...]) -> tuple[int, int] | None:
        """The (level, weight) of the first relation, most significant
        first, at which some vector dominates ``x``: ``alike`` keeps the
        vectors at least as good as ``x`` at every relation of the
        levels swept so far, and a vector in it that ``x`` is not at
        least as good as at a relation of the current level dominates
        ``x``.  None when ``alike`` runs empty or the levels run out; a
        level that empties ``alike`` asks for no ``better`` mask."""
        alike = -1
        for level, relations in self._levels:
            for i, _ in relations:
                alike &= standings[i][0](x[i])
            if not alike:
                return None
            for i, weight in relations:
                if standings[i][1](x[i]) & alike:
                    return level, weight
        return None

    def dominates(self, y: tuple[int, ...],
                  x: tuple[int, ...]) -> DominanceVerdict:
        """Whether score vector ``y`` dominates ``x``: some criterion
        group (J, w) fails x <= y while every criterion at a level >= J
        has y <= x.  This is the sweep over the two vectors y and x; no
        vector dominates itself."""
        witness = self._witness(self._standings([y, x]), x)
        if witness is None:
            return _UNDOMINATED
        return DominanceVerdict(True, *witness)

    def undominated(self, scores: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
        """The score vectors in ``scores`` that none of them dominates.

        Equal vectors dominate the same vectors and never each other, so
        only distinct vectors are compared, each standing for bit k of a
        mask by its position k.  Each relation's builder turns its column
        of values into standings, and each vector is then swept over the
        levels once: ``card`` and ``pref`` look a standing up in a table
        per distinct value, ``incl`` makes it from one mask per literal,
        so its memory is linear in the vectors."""
        distinct = list(dict.fromkeys(scores))
        standings = self._standings(distinct)
        return {x for x in distinct if self._witness(standings, x) is None}


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
