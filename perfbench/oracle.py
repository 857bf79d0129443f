"""Benchmark-side program model and first-principles correctness oracles.

The generators build programs in this small model, render them to the
text format aspkit reads, and check aspkit's answers against the
functions here.  Nothing in this module imports aspkit, so a fault in
aspkit's semantics or optimizer cannot also hide in the oracle.

Interpretations are int bitmasks over ``Prog.atoms`` (bit i is atom i).
Semantics, restated from the definitions aspkit documents:

* a sum ``L #sum[l1=w1,...] U`` holds when the weight of the true
  literals lies in [L, U] (absent L is 0, absent U unbounded);
* X is an answer set when X is a model and a minimal model of its
  reduct: the rules whose bodies X satisfies, negated body parts
  dropped, sum body bounds lowered by the weight of their negative
  entries X satisfies, upper bounds dropped, and a sum head replaced by
  one rule per positive head atom in X;
* y dominates x when some criterion group (J, W) fails ``x <= y``
  while every criterion at a level >= J has ``y <= x``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# A literal is (atom index, negated).  A sum is
# (lower | None, ((atom, negated, weight), ...), upper | None).
# A head is ("disj", (atom, ...)) -- empty for a constraint -- or
# ("sum", sum).  A body element is ("atom", atom, negated) or
# ("sum", sum, negated).


@dataclass
class Prog:
    atoms: list[str]
    rules: list[tuple] = field(default_factory=list)
    #: minimize occurrences (atom, negated, weight, level)
    minimize: list[tuple[int, bool, int, int]] = field(default_factory=list)
    #: criteria (level, weight, criterion); empty means "no criteria file"
    relations: list[tuple[int, int, str]] = field(default_factory=list)
    #: literal preference pairs ((atom, negated), (atom, negated))
    prefer: list[tuple[tuple[int, bool], tuple[int, bool]]] = field(
        default_factory=list)

    # -- rendering -------------------------------------------------------

    def _lit(self, atom: int, negated: bool) -> str:
        return f"not {self.atoms[atom]}" if negated else self.atoms[atom]

    def _sum(self, sc) -> str:
        lower, elements, upper = sc
        inner = ",".join(f"{self._lit(a, n)}={w}" for a, n, w in elements)
        text = f"#sum[{inner}]"
        if lower is not None:
            text = f"{lower} {text}"
        if upper is not None:
            text = f"{text} {upper}"
        return text

    def _body(self, body) -> str:
        parts = []
        for element in body:
            if element[0] == "atom":
                parts.append(self._lit(element[1], element[2]))
            else:
                parts.append(("not " if element[2] else "")
                             + self._sum(element[1]))
        return ", ".join(parts)

    def render(self) -> str:
        lines = []
        for head, body in self.rules:
            if head[0] == "disj":
                head_text = " | ".join(self.atoms[a] for a in head[1])
            else:
                head_text = self._sum(head[1])
            if not body:
                lines.append(f"{head_text}.")
            elif head_text:
                lines.append(f"{head_text} :- {self._body(body)}.")
            else:
                lines.append(f":- {self._body(body)}.")
        if self.minimize:
            entries = ",".join(f"{self._lit(a, n)}={w}@{lv}"
                               for a, n, w, lv in self.minimize)
            lines.append(f"#minimize[{entries}].")
        return "".join(line + "\n" for line in lines)

    def render_criteria(self) -> str:
        def term(lit):
            atom, negated = lit
            return f"{'neg' if negated else 'pos'}(atom({self.atoms[atom]}))"

        lines = [f"optimize({lv},{w},{c})." for lv, w, c in self.relations]
        lines += [f"prefer({term(a)},{term(b)})." for a, b in self.prefer]
        return "".join(line + "\n" for line in lines)

    def names(self, mask: int) -> list[str]:
        return sorted(self.atoms[i] for i in range(len(self.atoms))
                      if mask >> i & 1)

    def format(self, mask: int) -> str:
        return "{" + ",".join(self.names(mask)) + "}"

    def canonical(self, masks) -> list[int]:
        return sorted(masks, key=lambda m: tuple(self.names(m)))


# -- satisfaction ------------------------------------------------------------


def _lit_true(x: int, atom: int, negated: bool) -> bool:
    return bool(x >> atom & 1) != negated


def _sum_true(x: int, sc) -> bool:
    lower, elements, upper = sc
    weight = sum(w for a, n, w in elements if _lit_true(x, a, n))
    return weight >= (lower or 0) and (upper is None or weight <= upper)


def _body_true(x: int, body) -> bool:
    for element in body:
        if element[0] == "atom":
            holds = _lit_true(x, element[1], element[2])
        else:
            holds = _sum_true(x, element[1]) != element[2]
        if not holds:
            return False
    return True


def is_supported(prog: Prog, x: int) -> bool:
    """Every true atom of model x is a positive head atom of a rule
    whose body holds."""
    support = 0
    for head, body in prog.rules:
        if _body_true(x, body):
            if head[0] == "disj":
                atoms = head[1]
            else:
                atoms = [a for a, n, _ in head[1][1] if not n]
            for a in atoms:
                support |= 1 << a
    return x & ~support == 0


# -- answer sets ---------------------------------------------------------------


def _reduct(prog: Prog, x: int):
    """Positive rules (head atoms, plain body mask, ((lower, elements),
    ...)) with monotone sum bodies; head atoms () for constraints."""
    out = []
    for head, body in prog.rules:
        if not _body_true(x, body):
            continue
        plain = 0
        sums = []
        for element in body:
            if element[2]:
                continue
            if element[0] == "atom":
                plain |= 1 << element[1]
            else:
                lower, elements, _ = element[1]
                lower = (lower or 0) - sum(
                    w for a, n, w in elements if n and not x >> a & 1)
                sums.append((lower, tuple((a, w) for a, n, w in elements
                                          if not n)))
        if head[0] == "disj":
            out.append((tuple(head[1]), plain, tuple(sums)))
        else:
            for a, n, _ in head[1][1]:
                if not n and x >> a & 1:
                    out.append(((a,), plain, tuple(sums)))
    return out


def _reduct_body_true(y: int, plain: int, sums) -> bool:
    if y & plain != plain:
        return False
    return all(sum(w for a, w in elements if y >> a & 1) >= lower
               for lower, elements in sums)


def _reduct_model(reduct, y: int) -> bool:
    return all(any(y >> a & 1 for a in heads)
               or not _reduct_body_true(y, plain, sums)
               for heads, plain, sums in reduct)


def is_answer_set(prog: Prog, x: int) -> bool:
    """Whether model x is a minimal model of its reduct."""
    reduct = _reduct(prog, x)
    if all(len(heads) <= 1 for heads, _, _ in reduct):
        # Monotone single-head rules have a least model; X is a minimal
        # model of the reduct exactly when that least model is X.
        least = 0
        changed = True
        while changed:
            changed = False
            for heads, plain, sums in reduct:
                if heads and not least >> heads[0] & 1 \
                        and _reduct_body_true(least, plain, sums):
                    least |= 1 << heads[0]
                    changed = True
        return least == x
    sub = (x - 1) & x
    while True:
        if sub != x and _reduct_model(reduct, sub):
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & x


def _model_masks(prog: Prog) -> int:
    """Bit x of the result is set when interpretation x is a model: the
    rules are evaluated on all 2^n interpretations at once, one bit per
    interpretation."""
    size = 1 << len(prog.atoms)
    full = (1 << size) - 1
    true = []
    for a in range(len(prog.atoms)):
        pattern, length = ((1 << (1 << a)) - 1) << (1 << a), 2 << a
        while length < size:
            pattern |= pattern << length
            length *= 2
        true.append(pattern)

    def lit(a: int, negated: bool) -> int:
        return full ^ true[a] if negated else true[a]

    def weight_in_bounds(sc) -> int:
        lower, elements, upper = sc
        out = 0
        for chosen in range(1 << len(elements)):
            where, weight = full, 0
            for i, (a, negated, w) in enumerate(elements):
                if chosen >> i & 1:
                    where &= lit(a, negated)
                    weight += w
                else:
                    where &= lit(a, not negated)
            if weight >= (lower or 0) and (upper is None or weight <= upper):
                out |= where
        return out

    models = full
    for head, body in prog.rules:
        holds = full
        for element in body:
            if element[0] == "atom":
                holds &= lit(element[1], element[2])
            else:
                sat = weight_in_bounds(element[1])
                holds &= full ^ sat if element[2] else sat
        if head[0] == "disj":
            head_holds = 0
            for a in head[1]:
                head_holds |= true[a]
        else:
            head_holds = weight_in_bounds(head[1])
        models &= head_holds | (full ^ holds)
    return models


def count_models(prog: Prog) -> int:
    return bin(_model_masks(prog)).count("1")


def classify(prog: Prog) -> dict[str, list[int]]:
    """All models, supported models and answer sets, canonically ordered."""
    where = _model_masks(prog)
    models = [x for x in range(1 << len(prog.atoms)) if where >> x & 1]
    supported, answer_sets = [], []
    for x in models:
        if is_answer_set(prog, x):
            answer_sets.append(x)
        elif is_supported(prog, x):
            supported.append(x)
    return {"models": prog.canonical(models),
            "supported": prog.canonical(supported),
            "answer_sets": prog.canonical(answer_sets)}


# -- optimization --------------------------------------------------------------


def _group(prog: Prog, level: int, weight: int):
    return [(a, n) for a, n, w, lv in prog.minimize
            if lv == level and w == weight]


def _at_most(prog: Prog, x: int, y: int, level: int, weight: int,
             criterion: str) -> bool:
    occurrences = _group(prog, level, weight)
    if criterion == "card":
        return sum(_lit_true(x, *l) for l in occurrences) <= \
            sum(_lit_true(y, *l) for l in occurrences)
    if criterion == "incl":
        return all(_lit_true(y, *l) for l in occurrences if _lit_true(x, *l))
    # pref: x is preferable to y through a pair (l1, l2) with l1 true in
    # x only and l2 true in y only, unless some y-only literal is
    # strictly preferred to l1.
    literals = set(occurrences)
    pairs = {(a, b) for a, b in prog.prefer if a in literals and b in literals}
    x_only = [l for l in literals if _lit_true(x, *l) and not _lit_true(y, *l)]
    y_only = [l for l in literals if _lit_true(y, *l) and not _lit_true(x, *l)]
    for l1 in x_only:
        if any((l1, l2) in pairs for l2 in y_only) and not any(
                (l, l1) in pairs and (l1, l) not in pairs for l in y_only):
            return True
    return False


def effective_relations(prog: Prog) -> list[tuple[int, int, str]]:
    """Criteria a crosscheck applies: none when none are given, else the
    given ones plus ``card`` for every minimize group left without one."""
    if not prog.relations:
        return []
    given = {(lv, w) for lv, w, _ in prog.relations}
    extra = sorted({(lv, w) for _, _, w, lv in prog.minimize} - given)
    return list(prog.relations) + [(lv, w, "card") for lv, w in extra]


def dominates(prog: Prog, y: int, x: int,
              relations: list[tuple[int, int, str]]) -> bool:
    for level, weight, criterion in relations:
        if _at_most(prog, x, y, level, weight, criterion):
            continue
        if all(_at_most(prog, y, x, lv, w, c)
               for lv, w, c in relations if lv >= level):
            return True
    return False


def optimal(prog: Prog, answer_sets: list[int],
            relations: list[tuple[int, int, str]]) -> list[int]:
    """Answer sets that no other answer set dominates."""
    return [x for x in answer_sets
            if not any(y != x and dominates(prog, y, x, relations)
                       for y in answer_sets)]


def default_optimal(prog: Prog, answer_sets: list[int]) -> list[int]:
    """Least satisfied-weight sums, compared from the greatest level down."""
    levels = sorted({lv for _, _, _, lv in prog.minimize}, reverse=True)

    def cost(x: int):
        return tuple(sum(w for a, n, w, lv in prog.minimize
                         if lv == level and _lit_true(x, a, n))
                     for level in levels)

    if not answer_sets:
        return []
    best = min(cost(x) for x in answer_sets)
    return [x for x in answer_sets if cost(x) == best]
