"""Strongly connected components, supported models, and wait levels.

A model is an answer set exactly when iterating the immediate
consequence operator on its reduct reproduces it, and the iteration can
be localized to the strongly connected components of the positive
dependency graph.  Each program form holds that graph already:
:attr:`aspkit.compiled.CompiledProgram.successors` as one mask per atom,
and :class:`aspkit.reify.Tables` in its label tables.  One recursive
Tarjan search over vertex indexes, :func:`strong_components`, finds its
components in either: :mod:`aspkit.reify` runs it on its own tables,
and :func:`sccs` runs it on the compiled masks for ``check`` and the
tests.  Wait levels are the complement of that local fixpoint: the true
atoms of a component that are still underivable after as many steps as
the component has atoms.  They are read off one least model of the
component's part of the compiled reduct, seeded with the true atoms
outside the component that this part reads, which
:class:`aspkit.compiled.HornClosure` computes in time linear in the
program.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Atom, Interpretation, Program
from .compiled import CompiledProgram, _indexes
from .semantics import compile_program


@dataclass(frozen=True)
class SccComponent:
    """One SCC: its atoms as a mask of the compiled program, and whether
    it has an internal edge.  The members a reification lists for a
    non-trivial component C are its atoms, the conjunction of each rule
    with a positive head atom in C and a positive body atom or a
    positive entry of a non-negated body sum in C, and each such sum;
    :mod:`aspkit.reify` computes them."""

    label: int | None
    members: int
    nontrivial: bool


@dataclass(frozen=True)
class SccDecomposition:
    """Components in topological order: no edge leads to a later one."""

    components: tuple[SccComponent, ...]

    def nontrivial(self) -> tuple[SccComponent, ...]:
        return tuple(c for c in self.components if c.nontrivial)


def strong_components(succ: list[list[int]]) -> list[list[int]]:
    """Tarjan decomposition of the graph whose vertex i leads to the
    vertexes ``succ[i]``: each component as a list of vertexes, in
    completion order, the topological order (no edge leads to a later
    component).  The search starts from the vertexes in index order and
    follows each one's successors in list order.  It is recursive, one
    frame per level, so a path longer than Python's recursion limit
    raises ``RecursionError`` (ROADMAP item 8)."""
    index = [-1] * len(succ)
    lowlink = [0] * len(succ)
    on_stack = bytearray(len(succ))
    stack: list[int] = []
    found: list[list[int]] = []
    counter = 0

    def connect(v: int) -> None:
        nonlocal counter
        index[v] = low = counter
        counter += 1
        bottom = len(stack)
        stack.append(v)
        on_stack[v] = 1
        for w in succ[v]:
            if index[w] < 0:
                connect(w)
                if lowlink[w] < low:
                    low = lowlink[w]
            elif on_stack[w] and index[w] < low:
                low = index[w]
        lowlink[v] = low
        if low == index[v]:
            members = stack[bottom:]
            del stack[bottom:]
            for w in members:
                on_stack[w] = 0
            found.append(members)

    for v in range(len(succ)):
        if index[v] < 0:
            connect(v)
    return found


def cyclic(members: list[int], succ: list[list[int]]) -> bool:
    """Whether a component of :func:`strong_components` has an internal
    edge: more than one vertex, or a self-loop."""
    return len(members) > 1 or members[0] in succ[members[0]]


def sccs(compiled: CompiledProgram) -> SccDecomposition:
    """The components of :func:`strong_components` over the compiled
    program's :attr:`~aspkit.compiled.CompiledProgram.successors`;
    non-trivial components are labeled 0,1,... in completion order, the
    topological order of ``components``."""
    succ = [_indexes(mask) for mask in compiled.successors]
    components: list[SccComponent] = []
    label = 0
    for members in strong_components(succ):
        nontrivial = cyclic(members, succ)
        components.append(SccComponent(
            label if nontrivial else None,
            sum([1 << i for i in members]), nontrivial))
        label += nontrivial
    return SccDecomposition(tuple(components))


def is_supported_model(program: Program, x: Interpretation) -> bool:
    """True iff ``x`` is a model and every true atom occurs positively in
    the head of some rule whose body holds; decided on masks."""
    compiled = compile_program(program)
    mask = compiled.encode(x)
    return mask is not None and compiled.is_model(mask) \
        and compiled.supports(mask)


@dataclass(frozen=True)
class ComponentWait:
    """The true atoms of one non-trivial component of ``z`` atoms that
    still wait at step ``z``."""

    label: int
    z: int
    waiting_true: frozenset[Atom]


def wait_levels(compiled: CompiledProgram, x: int,
                component: SccComponent) -> ComponentWait:
    """The true atoms of one non-trivial component of :func:`sccs` that
    are still underivable after as many steps as the component has
    atoms, for the model ``x``, a mask of ``compiled``.

    Those steps reach the local fixpoint, so the answer is the true
    atoms of the component outside one least model: that of the reduct
    rules whose body holds in ``x`` and that support a true atom of the
    component (a disjunctive head supports each of its atoms), closed
    from the true atoms outside the component that those rules read.  A
    call reads only those rules and the atoms they read, so a call per
    component costs time linear in the program in all.
    """
    members = component.members
    inside = x & members
    rules = dict.fromkeys(rule for idx in _indexes(inside)
                          for rule in compiled.supporting[idx])
    # x on the atoms these rules read, which is all that their bodies
    # and reducts look at
    read = 0
    for rule in rules:
        read |= rule.reads
    mask = x & (members | read)
    applied = [rule for rule in rules if rule.body_holds(mask)]
    seed = 0
    for rule in applied:
        seed |= rule.reads
    derived = compiled.horn.least_model(
        compiled.reduct_rules(mask, applied, inside),
        _indexes(seed & mask & ~inside))[0]
    underived = sum(1 << idx for idx in _indexes(inside) if not derived[idx])
    return ComponentWait(component.label, members.bit_count(),
                         compiled.decode(underived))
