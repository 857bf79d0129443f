"""Positive dependencies, strongly connected components, supported
models, and wait levels.

A model is an answer set exactly when iterating the immediate
consequence operator on its reduct reproduces it, and the iteration can
be localized to the strongly connected components of the positive
dependency graph.  Wait levels compute the complement of that local
fixpoint: the true atoms of a component that are still underivable
after as many steps as the component has atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import (
    Atom,
    Body,
    Interpretation,
    Program,
    SumConstraint,
    atoms,
    atoms_of,
    positive_part,
    sorted_atoms,
)
from .semantics import compile_program, satisfies

#: A component member beyond its atoms: a body conjunction or a sum.
ComponentElement = Union[SumConstraint, Body]


@dataclass(frozen=True)
class DependencyGraph:
    nodes: frozenset[Atom]
    edges: frozenset[tuple[Atom, Atom]]


@dataclass(frozen=True)
class SccComponent:
    """One SCC: its atoms plus, for non-trivial components, the body
    conjunctions and sum constraints of rules contributing its edges
    (atom-shaped components of such rules are covered by ``atoms``)."""

    label: int | None
    atoms: frozenset[Atom]
    connecting: tuple[ComponentElement, ...]
    nontrivial: bool


@dataclass(frozen=True)
class SccDecomposition:
    """Components in topological order: no edge leads to a later one."""

    components: tuple[SccComponent, ...]

    def nontrivial(self) -> tuple[SccComponent, ...]:
        return tuple(c for c in self.components if c.nontrivial)

    def by_label(self, label: int) -> SccComponent:
        for component in self.components:
            if component.label == label:
                return component
        raise ValueError(f"unknown component label {label}")


def dependency_graph(program: Program) -> DependencyGraph:
    """Edges from positive head atoms to positive body atoms."""
    edges: set[tuple[Atom, Atom]] = set()
    for rule in program.rules:
        heads = atoms_of(positive_part(rule.head))
        for element in positive_part(rule.body):
            targets = ({element} if isinstance(element, Atom)
                       else atoms_of(positive_part(element)))
            edges.update((a, b) for a in heads for b in targets)
    return DependencyGraph(atoms(program), frozenset(edges))


def sccs(graph: DependencyGraph, program: Program) -> SccDecomposition:
    """Tarjan decomposition; non-trivial components are labeled 0,1,...
    in first-discovery order."""
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

    components: list[SccComponent] = []
    next_label = 0
    for members in found:
        nontrivial = len(members) > 1 or any(a in succ[a] for a in members)
        connecting: list[ComponentElement] = []
        if nontrivial:
            for rule in program.rules:
                if not atoms_of(positive_part(rule.head)) & members:
                    continue
                inner = [
                    element for element in positive_part(rule.body)
                    if isinstance(element, SumConstraint)
                    and atoms_of(positive_part(element)) & members]
                contributes = inner or any(
                    isinstance(element, Atom) and element in members
                    for element in positive_part(rule.body))
                if contributes and rule.body not in connecting:
                    connecting.append(rule.body)
                connecting.extend(e for e in inner if e not in connecting)
        label = next_label if nontrivial else None
        if nontrivial:
            next_label += 1
        components.append(
            SccComponent(label, members, tuple(connecting), nontrivial))
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
    """Wait table of one non-trivial component: ``wait[element, step]``
    for steps 0..z, plus the true atoms still waiting at step z."""

    label: int
    z: int
    wait: dict
    waiting_true: frozenset[Atom]


def wait_levels(program: Program, x: Interpretation, label: int,
                decomposition: SccDecomposition | None = None) -> ComponentWait:
    """Underivability table for one component.

    Every component atom waits at step 0.  An atom keeps waiting while
    it is false, or has no true-bodied rule supporting it from outside
    the component and all its component-internal supporting bodies
    waited one step earlier.  A conjunction waits while it is false or
    some internal positive member waits; a sum constraint waits while it
    is false or the weight of false entries plus waiting internal atoms
    exceeds what its lower bound can spare.

    ``decomposition`` is the program's SCC decomposition, computed here
    when not given.
    """
    if decomposition is None:
        decomposition = sccs(dependency_graph(program), program)
    component = decomposition.by_label(label)
    members = component.atoms
    connecting = set(component.connecting)
    z = len(members)

    internal_bodies: dict[Atom, list[Body]] = {a: [] for a in members}
    external_true: dict[Atom, bool] = {a: False for a in members}
    for rule in program.rules:
        for atom in atoms_of(positive_part(rule.head)) & members:
            if rule.body in connecting:
                if rule.body not in internal_bodies[atom]:
                    internal_bodies[atom].append(rule.body)
            elif satisfies(x, rule.body):
                external_true[atom] = True

    sums = [e for e in component.connecting if isinstance(e, SumConstraint)]
    conjunctions = [e for e in component.connecting if isinstance(e, tuple)]
    wait: dict = {}

    def excluded(sc: SumConstraint, step: int) -> int:
        total = 0
        for wl in sc.elements:
            lit = wl.literal
            if not lit.negated and lit.atom in members:
                if wait[(lit.atom, step)]:
                    total += wl.weight
            elif not satisfies(x, lit):
                total += wl.weight
        return total

    for step in range(z + 1):
        for atom in members:
            if step == 0:
                wait[(atom, 0)] = True
            else:
                wait[(atom, step)] = atom not in x or (
                    not external_true[atom]
                    and all(wait[(body, step - 1)]
                            for body in internal_bodies[atom]))
        for sc in sums:
            lower = sc.lower if sc.lower is not None else 0
            wait[(sc, step)] = (not satisfies(x, sc)
                                or excluded(sc, step) > sc.total - lower)
        for body in conjunctions:
            waiting = False
            for bl in body:
                if bl.negated:
                    continue
                element = bl.element
                if isinstance(element, Atom) and element in members:
                    waiting = waiting or wait[(element, step)]
                elif isinstance(element, SumConstraint) and element in connecting:
                    waiting = waiting or wait[(element, step)]
            wait[(body, step)] = not satisfies(x, body) or waiting

    waiting_true = frozenset(a for a in members if a in x and wait[(a, z)])
    return ComponentWait(label, z, wait, waiting_true)
