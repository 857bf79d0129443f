import random

import pytest

from aspkit.consequence import (
    ComponentWait,
    cyclic,
    indexed_graph,
    is_supported_model,
    sccs,
    strong_components,
    wait_levels,
)
from aspkit.core import Atom, Disjunction, Program, atoms, sorted_atoms
from aspkit.parser import parse_program
from aspkit.semantics import enumerate_answer_sets
from generators import iset, random_program
from reference import (
    Graph,
    PositiveProgram,
    is_answer_set,
    is_model,
    reduct,
    reference_dependency_graph,
    reference_sccs,
    scc_fixpoint_check,
    tp_iterate,
    tp_step,
)


def edge(a, b):
    return (Atom(a), Atom(b))


def graph_of(program: Program) -> Graph:
    """The graph of :func:`indexed_graph` as atoms and atom pairs."""
    nodes, succ = indexed_graph(program)
    return Graph(frozenset(nodes), frozenset(
        (nodes[a], nodes[b]) for a, ends in enumerate(succ) for b in ends))


def numbered(graph: Graph) -> tuple[list[Atom], list[list[int]]]:
    """``graph`` over vertex indexes, numbered as :func:`indexed_graph`
    numbers a program's: atoms in name order, each one's successors
    ascending."""
    nodes = sorted_atoms(graph.nodes)
    number = {atom: i for i, atom in enumerate(nodes)}
    succ: list[list[int]] = [[] for _ in nodes]
    for a, b in graph.edges:
        succ[number[a]].append(number[b])
    return nodes, [sorted(ends) for ends in succ]


def random_graph(rng: random.Random, size: int, degree: int) -> Graph:
    """Up to ``size`` atoms named apart from their creation order, with
    up to ``degree`` edges per atom drawn at random and a self-loop at
    about one atom in ten."""
    names = rng.sample(range(1000), rng.randint(1, size))
    nodes = [Atom(f"v{name}") for name in names]
    edges = [(rng.choice(nodes), rng.choice(nodes))
             for _ in range(rng.randint(0, degree * len(nodes)))]
    edges += [(a, a) for a in nodes if rng.random() < 0.1]
    return Graph(frozenset(nodes), frozenset(edges))


class TestDependencyGraph:
    def test_toy_edges(self, toy):
        graph = graph_of(toy)
        assert graph.nodes == iset("p,q,r,s,t")
        assert graph.edges == {
            edge("p", "r"), edge("p", "s"), edge("t", "r"), edge("t", "s"),
            edge("q", "p"), edge("q", "t"), edge("r", "p"), edge("r", "t")}

    def test_facts_only_no_edges(self):
        assert graph_of(parse_program("a. b.")).edges == frozenset()

    def test_mutual_recursion(self):
        graph = graph_of(parse_program("a :- b. b :- a."))
        assert graph.edges == {edge("a", "b"), edge("b", "a")}

    def test_negative_occurrences_contribute_nothing(self):
        graph = graph_of(parse_program("a :- not b, not 1 {c}."))
        assert graph.edges == frozenset()

    def test_matches_reference(self):
        """The one-walk graph over atom indexes, read as atoms and atom
        pairs, equals the graph read rule by rule through the positive
        parts, on draws with sum heads, negated body sums, negated sum
        entries, constraints, proper disjunctions and atoms that occur
        only in the minimize statement; its atoms are in name order and
        each one's successors ascending, each once."""
        rng = random.Random(37)
        seen = dict.fromkeys(("sum head", "negated sum", "negated entry",
                              "constraint", "minimize only"), 0)
        for i in range(1000):
            program = random_program(rng, minimize=True, disjunctive=i % 2)
            nodes, succ = indexed_graph(program)
            assert nodes == sorted_atoms(nodes)
            assert all(ends == sorted(set(ends)) for ends in succ)
            assert graph_of(program) == reference_dependency_graph(program)
            heads = [rule.head for rule in program.rules]
            sums = [bl for rule in program.rules for bl in rule.body
                    if not isinstance(bl.element, Atom)]
            seen["sum head"] += any(not isinstance(h, Disjunction)
                                    for h in heads)
            seen["negated sum"] += any(bl.negated for bl in sums)
            seen["negated entry"] += any(wl.literal.negated for bl in sums
                                         for wl in bl.element.elements)
            seen["constraint"] += Disjunction(()) in heads
            seen["minimize only"] += bool(
                atoms(program) - atoms(Program(program.rules)))
        assert min(seen.values()) >= 100, seen


class TestSccs:
    def test_toy_decomposition(self, toy):
        decomposition = sccs(toy)
        sets = [c.atoms for c in decomposition.components]
        assert sets == [iset("s"), iset("p,r,t"), iset("q")]
        nontrivial = decomposition.nontrivial()
        assert len(nontrivial) == 1 and nontrivial[0].label == 0

    def test_acyclic_all_trivial(self):
        program = parse_program("a :- b. b :- c. c.")
        decomposition = sccs(program)
        assert all(not c.nontrivial for c in decomposition.components)
        assert all(c.label is None for c in decomposition.components)

    def test_topological_order(self):
        rng = random.Random(23)
        for _ in range(40):
            program = random_program(rng, max_atoms=6, max_rules=8)
            decomposition = sccs(program)
            position = {}
            for i, component in enumerate(decomposition.components):
                for atom in component.atoms:
                    position[atom] = i
            for a, b in graph_of(program).edges:
                assert position[a] >= position[b]

    def test_self_loop_is_nontrivial(self):
        program = parse_program("a :- a.")
        decomposition = sccs(program)
        assert decomposition.by_label(0).atoms == iset("a")

    def test_nontrivial_flags_match_internal_edges(self):
        rng = random.Random(29)
        for _ in range(200):
            graph = random_graph(rng, 12, 2)
            nodes, succ = numbered(graph)
            found = strong_components(succ)
            assert sorted(i for members in found for i in members) == \
                list(range(len(nodes)))
            for members in found:
                inside = {nodes[i] for i in members}
                internal = any(a in inside and b in inside
                               for a, b in graph.edges)
                assert cyclic(members, succ) == internal

    def test_matches_reference(self):
        """The search over vertex indexes, on graphs numbered as
        ``indexed_graph`` numbers a program's, finds the components, in
        the same order, and the non-trivial flags of the recursive
        Tarjan over atoms, on graphs with self-loops whose atoms are
        named apart from their creation order."""
        rng = random.Random(31)
        self_loops = cycles = 0
        for _ in range(1000):
            graph = random_graph(rng, 30, 3)
            nodes, succ = numbered(graph)
            found = strong_components(succ)
            expected = reference_sccs(graph).components
            assert [frozenset([nodes[i] for i in members])
                    for members in found] == [c.atoms for c in expected]
            assert [cyclic(members, succ) for members in found] == \
                [c.nontrivial for c in expected]
            self_loops += any(len(members) == 1 and cyclic(members, succ)
                              for members in found)
            cycles += any(len(members) > 1 for members in found)
        assert self_loops >= 100 and cycles >= 100

    def test_program_decomposition_matches_reference(self):
        """``sccs`` of a program has the components, labels and order of
        the recursive Tarjan over atoms on the graph read rule by rule,
        on draws with trivial components, self-loops and larger
        cycles."""
        rng = random.Random(43)
        trivial = self_loops = cycles = 0
        for i in range(1000):
            program = random_program(rng, minimize=True, disjunctive=i % 2)
            got = sccs(program)
            assert got == reference_sccs(reference_dependency_graph(program))
            trivial += any(not c.nontrivial for c in got.components)
            self_loops += any(len(c.atoms) == 1 and c.nontrivial
                              for c in got.components)
            cycles += any(len(c.atoms) > 1 for c in got.components)
        assert min(trivial, self_loops, cycles) >= 100, \
            (trivial, self_loops, cycles)


class TestTpOperator:
    def test_steps_match_worked_example(self, toy):
        reduced = reduct(toy, iset("p,r"))
        assert tp_step(reduced, frozenset()) == {Disjunction((Atom("p"),))}
        assert tp_iterate(reduced, frozenset(), 1) == iset("p")
        assert tp_iterate(reduced, frozenset(), 2) == iset("p,r")
        assert tp_iterate(reduced, frozenset(), 3) == iset("p,r")

    def test_zero_steps_returns_seed(self, toy):
        reduced = reduct(toy, iset("p,r"))
        assert tp_iterate(reduced, iset("p"), 0) == iset("p")

    def test_failed_derivation(self, toy):
        reduced = reduct(toy, iset("r,t"))
        assert tp_iterate(reduced, frozenset(), 3) == frozenset()

    def test_empty_program(self):
        assert tp_step(PositiveProgram(), iset("a")) == frozenset()

    def test_proper_disjunction_head_is_a_contract_violation(self):
        from aspkit.core import ContractViolationError
        disjunctive = PositiveProgram(parse_program("a | b.").rules)
        with pytest.raises(ContractViolationError):
            tp_iterate(disjunctive, frozenset(), 1)

    def test_monotone_and_bounded(self):
        rng = random.Random(3)
        for _ in range(30):
            program = random_program(rng, max_atoms=6, max_rules=8)
            universe = sorted(atoms(program))
            x = frozenset(a for a in universe if rng.random() < 0.5)
            if not is_model(x, program):
                continue
            reduced = reduct(program, x)
            previous = frozenset()
            for steps in range(len(universe) + 2):
                current = tp_iterate(reduced, frozenset(), steps)
                assert previous <= current
                previous = current
            assert tp_iterate(reduced, frozenset(), len(universe)) == previous


class TestSccFixpointCheck:
    def test_toy_examples(self, toy):
        assert scc_fixpoint_check(toy, iset("p,r"))
        assert not scc_fixpoint_check(toy, iset("r,t"))
        assert scc_fixpoint_check(Program(), frozenset())

    def test_equivalence_with_answer_sets(self):
        rng = random.Random(17)
        for _ in range(80):
            program = random_program(rng, max_atoms=6, max_rules=8)
            universe = sorted(atoms(program))
            for mask in range(1 << len(universe)):
                x = frozenset(a for i, a in enumerate(universe)
                              if mask >> i & 1)
                if not is_model(x, program):
                    continue
                expected = is_answer_set(x, program)
                assert scc_fixpoint_check(program, x) == expected
                global_fixpoint = tp_iterate(
                    reduct(program, x), frozenset(), len(universe)) == x
                assert global_fixpoint == expected


class TestSupportedModel:
    def test_toy_examples(self, toy):
        assert is_supported_model(toy, iset("p,r"))
        # supported yet not an answer set: the failure is cyclic
        assert is_supported_model(toy, iset("r,t"))

    def test_unsupported_atom(self):
        assert not is_supported_model(parse_program("a :- b."), iset("a"))

    def test_answer_sets_are_supported(self):
        rng = random.Random(29)
        for _ in range(40):
            program = random_program(rng, max_atoms=6, max_rules=8)
            for x in enumerate_answer_sets(program):
                assert is_supported_model(program, x)

    def test_tight_programs_coincide(self):
        rng = random.Random(31)
        seen = 0
        for _ in range(120):
            program = random_program(rng, max_atoms=5, max_rules=6)
            decomposition = sccs(program)
            if decomposition.nontrivial():
                continue
            seen += 1
            universe = sorted(atoms(program))
            for mask in range(1 << len(universe)):
                x = frozenset(a for i, a in enumerate(universe)
                              if mask >> i & 1)
                if is_model(x, program):
                    assert is_supported_model(program, x) == \
                        is_answer_set(x, program)
        assert seen >= 10


class TestWaitLevels:
    def test_toy_answer_set_has_no_waiting_atoms(self, toy):
        result = wait_levels(toy, iset("p,r"), 0)
        assert isinstance(result, ComponentWait)
        assert result.z == 3
        assert result.waiting_true == frozenset()

    def test_toy_cyclic_model_waits(self, toy):
        result = wait_levels(toy, iset("r,t"), 0)
        assert result.waiting_true == iset("r,t")

    def test_external_support_clears_waiting(self):
        program = parse_program("a :- b. b :- a. b :- c. c.")
        result = wait_levels(program, iset("a,b,c"), 0)
        assert result.waiting_true == frozenset()

    def test_unknown_label(self, toy):
        with pytest.raises(ValueError):
            wait_levels(toy, iset("p,r"), 7)

    def test_duality_with_local_fixpoint(self):
        rng = random.Random(41)
        for _ in range(80):
            program = random_program(rng, max_atoms=6, max_rules=8)
            decomposition = sccs(program)
            if not decomposition.nontrivial():
                continue
            universe = sorted(atoms(program))
            for mask in range(1 << len(universe)):
                x = frozenset(a for i, a in enumerate(universe)
                              if mask >> i & 1)
                if not is_model(x, program):
                    continue
                reduced = reduct(program, x)
                for component in decomposition.nontrivial():
                    table = wait_levels(program, x, component.label)
                    local = tp_iterate(
                        reduced, x - component.atoms, len(component.atoms))
                    assert table.waiting_true == \
                        (x & component.atoms) - local
