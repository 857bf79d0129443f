import random

import pytest

from aspkit import consequence
from aspkit.consequence import (
    ComponentWait,
    cyclic,
    is_supported_model,
    sccs,
    strong_components,
    wait_levels,
)
from aspkit.core import (
    Atom,
    Disjunction,
    Program,
    atoms,
    is_extended,
    sorted_atoms,
)
from aspkit.parser import parse_program
from aspkit.reify import reify
from aspkit.semantics import compile_program, enumerate_answer_sets
from generators import iset, random_program
from reference import (
    Graph,
    PositiveProgram,
    is_answer_set,
    is_model,
    program_sccs,
    reduct,
    reference_dependency_graph,
    reference_sccs,
    scc_fixpoint_check,
    tp_iterate,
    tp_step,
)


def edge(a, b):
    return (Atom(a), Atom(b))


def as_graph(nodes: list[Atom], succ: list[list[int]]) -> Graph:
    """Successor lists over vertex indexes as atoms and atom pairs."""
    return Graph(frozenset(nodes), frozenset(
        (nodes[a], nodes[b]) for a, ends in enumerate(succ) for b in ends))


def compiled_graph(program: Program) -> Graph:
    """The graph of ``CompiledProgram.successors``."""
    compiled = compile_program(program)
    return as_graph(list(compiled.atoms),
                    [[b for b in range(len(compiled.atoms)) if mask >> b & 1]
                     for mask in compiled.successors])


def tables_graph(program: Program) -> tuple[list[str], list[list[int]]]:
    """The names and successor lists that ``reify.Tables.add_sccs``
    reads off its label tables and hands to ``strong_components``."""
    seen = []

    def spy(succ):
        seen.append(succ)
        return strong_components(succ)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(consequence, "strong_components", spy)
        names = reify(program).names
    (succ,) = seen
    return names, succ


def graph_of(program: Program) -> Graph:
    """The positive dependency graph of ``program`` as both program
    forms read it: the compiled successors and, for an extended program,
    the graph of the reification's tables; the two must agree."""
    graph = compiled_graph(program)
    if is_extended(program):
        names, succ = tables_graph(program)
        assert as_graph([Atom(name) for name in names], succ) == graph
    return graph


def numbered(graph: Graph) -> tuple[list[Atom], list[list[int]]]:
    """``graph`` over vertex indexes, numbered as both program forms
    number a program's: atoms in name order, each one's successors
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


def component_atoms(
        program: Program) -> list[tuple[int | None, frozenset[Atom], bool]]:
    """``sccs`` of the compiled program as (label, atoms, non-trivial)."""
    compiled = compile_program(program)
    return [(c.label, compiled.decode(c.members), c.nontrivial)
            for c in sccs(compiled).components]


def waits(program: Program, x, label: int) -> ComponentWait:
    """``wait_levels`` of the non-trivial component ``label``."""
    compiled = compile_program(program)
    return wait_levels(compiled, compiled.encode(x),
                       sccs(compiled).nontrivial()[label])


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

    def test_sums_and_minimize_only_atoms(self):
        """The positive entries of a sum head lead to the positive
        entries of a non-negated body sum; atoms that occur only in the
        minimize statement are vertexes without edges."""
        graph = graph_of(parse_program(
            "2 #sum[a=2, f=1, not h=1] :- 1 {b, not c}, not 1 {d}.\n"
            "#minimize[g, not k=2@2]."))
        assert graph.nodes == iset("a,b,c,d,f,g,h,k")
        assert graph.edges == {edge("a", "b"), edge("f", "b")}

    def test_matches_reference(self):
        """Both graph readers, read as atoms and atom pairs, equal the
        graph read rule by rule through the positive parts, on draws
        with sum heads, negated body sums, negated sum entries,
        constraints, proper disjunctions and atoms that occur only in
        the minimize statement.  The compiled successors are checked on
        every draw; the graph of the reification's tables, on every
        extended draw, has its names in name order and each one's
        successors ascending, each once."""
        rng = random.Random(37)
        seen = dict.fromkeys(("sum head", "negated sum", "negated entry",
                              "constraint", "minimize only", "disjunctive",
                              "extended"), 0)
        for i in range(1000):
            program = random_program(rng, minimize=True, disjunctive=i % 2)
            expected = reference_dependency_graph(program)
            assert compiled_graph(program) == expected
            if is_extended(program):
                names, succ = tables_graph(program)
                assert names == sorted(names)
                assert all(ends == sorted(set(ends)) for ends in succ)
                assert as_graph([Atom(name) for name in names],
                                succ) == expected
                seen["extended"] += 1
            else:
                seen["disjunctive"] += 1
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
        found = component_atoms(toy)
        assert [members for _, members, _ in found] == \
            [iset("s"), iset("p,r,t"), iset("q")]
        assert [label for label, _, _ in found] == [None, 0, None]

    def test_acyclic_all_trivial(self):
        program = parse_program("a :- b. b :- c. c.")
        found = component_atoms(program)
        assert all(not nontrivial for _, _, nontrivial in found)
        assert all(label is None for label, _, _ in found)

    def test_topological_order(self):
        rng = random.Random(23)
        for _ in range(40):
            program = random_program(rng, max_atoms=6, max_rules=8)
            position = {}
            for i, (_, members, _) in enumerate(component_atoms(program)):
                for atom in members:
                    position[atom] = i
            for a, b in graph_of(program).edges:
                assert position[a] >= position[b]

    def test_self_loop_is_nontrivial(self):
        found = component_atoms(parse_program("a :- a."))
        assert found == [(0, iset("a"), True)]

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
        """The search over vertex indexes, on graphs numbered as both
        program forms number a program's, finds the components, in the
        same order, and the non-trivial flags of the recursive Tarjan
        over atoms, on graphs with self-loops whose atoms are named
        apart from their creation order."""
        rng = random.Random(31)
        self_loops = cycles = 0
        for _ in range(1000):
            graph = random_graph(rng, 30, 3)
            nodes, succ = numbered(graph)
            found = strong_components(succ)
            expected = reference_sccs(graph)
            assert [frozenset([nodes[i] for i in members])
                    for members in found] == [c.atoms for c in expected]
            assert [cyclic(members, succ) for members in found] == \
                [c.nontrivial for c in expected]
            self_loops += any(len(members) == 1 and cyclic(members, succ)
                              for members in found)
            cycles += any(len(members) > 1 for members in found)
        assert self_loops >= 100 and cycles >= 100

    def test_program_decomposition_matches_reference(self):
        """``sccs`` of a compiled program, its member masks decoded, has
        the components, labels and order of the recursive Tarjan over
        atoms on the graph read rule by rule, on draws with trivial
        components, self-loops and larger cycles."""
        rng = random.Random(43)
        trivial = self_loops = cycles = 0
        for i in range(1000):
            program = random_program(rng, minimize=True, disjunctive=i % 2)
            got = component_atoms(program)
            assert got == [(c.label, c.atoms, c.nontrivial)
                           for c in program_sccs(program)]
            trivial += any(not nontrivial for _, _, nontrivial in got)
            self_loops += any(len(members) == 1 and nontrivial
                              for _, members, nontrivial in got)
            cycles += any(len(members) > 1 for _, members, _ in got)
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
            if sccs(compile_program(program)).nontrivial():
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
        result = waits(toy, iset("p,r"), 0)
        assert isinstance(result, ComponentWait)
        assert result.label == 0 and result.z == 3
        assert result.waiting_true == frozenset()

    def test_toy_cyclic_model_waits(self, toy):
        result = waits(toy, iset("r,t"), 0)
        assert result.waiting_true == iset("r,t")

    def test_external_support_clears_waiting(self):
        program = parse_program("a :- b. b :- a. b :- c. c.")
        result = waits(program, iset("a,b,c"), 0)
        assert result.waiting_true == frozenset()

    def test_duality_with_local_fixpoint(self):
        rng = random.Random(41)
        for _ in range(80):
            program = random_program(rng, max_atoms=6, max_rules=8)
            compiled = compile_program(program)
            components = sccs(compiled).nontrivial()
            if not components:
                continue
            universe = sorted(atoms(program))
            for mask in range(1 << len(universe)):
                x = frozenset(a for i, a in enumerate(universe)
                              if mask >> i & 1)
                if not is_model(x, program):
                    continue
                reduced = reduct(program, x)
                for component in components:
                    inside = compiled.decode(component.members)
                    table = wait_levels(compiled, compiled.encode(x),
                                        component)
                    local = tp_iterate(reduced, x - inside, len(inside))
                    assert table.waiting_true == (x & inside) - local

    def test_no_atom_is_hashed(self, monkeypatch):
        """On 200 two-atom cycles with every atom true, ``sccs`` hashes
        no atom and ``wait_levels`` only the two atoms it returns per
        component: both work on the compiled masks."""
        program = parse_program("".join(
            f"a{i} :- b{i}. b{i} :- a{i}.\n" for i in range(200)))
        compiled = compile_program(program)
        x = (1 << len(compiled.atoms)) - 1
        hash_ = Atom.__hash__
        calls = 0

        def counted(atom):
            nonlocal calls
            calls += 1
            return hash_(atom)

        monkeypatch.setattr(Atom, "__hash__", counted)
        components = sccs(compiled).nontrivial()
        assert calls == 0 and len(components) == 200
        found = []
        for component in components:
            calls = 0
            found.append(wait_levels(compiled, x, component))
            assert calls == 2
        monkeypatch.undo()
        assert [wait.waiting_true for wait in found] == \
            [compiled.decode(c.members) for c in components]
        assert {wait.z for wait in found} == {2}
