import pytest

from aspkit.core import (
    Atom,
    BodyLiteral,
    CriteriaSet,
    Disjunction,
    Literal,
    MinimizeEntry,
    MinimizeStatement,
    Program,
    Rule,
    SumConstraint,
    WeightedLiteral,
    atoms,
    is_extended,
    normalize,
)
from generators import iset
from reference import atoms_of, positive_part


def wl(name, weight=1, negated=False):
    return WeightedLiteral(Literal(Atom(name), negated), weight)


class TestAtoms:
    @pytest.mark.parametrize("name", ["a", "p0", "edge_ab", "xY_2"])
    def test_valid_names(self, name):
        assert Atom(name).name == name

    @pytest.mark.parametrize("name", ["A", "1a", "", "a-b", "a b", "Xy"])
    def test_invalid_names(self, name):
        with pytest.raises(ValueError):
            Atom(name)

    def test_equality_is_by_name(self):
        assert Atom("a") == Atom("a")
        assert Atom("a") != Atom("b")


class TestSumConstraint:
    def test_duplicates_are_significant(self):
        once = SumConstraint(None, (wl("a"),))
        twice = SumConstraint(None, (wl("a"), wl("a")))
        assert once != twice
        assert twice == SumConstraint(None, (wl("a"), wl("a")))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SumConstraint(None, (wl("a", -1),))

    def test_total(self):
        assert SumConstraint(1, (wl("a", 2), wl("b", 3)), None).total == 5


class TestProjections:
    def test_all_negative_body_projects_empty(self, toy):
        assert positive_part(toy.rules[2].body) == ()

    def test_sum_positive_part(self):
        sc = SumConstraint(1, (wl("r"), wl("s"), wl("t", 1, True)), 2)
        assert positive_part(sc) == (wl("r"), wl("s"))
        assert atoms_of(positive_part(sc)) == iset("r,s")

    def test_disjunction_positive_part(self):
        d = Disjunction((Atom("a"), Atom("b")))
        assert positive_part(d) == iset("a,b")

    def test_body_positive_part_keeps_elements(self):
        sc = SumConstraint(0, (wl("a"),), None)
        body = (BodyLiteral(Atom("x")), BodyLiteral(sc),
                BodyLiteral(Atom("y"), negated=True))
        assert positive_part(body) == (Atom("x"), sc)


class TestAtomsOfProgram:
    def test_toy_atoms(self, toy):
        assert atoms(toy) == iset("p,q,r,s,t")

    def test_empty_program(self):
        assert atoms(Program()) == frozenset()

    def test_single_fact(self):
        program = Program((Rule(Disjunction((Atom("a"),))),))
        assert atoms(program) == iset("a")

    def test_minimize_entries_count(self):
        program = Program(
            (), MinimizeStatement((MinimizeEntry(Literal(Atom("z"))),)))
        assert atoms(program) == iset("z")

    def test_monotone_under_rule_addition(self, toy):
        extended = Program(
            toy.rules + (Rule(Disjunction((Atom("u"),))),), toy.minimize)
        assert atoms(toy) <= atoms(extended)
        assert atoms(extended) == atoms(extended)  # idempotent


class TestNormalize:
    def test_materializes_bounds(self):
        sc = SumConstraint(None, (wl("a"), wl("b", 2)), None)
        program = Program((Rule(sc, (BodyLiteral(sc, True),)),))
        normalized = normalize(program)
        head = normalized.rules[0].head
        assert head.lower == 0 and head.upper == 3
        body_sum = normalized.rules[0].body[0].element
        assert body_sum.lower == 0 and body_sum.upper == 3

    def test_minimize_grouped_by_level(self):
        statement = MinimizeStatement((
            MinimizeEntry(Literal(Atom("a")), 1, 2),
            MinimizeEntry(Literal(Atom("b")), 1, 1),
            MinimizeEntry(Literal(Atom("c")), 1, 2),
        ))
        normalized = normalize(Program((), statement))
        assert [e.level for e in normalized.minimize.entries] == [1, 2, 2]
        assert [e.literal.atom.name
                for e in normalized.minimize.entries] == ["b", "a", "c"]


class TestCriteriaSet:
    def test_conflicting_criteria_rejected(self):
        with pytest.raises(ValueError):
            CriteriaSet(((1, 1, "card"), (1, 1, "incl")))

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            CriteriaSet(((1, 1, "min"),))

    def test_lookup_and_levels(self):
        crit = CriteriaSet(((2, 1, "pref"), (1, 1, "card")))
        assert crit.criterion_at(2, 1) == "pref"
        assert crit.criterion_at(3, 1) is None
        assert crit.levels() == (2, 1)

    def test_prefer_closure_is_optional(self):
        a, b, c = (Literal(Atom(n)) for n in "abc")
        crit = CriteriaSet((), ((a, b), (b, c)))
        closed = crit.with_prefer_closure()
        assert (a, c) in closed.prefer
        assert (a, a) in closed.prefer
        assert crit.prefer == ((a, b), (b, c))  # original untouched


def test_is_extended(toy):
    assert is_extended(toy)
    disjunctive = Program((Rule(Disjunction((Atom("a"), Atom("b")))),))
    assert not is_extended(disjunctive)
    constraint_only = Program((Rule(Disjunction(())),))
    assert is_extended(constraint_only)


def test_syntax_objects_have_no_instance_dict():
    atom = Atom("a")
    literal = Literal(atom, True)
    entry = WeightedLiteral(literal, 2)
    sc = SumConstraint(1, (entry,), 2)
    body = (BodyLiteral(atom), BodyLiteral(sc, True))
    rule = Rule(Disjunction((atom,)), body)
    minimize = MinimizeStatement((MinimizeEntry(literal, 1, 1),))
    objects = [atom, literal, entry, sc, *body, rule, rule.head, minimize,
               minimize.entries[0], Program((rule,), minimize),
               CriteriaSet(((1, 1, "card"),))]
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
