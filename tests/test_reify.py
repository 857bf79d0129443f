import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspkit.core import (
    Atom,
    BodyLiteral,
    ContractViolationError,
    CriteriaSet,
    Disjunction,
    Literal,
    MinimizeEntry,
    MinimizeStatement,
    Program,
    Rule,
    SumConstraint,
    WeightedLiteral,
    normalize,
)
from aspkit.metaenc import crosscheck
from aspkit.parser import ParseError, parse_program
from aspkit.reify import (
    MAX_TERM_DEPTH,
    FactReader,
    ReifyError,
    facts_to_text,
    parse_reified,
    reify,
    text_to_facts,
)
from aspkit.semantics import enumerate_answer_sets
from conftest import TOY_MIN_TEXT
from generators import choice_program, random_program, random_sum, term_mutant
from reference import reference_reify, scc_members

TOY_MIN_FACTS = """\
rule(pos(sum(1,0,2)),pos(conjunction(0))).
wlist(0,0,pos(atom(p)),1).
wlist(0,1,pos(atom(t)),1).
set(0,pos(sum(1,1,2))).
wlist(1,0,pos(atom(r)),1).
wlist(1,1,pos(atom(s)),1).
wlist(1,2,neg(atom(t)),1).
rule(pos(sum(0,2,1)),pos(conjunction(1))).
wlist(2,0,pos(atom(q)),1).
wlist(2,1,pos(atom(r)),1).
set(1,pos(sum(1,0,2))).
rule(pos(atom(s)),pos(conjunction(2))).
set(2,neg(atom(q))).
set(2,neg(atom(r))).
scc(0,atom(p)).
scc(0,atom(r)).
scc(0,atom(t)).
scc(0,conjunction(0)).
scc(0,sum(1,1,2)).
scc(0,conjunction(1)).
scc(0,sum(1,0,2)).
minimize(1,3).
wlist(3,0,pos(atom(p)),1).
wlist(3,1,pos(atom(q)),1).
wlist(3,2,pos(atom(r)),1).
wlist(3,3,pos(atom(s)),1).
"""


class TestReifyShapes:
    def test_toy_facts_are_exactly_the_documented_ones(self, toy_min):
        assert facts_to_text(reify(toy_min)) == TOY_MIN_FACTS

    def test_deterministic_output(self):
        first = facts_to_text(reify(parse_program(TOY_MIN_TEXT)))
        second = facts_to_text(reify(parse_program(TOY_MIN_TEXT)))
        assert first == second

    def test_label_reuse_for_identical_lists(self):
        program = parse_program("a :- 1 {x, y}. b :- 1 {x, y}.")
        text = facts_to_text(reify(program))
        assert text.count("wlist(0,0,pos(atom(x)),1).") == 1
        assert "wlist(1," not in text

    def test_scc_facts_present_iff_nontrivial(self, toy):
        assert any(f.predicate == "scc" for f in reify(toy))
        tight = parse_program("a :- b. b.")
        assert not any(f.predicate == "scc" for f in reify(tight))

    def test_integrity_constraint_head(self):
        facts = reify(parse_program(":- a."))
        assert str(facts[0]) == "rule(pos(false),pos(conjunction(0)))."

    def test_proper_disjunction_rejected(self):
        with pytest.raises(ContractViolationError):
            reify(parse_program("a | b."))

    @pytest.mark.parametrize("rule", [
        Rule(SumConstraint(0, ())),
        Rule(Disjunction((Atom("a"),)), (BodyLiteral(SumConstraint(0, ())),)),
    ])
    def test_empty_sum_rejected(self, rule):
        """A sum with no entries has no wlist/4 fact to name its list."""
        program = Program((rule,))
        assert enumerate_answer_sets(program)
        with pytest.raises(ContractViolationError, match="empty sum"):
            reify(program)
        with pytest.raises(ContractViolationError, match="empty sum"):
            crosscheck(program, CriteriaSet())

    def test_components_sharing_a_choice_head(self):
        """A choice head spanning two components connects each; a
        duplicate body is listed once, and a body sum whose only entry in
        the component is negated, or a negated body sum, is no member."""
        program = parse_program(
            "{a, c} :- b. b :- a. b :- a. c :- d, 1 {not c, x}. "
            "d :- c, not 1 {d}. d :- 1 {c, x} 2. x :- not y.")
        scc_lines = [line for line in facts_to_text(reify(program)).split()
                     if line.startswith("scc(")]
        assert scc_lines == [
            "scc(0,atom(a)).", "scc(0,atom(b)).",
            "scc(0,conjunction(0)).", "scc(0,conjunction(1)).",
            "scc(1,atom(c)).", "scc(1,atom(d)).",
            "scc(1,conjunction(2)).", "scc(1,conjunction(3)).",
            "scc(1,conjunction(4)).", "scc(1,sum(1,3,2))."]

    def test_scc_members_match_the_rule_scan(self):
        """The one-pass members equal the per-component rescan of every
        rule, with sums normalized on both sides."""

        def normal(member):
            if isinstance(member, SumConstraint):
                return normalize(Program((Rule(member),))).rules[0].head
            if isinstance(member, tuple):
                rule = Rule(Disjunction(()), member)
                return normalize(Program((rule,))).rules[0].body
            return member

        rng = random.Random(17)
        seen = 0
        for i in range(400):
            program = (random_program(rng, max_atoms=5, max_rules=8)
                       if i % 4 else choice_program(rng, max_atoms=5))
            expected = {(label, normal(m))
                        for label, m in scc_members(program)}
            got = {(label, normal(m)) for label, m
                   in FactReader(reify(program)).scc_members()}
            assert got == expected
            seen += any(not isinstance(m, Atom) for _, m in got)
        assert seen >= 100

    def test_minimize_levels_get_separate_lists(self):
        program = parse_program("#minimize[a=1@2, b=2@1, not a=1@2].")
        text = facts_to_text(reify(program))
        assert "minimize(1,0)." in text and "minimize(2,1)." in text
        assert "wlist(1,0,pos(atom(a)),1)." in text
        assert "wlist(1,1,neg(atom(a)),1)." in text


class TestRoundTrip:
    def test_toy_round_trip_is_normal_form(self, toy_min):
        assert parse_reified(reify(toy_min)) == normalize(toy_min)

    def test_text_layer_round_trip(self, toy_min):
        facts = text_to_facts(facts_to_text(reify(toy_min)))
        assert parse_reified(facts) == normalize(toy_min)

    def test_answer_sets_preserved(self, toy_min):
        recovered = parse_reified(reify(toy_min))
        assert enumerate_answer_sets(recovered) == \
            enumerate_answer_sets(toy_min)

    def test_random_corpus_round_trip(self):
        rng = random.Random(13)
        for _ in range(50):
            program = random_program(rng, max_atoms=6, max_rules=8,
                                     minimize=True)
            assert parse_reified(reify(program)) == normalize(program)

    def test_duplicate_body_elements_survive(self):
        program = parse_program("a :- b, b.")
        assert parse_reified(reify(program)) == normalize(program)


class TestLabelSharing:
    def test_sum_and_minimize_list_share_one_label(self):
        """A minimize level whose entries equal a sum's elements names the
        sum's list: one wlist fact, and minimize(1,0)."""
        text = facts_to_text(reify(parse_program("{a}. #minimize[a=1@1].")))
        assert text == ("rule(pos(sum(0,0,1)),pos(conjunction(0))).\n"
                        "wlist(0,0,pos(atom(a)),1).\n"
                        "minimize(1,0).\n")


def shared_program(rng: random.Random) -> Program:
    """A random extended program built from small pools, so that sums
    repeat in heads and bodies, sums differ only in a bound, bodies
    repeat whole, and some minimize levels list exactly the elements of
    one of the sums."""
    pool = [Atom(n) for n in "abcdef"[:rng.randint(2, 6)]]
    sums = [random_sum(rng, pool) for _ in range(rng.randint(1, 3))]
    sums += [SumConstraint(rng.choice((None, 0, 1)), sc.elements,
                           rng.choice((None, sc.total, sc.total + 1)))
             for sc in sums]
    bodies = []
    for _ in range(rng.randint(1, 4)):
        bodies.append(tuple(
            BodyLiteral(rng.choice(sums) if rng.random() < 0.5
                        else rng.choice(pool), rng.random() < 0.3)
            for _ in range(rng.randint(0, 2))))
    rules = []
    for _ in range(rng.randint(1, 8)):
        dice = rng.random()
        head = (rng.choice(sums) if dice < 0.4
                else Disjunction((rng.choice(pool),)) if dice < 0.85
                else Disjunction(()))
        rules.append(Rule(head, rng.choice(bodies)))
    entries = []
    for level in rng.sample((1, 2, 3), rng.randint(0, 3)):
        if rng.random() < 0.6:
            entries += [MinimizeEntry(wl.literal, wl.weight, level)
                        for wl in rng.choice(sums).elements]
        else:
            entries.append(MinimizeEntry(
                Literal(rng.choice(pool), rng.random() < 0.3),
                rng.randint(-1, 2), level))
    return Program(tuple(rules), MinimizeStatement(tuple(entries)))


class TestAgainstReference:
    """The builder that shares one term per distinct atom, sum and
    signed member prints what the one-term-per-occurrence reference
    prints."""

    def test_random_programs(self):
        rng = random.Random(21)
        for _ in range(2000):
            program = random_program(rng, minimize=True)
            facts, expected = reify(program), reference_reify(program)
            assert facts == expected
            assert facts_to_text(facts) == facts_to_text(expected)

    def test_repeated_sums_bodies_and_lists(self):
        rng = random.Random(22)
        shared_lists = 0
        for _ in range(1000):
            program = shared_program(rng)
            facts = reify(program)
            assert facts_to_text(facts) == \
                facts_to_text(reference_reify(program))
            # heads of rule facts and members of set facts
            signed = [fact.args[fact.predicate == "set"] for fact in facts
                      if fact.predicate in ("rule", "set")]
            sum_labels = {term.args[0].args[1] for term in signed
                          if term.args[0].functor == "sum"}
            shared_lists += any(fact.args[1] in sum_labels for fact in facts
                                if fact.predicate == "minimize")
        assert shared_lists >= 100


ATOMS = st.sampled_from([Atom(n) for n in "abcd"])
LITERALS = st.builds(Literal, ATOMS, st.booleans())
SUMS = st.builds(
    SumConstraint,
    st.one_of(st.none(), st.integers(-1, 4)),
    st.lists(st.builds(WeightedLiteral, LITERALS, st.integers(0, 3)),
             min_size=1, max_size=3).map(tuple),
    st.one_of(st.none(), st.integers(-1, 4)))
EXTENDED_HEADS = st.one_of(
    st.builds(Disjunction, st.lists(ATOMS, max_size=1).map(tuple)), SUMS)
EXTENDED_RULES = st.builds(
    Rule, EXTENDED_HEADS,
    st.lists(st.builds(BodyLiteral, st.one_of(ATOMS, SUMS), st.booleans()),
             max_size=3).map(tuple))
EXTENDED_PROGRAMS = st.builds(
    Program,
    st.lists(EXTENDED_RULES, max_size=4).map(tuple),
    st.builds(MinimizeStatement, st.lists(
        st.builds(MinimizeEntry, LITERALS, st.integers(-2, 3),
                  st.integers(1, 2)),
        max_size=3).map(tuple)))


@given(EXTENDED_PROGRAMS)
@settings(max_examples=200, deadline=None)
def test_round_trip_law(program):
    assert parse_reified(reify(program)) == normalize(program)


class TestValidation:
    def fact_text_without(self, fragment):
        return TOY_MIN_FACTS.replace(fragment, "")

    def test_wlist_index_gap(self):
        broken = self.fact_text_without("wlist(3,1,pos(atom(q)),1).\n")
        with pytest.raises(ReifyError, match="consecutive"):
            parse_reified(text_to_facts(broken))

    def test_duplicate_wlist_index(self):
        broken = TOY_MIN_FACTS + "wlist(3,3,pos(atom(p)),1).\n"
        with pytest.raises(ReifyError, match="duplicate"):
            parse_reified(text_to_facts(broken))

    def test_scc_facts_not_trusted(self):
        broken = self.fact_text_without("scc(0,atom(p)).\n")
        with pytest.raises(ReifyError, match="scc"):
            parse_reified(text_to_facts(broken))
        extra = TOY_MIN_FACTS + "scc(1,atom(q)).\n"
        with pytest.raises(ReifyError, match="scc"):
            parse_reified(text_to_facts(extra))
        # connecting members are checked as well as atoms
        broken = self.fact_text_without("scc(0,sum(1,0,2)).\n")
        with pytest.raises(ReifyError, match="scc"):
            parse_reified(text_to_facts(broken))
        extra = TOY_MIN_FACTS + "scc(0,conjunction(2)).\n"
        with pytest.raises(ReifyError, match="scc"):
            parse_reified(text_to_facts(extra))

    def test_dangling_sum_list(self):
        broken = text_to_facts(
            "rule(pos(sum(1,9,1)),pos(conjunction(0))).")
        with pytest.raises(ReifyError, match="dangling"):
            parse_reified(broken)

    def test_unknown_predicate(self):
        with pytest.raises(ReifyError, match="unknown predicate"):
            parse_reified(text_to_facts("foo(1,2)."))

    def test_malformed_fact_syntax_has_span(self):
        with pytest.raises(ParseError):
            text_to_facts("rule(pos(atom(a)),")

    @pytest.mark.parametrize("text, message, line, column", [
        ("rule(pos(a),pos(b)).\n\n  % atom\n  atom.",
         "expected a fact with arguments", 4, 3),
        ("set(1,pos(a))\n", "expected '.', found ''", 2, 1),
        # a comment at eof with no newline, and trailing whitespace
        ("set(1,pos(a)) % end", "expected '.', found ''", 1, 20),
        ("set(1,pos(a)) \n\t", "expected '.', found ''", 2, 2),
        ("set(1,#).", "unexpected character '#'", 1, 7),
        ("set(1,:).", "unexpected character ':'", 1, 7),
        ("set(1,-).", "unexpected character '-'", 1, 7),
        # the lexical error wins over an earlier syntax error
        ("set(1 pos(a)).\nset(X).",
         "non-ground input: variable-like token 'X'", 2, 5),
        ("set(1,\xa0pos(a)).\r\n\x85set(2,Neg).",
         "non-ground input: variable-like token 'Neg'", 2, 8),
    ])
    def test_fact_syntax_error_position_is_pinned(self, text, message, line,
                                                  column):
        with pytest.raises(ParseError) as err:
            text_to_facts(text)
        assert err.value.message == message
        assert (err.value.span.line, err.value.span.column) == (line, column)

    @pytest.mark.parametrize("text", [
        "set(1,pos(a)). % end", "set(1,pos(a)). \n\t",
        "set(1,\xa0pos(a)).\r\n\x85", "% only\n set(1,pos(a)).\r\n"])
    def test_skipped_text_is_not_read(self, text):
        assert text_to_facts(text) == text_to_facts("set(1,pos(a)).")

    @pytest.mark.parametrize("text", ["", " \n\t", "% c", " \n% c"])
    def test_skipped_text_alone_has_no_facts(self, text):
        assert text_to_facts(text) == []

    def test_deeply_nested_term_is_a_parse_error(self):
        text = "f(" * 3000 + "a" + ")" * 3000 + "."
        with pytest.raises(ParseError) as err:
            text_to_facts(text)
        assert err.value.message == \
            f"term nested deeper than {MAX_TERM_DEPTH} levels"
        # the first term past the limit: one "f(" per level above it
        column = 2 * MAX_TERM_DEPTH + 1
        assert (err.value.span.line, err.value.span.column) == (1, column)

    def test_nesting_up_to_the_limit_is_read(self):
        depth = MAX_TERM_DEPTH - 1
        text = "f(" * depth + "a" + ")" * depth + "."
        [fact] = text_to_facts(text)
        assert str(fact) == text

    def test_negative_weight_in_sum_list(self):
        facts = text_to_facts(
            "rule(pos(atom(a)),pos(conjunction(0))).\n"
            "set(0,pos(sum(0,1,1))).\n"
            "wlist(1,0,pos(atom(a)),-1).\n")
        with pytest.raises(ReifyError, match="negative weight"):
            parse_reified(facts)

    @pytest.mark.parametrize("text", [
        "rule(pos(5),pos(conjunction(0))).",
        "rule(pos(atom(a)),pos(7)).",
    ])
    def test_integer_where_a_term_belongs(self, text):
        with pytest.raises(ReifyError, match="malformed rule"):
            parse_reified(text_to_facts(text))

    def test_term_mutants_raise_only_reify_error(self):
        """Reified random programs with one or two argument terms, at any
        depth, replaced by an integer, another term of the reification or
        a foreign term: each mutant that reads as facts reads as a
        program or raises ReifyError, never another exception."""
        rng = random.Random(7)
        outcomes = {"program": 0, "ReifyError": 0}
        for _ in range(3000):
            program = random_program(rng, max_atoms=5, max_rules=6)
            text = facts_to_text(term_mutant(rng, reify(program)))
            try:
                facts = text_to_facts(text)
            except ParseError:
                continue
            try:
                parse_reified(facts)
                outcomes["program"] += 1
            except ReifyError:
                outcomes["ReifyError"] += 1
        assert outcomes["program"] >= 100
        assert outcomes["ReifyError"] >= 2000


def test_package_attribute_is_the_module():
    import aspkit
    import aspkit.reify as module

    assert module is aspkit.reify
    assert callable(module.reify)
