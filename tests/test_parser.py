import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspkit.core import (
    Atom,
    BodyLiteral,
    Disjunction,
    Literal,
    MinimizeEntry,
    MinimizeStatement,
    Program,
    Rule,
    SumConstraint,
    WeightedLiteral,
)
from aspkit.parser import (
    ParseError,
    parse_criteria,
    parse_program,
    render_program,
)
from aspkit.reify import reify_source
from generators import random_program


def test_toy_shapes(toy):
    assert len(toy.rules) == 3
    head = toy.rules[0].head
    assert isinstance(head, SumConstraint)
    assert head.lower == 1 and head.upper is None
    assert [wl.literal.atom.name for wl in head.elements] == ["p", "t"]
    body_sum = toy.rules[0].body[0].element
    assert body_sum.lower == 1 and body_sum.upper == 2
    assert body_sum.elements[2].literal == Literal(Atom("t"), negated=True)
    assert toy.rules[1].head.lower is None and toy.rules[1].head.upper == 1
    assert toy.rules[2].head == Disjunction((Atom("s"),))
    assert all(bl.negated for bl in toy.rules[2].body)


def test_toy_minimize(toy_min):
    entries = toy_min.minimize.entries
    assert len(entries) == 4
    assert all(e.weight == 1 and e.level == 1 for e in entries)
    assert [e.literal.atom.name for e in entries] == ["p", "q", "r", "s"]


def test_single_fact():
    program = parse_program("a.")
    assert program == Program((Rule(Disjunction((Atom("a"),))),))


def test_braces_expand_to_unit_weights():
    assert parse_program("1 {a, b} 2 :- c.") == \
        parse_program("1 #sum[a=1, b=1] 2 :- c.")
    assert parse_program(":- not 1 {a, not b}.") == \
        parse_program(":- not 1 #sum[a=1, not b=1].")


def test_minimize_defaults():
    program = parse_program("#minimize[a, b=2, not c=3@2].")
    assert program.minimize.entries == (
        MinimizeEntry(Literal(Atom("a")), 1, 1),
        MinimizeEntry(Literal(Atom("b")), 2, 1),
        MinimizeEntry(Literal(Atom("c"), True), 3, 2),
    )


def test_minimize_may_be_empty_and_negative():
    assert parse_program("#minimize[].").minimize == MinimizeStatement()
    entries = parse_program("#minimize[a=-2@1].").minimize.entries
    assert entries[0].weight == -2


def test_disjunction_and_constraint_heads():
    program = parse_program("a | b :- c. :- d. :-.")
    assert program.rules[0].head == Disjunction((Atom("a"), Atom("b")))
    assert program.rules[1] == Rule(Disjunction(()), (BodyLiteral(Atom("d")),))
    assert program.rules[2] == Rule(Disjunction(()))


def test_comments_and_whitespace():
    program = parse_program("% intro\n  a :- % inline\n    not b .  % end\n")
    assert program.rules[0] == Rule(
        Disjunction((Atom("a"),)), (BodyLiteral(Atom("b"), True),))


class TestParseErrors:
    def check(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert fragment in str(err.value)
        span = err.value.span
        lines = text.split("\n")
        assert 1 <= span.line <= len(lines) + 1
        assert span.column >= 1
        return err.value

    def test_variable_like_token(self):
        err = self.check("a :- Xyz.", "non-ground")
        assert (err.span.line, err.span.column) == (1, 6)

    def test_negative_sum_weight(self):
        self.check("a :- 1 #sum[b=-1].", "negative weight")

    def test_duplicate_minimize(self):
        err = self.check("#minimize[a].\n#minimize[b].", "duplicate")
        assert err.span.line == 2

    def test_missing_dot(self):
        self.check("a :- b", "expected")

    def test_unexpected_character(self):
        self.check("a ; b.", "unexpected character")

    def test_unknown_directive(self):
        self.check("#maximize[a].", "unknown directive")


#: One input per ParseError raise site, with its exact message, line and
#: column.  The positions cover a line after a % comment, a line after
#: blank lines, eof after a trailing newline and runs of tabs and
#: carriage returns (which, unlike newlines, do not start a line).
PINNED_ERRORS = [
    (parse_program, "a :- b.\n% note\nc :- Xyz.",
     "non-ground input: variable-like token 'Xyz'", 3, 6),
    (parse_program, "a.\n\n\n  b ; c.", "unexpected character ';'", 4, 5),
    (parse_program, "a :- b\n", "expected '.', found ''", 2, 1),
    (parse_program, "a :-\t\r\t\r b,\t\r 1 #sum[c=-2].",
     "negative weight in #sum constraint", 1, 24),
    (parse_program, "#minimize[a].\n% again\n#minimize[b].",
     "duplicate #minimize statement", 3, 1),
    (parse_program, "a.\n  #maximize[a].", "unknown directive '#maximize'",
     2, 3),
    (parse_criteria,
     "optimize(1,1,card).\nprefer(pos(atom(a)),\n  lit(atom(b))).",
     "expected pos(...) or neg(...) literal term", 3, 3),
    (parse_criteria, "\n\noptimize(1,2,best).", "unknown criterion 'best'",
     3, 14),
    (parse_criteria, "optimize(1,2,card). % first\noptimize(1,2,incl).",
     "conflicting criteria for level 1, weight 2", 2, 14),
    (parse_criteria, "optimize(1,1,card).\r\n\tminimize(a).",
     "expected optimize(...) or prefer(...), found 'minimize'", 2, 2),
    # Where a one-regex lexer can go wrong: a comment at eof with no
    # newline, trailing whitespace (which lexes to a second eof token),
    # a lone '#', ':' or '-', a lexical error after an earlier syntax
    # error, and no-break space, NEL and CRLF between tokens.
    (parse_program, "a :- b % end", "expected '.', found ''", 1, 13),
    (parse_program, "a :- b \n\t ", "expected '.', found ''", 2, 3),
    (parse_criteria, "optimize(1,1,card) % end", "expected '.', found ''",
     1, 25),
    (parse_program, "a :- #.", "unexpected character '#'", 1, 6),
    (parse_program, "a : b.", "unexpected character ':'", 1, 3),
    (parse_program, "a :- -.", "unexpected character '-'", 1, 6),
    (parse_criteria, "optimize(1,1,card).\n#", "unexpected character '#'",
     2, 1),
    (parse_program, "a b.\nc :- D.",
     "non-ground input: variable-like token 'D'", 2, 6),
    (parse_criteria, "optimize(1 1,card).\nprefer(X).",
     "non-ground input: variable-like token 'X'", 2, 8),
    (parse_program, "a\xa0:-\x85b,\r\nC.",
     "non-ground input: variable-like token 'C'", 2, 1),
    (parse_program, "a :- b.\n% x\n:- c d.\r\n", "expected '.', found 'd'",
     3, 6),
]


@pytest.mark.parametrize("parse, text, message, line, column", PINNED_ERRORS)
def test_error_message_and_position_are_pinned(parse, text, message, line,
                                               column):
    """``reify_source`` walks the program grammar of ``parse_program``,
    so it raises each of the same errors."""
    for read in (parse, reify_source) if parse is parse_program else (parse,):
        with pytest.raises(ParseError) as err:
            read(text)
        assert err.value.message == message
        assert (err.value.span.line, err.value.span.column) == (line, column)
        assert str(err.value) == f"{line}:{column}: {message}"


@pytest.mark.parametrize("text", ["", "   \n", "% only\n  \t", "% end"])
def test_skipped_text_alone_is_empty(text):
    assert parse_program(text) == Program()
    assert parse_criteria(text) == parse_criteria("")


def test_skipped_text_between_tokens():
    expected = parse_program("a :- b.\nc.\n")
    assert parse_program("a. % end") == parse_program("a.")
    assert parse_program("a\xa0:-\x85b.\r\nc.") == expected
    assert parse_program("a :- b. \t\n c.  \n\t") == expected
    assert parse_criteria("optimize(1,\xa01,card).\r\n\x85% c\n"
                          "optimize(2,1,incl). % end") == \
        parse_criteria("optimize(1,1,card). optimize(2,1,incl).")


def test_one_object_per_distinct_atom_literal_and_head():
    program = parse_program("a :- b, not c. a :- b, not c. "
                            "{b, not c} :- a. #minimize[b, not c].")
    first, second, choice = program.rules
    assert first.head is second.head
    assert all(x is y for x, y in zip(first.body, second.body))
    assert first.head.atoms[0] is choice.body[0].element
    assert first.body[0].element is choice.head.elements[0].literal.atom
    assert choice.head.elements[1].literal is \
        program.minimize.entries[1].literal


class TestCriteria:
    def test_single_inclusion(self):
        crit = parse_criteria("optimize(1,1,incl).")
        assert crit.relations == ((1, 1, "incl"),)
        assert crit.prefer == ()

    def test_empty_text(self):
        crit = parse_criteria("")
        assert crit.relations == () and crit.prefer == ()

    def test_pref_with_prefer_pairs(self):
        crit = parse_criteria(
            "optimize(2,1,pref). prefer(pos(atom(a)),neg(atom(b))).")
        assert crit.relations == ((2, 1, "pref"),)
        assert crit.prefer == ((Literal(Atom("a")), Literal(Atom("b"), True)),)

    def test_unknown_criterion(self):
        with pytest.raises(ParseError, match="unknown criterion"):
            parse_criteria("optimize(1,1,min).")

    def test_conflicting_criteria(self):
        with pytest.raises(ParseError, match="conflicting"):
            parse_criteria("optimize(1,1,card). optimize(1,1,incl).")

    def test_duplicate_same_criterion_tolerated(self):
        crit = parse_criteria("optimize(1,1,card). optimize(1,1,card).")
        assert crit.relations == ((1, 1, "card"),)

    def test_malformed_literal(self):
        with pytest.raises(ParseError):
            parse_criteria("prefer(atom(a),pos(atom(b))).")

    def test_negative_levels_and_weights(self):
        crit = parse_criteria("optimize(-1,-2,card).")
        assert crit.relations == ((-1, -2, "card"),)


class TestRender:
    def test_toy_round_trip(self, toy, toy_min):
        assert parse_program(render_program(toy)) == toy
        assert parse_program(render_program(toy_min)) == toy_min

    def test_empty_program(self):
        assert render_program(Program()) == ""

    def test_fact_renders_with_newline(self):
        assert render_program(parse_program("a.")) == "a.\n"

    def test_constraint_and_disjunction(self):
        text = "a | b :- c.\n:- d.\n:-.\n"
        assert render_program(parse_program(text)) == text


ATOMS = st.sampled_from([Atom(n) for n in "abcd"])
LITERALS = st.builds(Literal, ATOMS, st.booleans())
WEIGHTED = st.builds(WeightedLiteral, LITERALS, st.integers(0, 3))
SUMS = st.builds(
    SumConstraint,
    st.one_of(st.none(), st.integers(-2, 5)),
    st.lists(WEIGHTED, min_size=1, max_size=3).map(tuple),
    st.one_of(st.none(), st.integers(-2, 5)))
HEADS = st.one_of(
    st.builds(Disjunction, st.lists(ATOMS, max_size=2).map(tuple)), SUMS)
BODY_LITERALS = st.builds(
    BodyLiteral, st.one_of(ATOMS, SUMS), st.booleans())
RULES = st.builds(
    Rule, HEADS, st.lists(BODY_LITERALS, max_size=3).map(tuple))
ENTRIES = st.builds(
    MinimizeEntry, LITERALS, st.integers(-2, 3), st.integers(-1, 2))
PROGRAMS = st.builds(
    Program,
    st.lists(RULES, max_size=4).map(tuple),
    st.builds(MinimizeStatement, st.lists(ENTRIES, max_size=3).map(tuple)))


@given(PROGRAMS)
@settings(max_examples=300, deadline=None)
def test_render_parse_identity(program):
    assert parse_program(render_program(program)) == program


def _shapes(rule: Rule) -> set[str]:
    head, shapes = rule.head, set()
    if isinstance(head, SumConstraint):
        shapes.add("sum head")
    elif len(head.atoms) > 1:
        shapes.add("disjunction")
    elif not head.atoms:
        shapes.add("constraint")
    elif not rule.body:
        shapes.add("fact")
    for bl in rule.body:
        if bl.negated:
            shapes.add("negated sum" if isinstance(bl.element, SumConstraint)
                       else "negated atom")
    return shapes


def test_render_parse_identity_on_generated_programs():
    """The printer prints atom heads and atom body literals itself and
    leaves sums to their own printer; both must reparse exactly, over
    generated programs that between them have every rule shape."""
    rng = random.Random(29)
    seen: set[str] = set()
    for _ in range(400):
        program = random_program(rng, minimize=True, disjunctive=True)
        assert parse_program(render_program(program)) == program
        for rule in program.rules:
            seen |= _shapes(rule)
    assert seen == {"sum head", "disjunction", "constraint", "fact",
                    "negated sum", "negated atom"}


@given(st.text(
    alphabet=st.sampled_from("abXZ01-{}[]().,|@=#%:sumnot \n"), max_size=40))
@settings(max_examples=400, deadline=None)
def test_arbitrary_input_errors_carry_in_bounds_spans(text):
    try:
        parse_program(text)
    except ParseError as err:
        lines = text.split("\n")
        assert 1 <= err.span.line <= len(lines)
        assert 1 <= err.span.column <= len(lines[err.span.line - 1]) + 1
