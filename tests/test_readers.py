"""The program, criteria and fact readers against their token-stream
reference, on rendered texts and on mutations of them.  The program and
criteria readers return a value equal to the reference's, or both raise
a ParseError with the same message, line and column.  Fact text read
into label tables and decoded, ``parse_reified(text_to_facts(text))``,
is compared with the reference that reads it as term objects and
decodes those fact by fact: both return the same program, or the text
the reference rejects is rejected too, with a ParseError or a
ReifyError.  Only a malformed term in a set or wlist fact that nothing
references is rejected by the tables route alone, since it checks the
form of every fact as it reads it."""

import random

import pytest

from aspkit.core import ContractViolationError
from aspkit.parser import (
    ParseError,
    _lex,
    parse_criteria,
    parse_program,
    render_program,
)
from aspkit.reify import (
    ReifyError,
    facts_to_text,
    parse_reified,
    reify,
    reify_source,
    text_to_facts,
)
from generators import random_criteria, random_program, term_mutant
from reference import (
    reference_facts_to_text,
    reference_parse_criteria,
    reference_parse_program,
    reference_parse_reified,
    reference_text_to_facts,
)

#: Examples per reader.
EXAMPLES = 2000

#: Characters a mutation inserts: token starts, the characters a lone
#: ``#``, ``:`` or ``-`` leaves bad, uppercase and ``_``, comments, and
#: whitespace that is not a space or a newline.
ALPHABET = ("a", "b", "z", "X", "_", "0", "7", "-", ":", "#", "%", ".", ",",
            "|", "{", "}", "[", "]", "(", ")", "=", "@", ";", " ", "\n",
            "\t", "\r\n", "\xa0", "\x85", "not ", ":-", "#sum", "#minimize",
            "% note\n", "atom", "pos(", "neg(")


def mutate(rng: random.Random, text: str) -> str:
    """``text`` with one to three random insertions, deletions,
    replacements or duplications."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        end = min(len(text), at + rng.randint(1, 4))
        dice = rng.random()
        if dice < 0.35:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif dice < 0.6:
            text = text[:at] + text[end:]
        elif dice < 0.85:
            text = text[:at] + rng.choice(ALPHABET) + text[end:]
        else:
            text = text[:at] + text[at:end] + text[at:]
    return text


def render_criteria(crit) -> str:
    def term(literal):
        sign = "neg" if literal.negated else "pos"
        return f"{sign}(atom({literal.atom.name}))"

    lines = [f"optimize({level},{weight},{criterion})."
             for level, weight, criterion in crit.relations]
    lines += [f"prefer({term(first)},{term(second)})."
              for first, second in crit.prefer]
    return "\n".join(lines) + "\n"


def outcome(read, text):
    """The value read from ``text``, or the message and position of its
    parse error, or the message of its reify error."""
    try:
        return "value", read(text)
    except ParseError as err:
        return "error", err.message, err.span.line, err.span.column
    except ReifyError as err:
        return "error", str(err)


def texts(seed: int, render):
    """EXAMPLES texts: every fourth as rendered, the others mutated."""
    rng = random.Random(seed)
    for n in range(EXAMPLES):
        text = render(rng)
        yield text if n % 4 == 0 else mutate(rng, text)


def program_text(rng):
    return render_program(random_program(
        rng, minimize=True, disjunctive=rng.random() < 0.5))


def criteria_text(rng):
    program = random_program(rng, minimize=True)
    return render_criteria(random_criteria(rng, program))


def fact_text(rng):
    """A reified random program's facts, every other one with one or two
    argument terms replaced (see ``generators.term_mutant``)."""
    text = facts_to_text(reify(random_program(rng, max_rules=4,
                                              minimize=True)))
    if rng.random() < 0.5:
        return text
    return reference_facts_to_text(
        term_mutant(rng, reference_text_to_facts(text)))


def read_facts(text: str):
    return parse_reified(text_to_facts(text))


def reference_read_facts(text: str):
    return reference_parse_reified(reference_text_to_facts(text))


def same_outcome(got, expected, text) -> None:
    assert got == expected, repr(text)


def same_program(got, expected, text) -> None:
    """Equal programs, or the reference's rejection shared; a text only
    ``read_facts`` rejects reads, without the facts whose form it
    rejects, as the same program on both routes, and those are set or
    wlist facts."""
    if got[0] == expected[0]:
        assert got[0] == "error" or got == expected, repr(text)
        return
    assert got[0] == "error", repr(text)

    def malformed(fact) -> bool:
        try:
            text_to_facts(f"{fact}")
        except ParseError:
            return True
        except ReifyError:
            pass
        return False

    facts = reference_text_to_facts(text)
    bad = {fact for fact in facts if malformed(fact)}
    assert bad and {fact.predicate for fact in bad} <= {"set", "wlist"}, \
        repr(text)
    rest = reference_facts_to_text([f for f in facts if f not in bad])
    assert reference_read_facts(rest) == expected[1] == read_facts(rest), \
        repr(text)


@pytest.mark.parametrize("read, reference, render, seed, agree", [
    (parse_program, reference_parse_program, program_text, 101,
     same_outcome),
    (parse_criteria, reference_parse_criteria, criteria_text, 102,
     same_outcome),
    (read_facts, reference_read_facts, fact_text, 103, same_program),
], ids=["program", "criteria", "facts"])
def test_reader_matches_token_stream_reference(read, reference, render,
                                               seed, agree):
    kinds = set()
    for text in texts(seed, render):
        got = outcome(read, text)
        agree(got, outcome(reference, text), text)
        kinds.add(got[0])
    assert kinds == {"value", "error"}


def token_mutant(rng: random.Random, text: str) -> str:
    """``text`` as its tokens with one of them deleted, duplicated or
    swapped with another."""
    tokens = [token for token in _lex(text) if token]
    i = rng.randrange(len(tokens))
    dice = rng.random()
    if dice < 1 / 3:
        del tokens[i]
    elif dice < 2 / 3:
        tokens.insert(i, tokens[i])
    else:
        j = rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    return " ".join(tokens)


def raised(read, text):
    """The value read from ``text``, or the type and text of what
    reading it raised."""
    try:
        return "value", read(text)
    except (ParseError, ContractViolationError) as err:
        return type(err), str(err)


def test_program_text_reads_into_tables_as_parse_then_reify():
    """``reify_source`` walks the program grammar straight into label
    tables: on rendered extended and disjunctive programs, and on token
    mutants of them, it returns ``reify(parse_program(text))`` or raises
    the same exception with the same message."""
    rng = random.Random(104)
    kinds = set()
    for n in range(EXAMPLES):
        text = program_text(rng)
        if n % 4:
            text = token_mutant(rng, text)
        got = raised(reify_source, text)
        assert got == raised(lambda t: reify(parse_program(t)), text), \
            repr(text)
        kinds.add(got[0])
    assert kinds == {"value", ParseError, ContractViolationError}
