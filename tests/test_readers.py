"""The program, criteria and fact readers against their token-stream
reference: on rendered texts and on mutations of them, each reader
returns a value equal to the reference's, or both raise a ParseError
with the same message, line and column."""

import random

import pytest

from aspkit.parser import ParseError, parse_criteria, parse_program, render_program
from aspkit.reify import facts_to_text, reify, text_to_facts
from generators import random_criteria, random_program
from reference import (
    reference_parse_criteria,
    reference_parse_program,
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
    parse error."""
    try:
        return "value", read(text)
    except ParseError as err:
        return "error", err.message, err.span.line, err.span.column


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
    return facts_to_text(reify(random_program(rng, max_rules=4,
                                              minimize=True)))


@pytest.mark.parametrize("read, reference, render, seed", [
    (parse_program, reference_parse_program, program_text, 101),
    (parse_criteria, reference_parse_criteria, criteria_text, 102),
    (text_to_facts, reference_text_to_facts, fact_text, 103),
], ids=["program", "criteria", "facts"])
def test_reader_matches_token_stream_reference(read, reference, render,
                                               seed):
    kinds = set()
    for text in texts(seed, render):
        got = outcome(read, text)
        assert got == outcome(reference, text), repr(text)
        kinds.add(got[0])
    assert kinds == {"value", "error"}
