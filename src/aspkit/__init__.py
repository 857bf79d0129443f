"""Toolkit for ground extended logic programs: answer sets, reification,
complex preference optimization, and saturation-based check programs."""

from .core import (
    Atom,
    BodyLiteral,
    CapExceededError,
    ContractViolationError,
    CriteriaSet,
    Disjunction,
    Interpretation,
    Literal,
    MinimizeEntry,
    MinimizeStatement,
    Program,
    Rule,
    SumConstraint,
    WeightedLiteral,
    atoms,
    normalize,
)
from .parser import ParseError, SourceSpan, parse_criteria, parse_program, render_program
from .semantics import enumerate_answer_sets, is_answer_set
from .consequence import is_supported_model, sccs, wait_levels
from .reify import ReifiedFact, ReifyError, facts_to_text, parse_reified, text_to_facts
from .optimize import default_optimal, dominates, optimal_answer_sets
from .metaenc import build_meta_program, crosscheck, effective_criteria, solve_meta

__version__ = "0.1.0"
