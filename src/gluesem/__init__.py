"""Assemble sentence meanings from LFG f-structures by linear-logic deduction
over lexically contributed meaning constructors."""

from .semtypes import ArrowType, BaseType, E, SemType, T, arrow, parse_type
from .terms import (
    App,
    BoundVar,
    Const,
    HypConst,
    Lam,
    MeaningTerm,
    Var,
    apply,
    canonical_form,
    equivalent,
    format_term,
    normalize,
    typecheck,
)
from .termsyntax import parse_term
from .fstruct import (
    FStructure,
    SemStructure,
    format_fstructure,
    parse_fstructure,
    resolve_path,
    sigma,
)
from .formulas import (
    Atom,
    Forall,
    GlueFormula,
    Limp,
    MeaningVar,
    PathRef,
    SemVar,
    Tensor,
    flatten_tensor,
)
from .lexicon import (
    LexicalEntry,
    Lexicon,
    Premise,
    instantiate,
    parse_lexicon,
    premises,
)
from .prover import Goal, Reading, TraceStep, derive, entails, prop, unify
from .diagnostics import Demand, Diagnosis, Leftover, diagnose
from . import errors

# The command-line driver's names; it imports argparse and json, which a
# library caller never needs, so it is imported when one is first read.
_CLI_NAMES = ("RunConfig", "run")

__all__ = sorted([name for name in dir() if not name.startswith("_")] + [*_CLI_NAMES, "cli"])


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
