"""Diagnose a sentence: completeness and coherence come for free from exact
resource usage, so a failed derivation is diagnosed by what broke.

`diagnose` instantiates the premises and runs one proof search (two when
a failed sentence's atom count balances, see `prover.search`), which
classifies its own failure from what it saw (see `prover._classify`): an
incomplete sentence has a demand that nothing can supply, an incoherent one
leaves premises unconsumed. An entry that cannot be instantiated is
diagnosed here, since no search runs. The diagnosis types and statuses are
the prover's, and importable from here.
"""

from __future__ import annotations

from .errors import UninstantiableEntryError
from .fstruct import FStructure, sigma
from .lexicon import Lexicon, premises
from .prover import (
    INCOHERENT,
    INCOMPLETE,
    INCOMPLETE_INCOHERENT,
    OK,
    UNINSTANTIABLE,
    Demand,
    Diagnosis,
    Goal,
    Leftover,
    search,
)


def diagnose(
    root: FStructure,
    lexicon: Lexicon,
    goal: Goal | None = None,
    all_traces: bool = False,
) -> Diagnosis:
    """Search once: ok with readings, or a failure diagnosis naming the
    offending resources. Missing lexicon entries propagate as errors."""
    try:
        premise_list = premises(root, lexicon)
    except UninstantiableEntryError as exc:
        return Diagnosis(UNINSTANTIABLE, note=str(exc))
    if goal is None:
        goal = Goal(sigma(root))
    return search(premise_list, goal, all_traces=all_traces)

