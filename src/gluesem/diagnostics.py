"""Classify degenerate derivations: completeness and coherence come for free
from exact resource usage, so a failed derivation is diagnosed by what broke.

`diagnose` runs one proof search and classifies its `SearchResult`.
Incompleteness evidence: atoms some premise (or the goal) demands that nothing
can supply. Incoherence evidence: the search result's `leftover`, the
premises left unconsumed by the maximal partial derivations (greatest premise
consumption; ties and twin swaps pooled by the search). Static polarity gives
the first cut: one table keys every demanded and supplied atom by (structure,
type), and a demand counts as met when some supply matches it, not by count.
The failure frontier covers cases polarity cannot see (e.g. circularity).
"""

from __future__ import annotations

from .errors import UninstantiableEntryError
from .fstruct import FStructure, SemStructure, sigma
from .lexicon import Lexicon, Premise, premises
from .node import Node
from .prover import Goal, SearchResult, search

OK = "ok"
INCOMPLETE = "incomplete"
INCOHERENT = "incoherent"
INCOMPLETE_INCOHERENT = "incomplete+incoherent"
UNINSTANTIABLE = "uninstantiable"


class Demand(Node, needed_by=()):
    __slots__ = ()
    __match_args__ = ("sem", "ty", "needed_by")

    def __str__(self) -> str:
        where = f" needed by {', '.join(self.needed_by)}" if self.needed_by else ""
        return f"{self.sem} : {self.ty}{where}"


class Leftover(Node):
    __slots__ = ()
    __match_args__ = ("index", "word")

    def __str__(self) -> str:
        return f"{self.word}[{self.index}]"


class Diagnosis(Node, unsatisfied_demands=(), leftover_resources=(), readings=(), note=""):
    __slots__ = ()
    __match_args__ = ("status", "unsatisfied_demands", "leftover_resources", "readings", "note")

    def __str__(self) -> str:
        if self.status == OK:
            return f"ok ({len(self.readings)} reading(s))"
        parts = [self.status]
        if self.note:
            parts.append(self.note)
        if self.unsatisfied_demands:
            parts.append(
                "unsatisfied: " + "; ".join(str(d) for d in self.unsatisfied_demands)
            )
        if self.leftover_resources:
            parts.append(
                "leftover: " + ", ".join(str(l) for l in self.leftover_resources)
            )
        return "\n".join(parts)


def diagnose(
    root: FStructure,
    lexicon: Lexicon,
    goal: Goal | None = None,
    all_traces: bool = False,
) -> Diagnosis:
    """Search once and classify: ok with readings, or a failure diagnosis
    naming the offending resources. Missing lexicon entries propagate as
    errors."""
    try:
        premise_list = premises(root, lexicon)
    except UninstantiableEntryError as exc:
        return Diagnosis(UNINSTANTIABLE, note=str(exc))
    if goal is None:
        goal = Goal(sigma(root))
    result = search(premise_list, goal, all_traces=all_traces)
    if result.readings:
        return Diagnosis(OK, readings=result.readings)
    return _classify_failure(premise_list, goal, result)


def _classify_failure(
    premise_list: tuple[Premise, ...], goal: Goal, result: SearchResult
) -> Diagnosis:
    # Keyed by (structure label, or None for a structure variable, type):
    # the demanding premises' tags ("goal" first), the supplying premises' ids.
    demands: dict[tuple, list] = {(goal.sem.label, str(goal.ty)): ["goal"]}
    supplies: dict[tuple, list] = {}
    for premise in premise_list:
        for atom, positive in premise.formula.atoms():
            sem = atom.sem.label if isinstance(atom.sem, SemStructure) else None
            table, who = (supplies, premise.index) if positive else (demands, premise.tag())
            table.setdefault((sem, str(atom.ty)), []).append(who)
    demand_types = {ty for _, ty in demands}
    supply_types = {ty for _, ty in supplies}

    unsat = {k: tags for k, tags in demands.items() if not _met(k, supplies, supply_types)}
    reached = result.leftover is not None  # but only by leaving resources unused
    if reached:
        unused = result.leftover
    else:
        unused = {
            i for k, ids in supplies.items() if not _met(k, demands, demand_types) for i in ids
        }
        if not unsat and result.frontier:
            deepest = max(consumed for _, _, consumed in result.frontier)
            unsat = {(sem, ty): [] for sem, ty, n in result.frontier if n == deepest}
    words = {p.index: p.word for p in premise_list}
    leftovers = tuple(Leftover(i, words[i]) for i in sorted(unused))
    incomplete = bool(unsat) or not reached
    incoherent = reached or bool(leftovers)
    status = INCOMPLETE_INCOHERENT if incomplete and incoherent else (
        INCOMPLETE if incomplete else INCOHERENT
    )
    return Diagnosis(
        status,
        unsatisfied_demands=_demand_list(unsat),
        leftover_resources=leftovers,
    )


def _met(key: tuple, table: dict, types: set[str]) -> bool:
    """Whether some key of `table` (whose types are `types`) matches `key`;
    a None label matches any label of the same type."""
    sem, ty = key
    return ty in types if sem is None else key in table or (None, ty) in table


def _demand_list(unsat: dict) -> tuple[Demand, ...]:
    return tuple(
        Demand(sem if sem is not None else "*", ty, tuple(tags))
        for (sem, ty), tags in sorted(
            unsat.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
        )
    )
