"""Classify degenerate derivations: completeness and coherence come for free
from exact resource usage, so a failed derivation is diagnosed by what broke.

`diagnose` runs one proof search and classifies its `SearchResult`.
Incompleteness evidence: atoms some premise (or the goal) demands that nothing
can supply. Incoherence evidence: the search result's `leftover`, the
premises left unconsumed by the maximal partial derivations (greatest premise
consumption; ties and twin swaps pooled by the search). Static
demand/supply polarity gives the first cut; the search result's failure
frontier covers cases polarity cannot see (e.g. circular dependencies).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UninstantiableEntryError
from .formulas import Atom, Forall, GlueFormula, Limp, Tensor
from .fstruct import FStructure, SemStructure, sigma
from .lexicon import Lexicon, PremiseSet, premises
from .prover import Goal, Reading, SearchResult, search

OK = "ok"
INCOMPLETE = "incomplete"
INCOHERENT = "incoherent"
INCOMPLETE_INCOHERENT = "incomplete+incoherent"
UNINSTANTIABLE = "uninstantiable"


@dataclass(frozen=True)
class Demand:
    sem: str
    ty: str
    needed_by: tuple[str, ...] = ()

    def __str__(self) -> str:
        where = f" needed by {', '.join(self.needed_by)}" if self.needed_by else ""
        return f"{self.sem} : {self.ty}{where}"


@dataclass(frozen=True)
class Leftover:
    index: int
    word: str

    def __str__(self) -> str:
        return f"{self.word}[{self.index}]"


@dataclass(frozen=True)
class Diagnosis:
    status: str
    unsatisfied_demands: tuple[Demand, ...] = ()
    leftover_resources: tuple[Leftover, ...] = ()
    readings: tuple[Reading, ...] = ()
    note: str = ""

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


def _polarized_atoms(formula: GlueFormula, positive: bool = True):
    match formula:
        case Atom():
            yield formula, positive
        case Tensor(left, right):
            yield from _polarized_atoms(left, positive)
            yield from _polarized_atoms(right, positive)
        case Limp(antecedent, consequent):
            yield from _polarized_atoms(antecedent, not positive)
            yield from _polarized_atoms(consequent, positive)
        case Forall(_, body):
            yield from _polarized_atoms(body, positive)


def _atom_key(atom: Atom):
    sem = atom.sem.label if isinstance(atom.sem, SemStructure) else None  # None: any
    return sem, str(atom.ty)


def _keys_match(demand_key, supply_key) -> bool:
    (d_sem, d_ty), (s_sem, s_ty) = demand_key, supply_key
    if d_ty != s_ty:
        return False
    return d_sem is None or s_sem is None or d_sem == s_sem


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
        premise_set = premises(root, lexicon)
    except UninstantiableEntryError as exc:
        return Diagnosis(UNINSTANTIABLE, note=str(exc))
    if goal is None:
        goal = Goal(sigma(root))
    result = search(premise_set, goal, all_traces=all_traces)
    if result.readings:
        return Diagnosis(OK, readings=result.readings)
    return _classify_failure(premise_set, goal, result)


def _classify_failure(
    premise_set: PremiseSet, goal: Goal, result: SearchResult
) -> Diagnosis:
    demands: list[tuple[tuple, str]] = [((goal.sem.label, str(goal.ty)), "goal")]
    supplies: list[tuple[tuple, object]] = []
    for premise in premise_set:
        for atom, positive in _polarized_atoms(premise.formula):
            if positive:
                supplies.append((_atom_key(atom), premise))
            else:
                demands.append((_atom_key(atom), premise.tag()))

    unsat: dict[tuple, list[str]] = {}
    for key, tag in demands:
        if not any(_keys_match(key, s_key) for s_key, _ in supplies):
            unsat.setdefault(key, []).append(tag)
    unused: dict[int, object] = {}
    for key, premise in supplies:
        if not any(_keys_match(d_key, key) for d_key, _ in demands):
            unused.setdefault(premise.index, premise)

    if result.leftover is not None:
        # The goal is reachable but only by leaving resources unused.
        by_index = {p.index: p for p in premise_set}
        leftovers = tuple(
            Leftover(i, by_index[i].word) for i in sorted(result.leftover)
        )
        status = INCOMPLETE_INCOHERENT if unsat else INCOHERENT
        return Diagnosis(
            status,
            unsatisfied_demands=_demand_list(unsat),
            leftover_resources=leftovers,
        )

    # No partial derivation reaches the goal at all: incomplete.
    if not unsat and result.frontier:
        deepest = max(consumed for _, _, consumed in result.frontier)
        for sem, ty, consumed in result.frontier:
            if consumed == deepest:
                unsat.setdefault((sem, ty), [])
    leftovers = tuple(
        Leftover(i, p.word) for i, p in sorted(unused.items())
    )
    status = INCOMPLETE_INCOHERENT if leftovers else INCOMPLETE
    return Diagnosis(
        status,
        unsatisfied_demands=_demand_list(unsat),
        leftover_resources=leftovers,
    )


def _demand_list(unsat: dict) -> tuple[Demand, ...]:
    return tuple(
        Demand(sem if sem is not None else "*", ty, tuple(tags))
        for (sem, ty), tags in sorted(
            unsat.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
        )
    )
