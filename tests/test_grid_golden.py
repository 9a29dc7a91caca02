"""Reading sets over the scope grid: `give` with q quantified arguments and
k `obviously` modifiers, compared with the reading strings recorded in
`fixtures/grid_readings.json` from the engine that explored every derivation
of every reading (q <= 3, k <= 3, q + k >= 2), and with the closed form in
`oracles.py` (q <= 3, 2 <= q + k <= 6)."""

from __future__ import annotations

import json

import pytest

from gluesem.fstruct import parse_fstructure, sigma
from gluesem.lexicon import premises
from gluesem.prover import Goal, derive

from conftest import FIXTURES
from oracles import grid_readings_closed_form
from search_inputs import grid_cells, grid_fstructure

GOLDEN = json.loads((FIXTURES / "grid_readings.json").read_text(encoding="utf-8"))


def grid_readings(lexicon, q: int, k: int) -> list[str]:
    root = parse_fstructure(grid_fstructure(q, k))
    return [str(r) for r in derive(premises(root, lexicon), Goal(sigma(root)))]


def test_golden_covers_every_cell():
    assert sorted(GOLDEN) == sorted(f"q{q}k{k}" for q, k in grid_cells())


@pytest.mark.parametrize("q,k", grid_cells())
def test_grid_readings_match_golden(lexicon, q, k):
    assert grid_readings(lexicon, q, k) == GOLDEN[f"q{q}k{k}"]


def closed_form_cells():
    return [(q, k) for q in range(4) for k in range(7) if 2 <= q + k <= 6]


@pytest.mark.parametrize("q,k", closed_form_cells())
def test_grid_readings_match_closed_form(lexicon, q, k):
    assert sorted(grid_readings(lexicon, q, k)) == grid_readings_closed_form(q, k)
