"""``benchmarks/studies.py``'s table cells: one tree's quartiles, and two
trees' runs paired rep by rep."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "studies.py"


@pytest.fixture(scope="module")
def studies():
    spec = importlib.util.spec_from_file_location("studies", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_cell_is_median_then_interquartile_range(studies):
    assert studies._quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == "3 [2–4]"
    assert studies._quartiles([1234.0, 1234.0]) == "1234 [1234–1234]"


@pytest.mark.parametrize(
    "better, wins", [("lower", "2/3"), ("higher", "1/3")],
)
def test_paired_cells_count_wins_in_the_better_direction(studies, better, wins):
    parent, change = [10.0, 20.0, 40.0], [5.0, 30.0, 20.0]
    # ratios 0.5, 1.5, 0.5: the median of the pairs, not a ratio of medians
    assert studies._paired(parent, change, better) == ["0.500", wins]
