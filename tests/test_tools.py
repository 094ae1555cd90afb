"""The gain rule of tools/pairs.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# median 0.505, quartiles 0.4875 and 0.5325: a quartile distance of 0.045
PARENT = [0.50, 0.52, 0.48, 0.55, 0.51, 0.49, 0.53, 0.50, 0.54, 0.47]


def shifted(delta, changed=()):
    """The parent's runs moved by delta, except pairs `changed` (index -> value)."""
    return [dict(changed).get(i, p + delta) for i, p in enumerate(PARENT)]


def test_parent_quartile_distance():
    v = pairs.gain_rule(PARENT, shifted(-0.1))
    assert v.iqr == pytest.approx(0.045)
    assert v.gap == pytest.approx(0.1)
    assert v.wins == 10 and v.holds


def test_gain_must_exceed_the_parent_quartile_distance():
    v = pairs.gain_rule(PARENT, shifted(-0.04))
    assert v.wins == 10 and v.gap == pytest.approx(0.04)
    assert not v.holds


@pytest.mark.parametrize("losses, holds", [(1, True), (2, False)])
def test_nine_tenths_of_the_pairs_must_be_won(losses, holds):
    change = shifted(-0.1, {i: PARENT[i] + 0.01 for i in range(losses)})
    v = pairs.gain_rule(PARENT, change)
    assert v.wins == 10 - losses
    assert v.gap > v.iqr
    assert v.holds is holds


@pytest.mark.parametrize("ties, holds", [(1, True), (2, False)])
def test_ties_count_for_neither_side(ties, holds):
    v = pairs.gain_rule(PARENT, shifted(-0.1, {i: PARENT[i] for i in range(ties)}))
    assert v.wins == 10 - ties
    assert v.holds is holds


def test_higher_is_better():
    assert pairs.gain_rule(PARENT, shifted(0.1), better="higher").holds
    v = pairs.gain_rule(PARENT, shifted(-0.1), better="higher")
    assert v.wins == 0 and v.gap == pytest.approx(-0.1)
    assert not v.holds
