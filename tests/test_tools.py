"""The gain rule of tools/pairs.py, on fixed numbers, the summary line of
tools/ladder.py on one small instance, and its check against expected
lines on fixed ones."""

import importlib.util
import json
from pathlib import Path

import pytest


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs, ladder = _load("pairs"), _load("ladder")

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


def test_ladder_summary_line():
    instances = [(2, 3, 30, 1, (1,))]       # five solves
    line, gms = ladder.summarize("one", instances, None)
    assert set(line) == {"set", "solves", "certified", "newton_steps", "worst_stationarity",
                         "largest_inner_iters", "lam_min", "comp_gap_over_gap_rel_max",
                         "trace_dip_max", "gm_digest", "hop_digest", "start_digest",
                         "problem_digest", "seconds", "dense_side_max"}
    assert line["set"] == "one"
    assert line["solves"] == line["certified"] == len(gms) == 5
    assert line["newton_steps"] > 0
    # the solver's dense block: the resource, fiber and conservation rows
    assert line["dense_side_max"] == max(sum(prob.r_blocks[1:])
                                         for _, prob, *_ in ladder.solves(instances))
    assert 0 < line["worst_stationarity"] <= 1e-6 and line["lam_min"] > 0
    assert len(line["gm_digest"]) == len(line["hop_digest"]) == len(line["problem_digest"]) == 16
    # the same GMs as reference: the bit-identity check of a refactor
    again, _ = ladder.summarize("one", instances, {"one": gms})
    assert again["gm_rel_diff_max"] == 0.0 and again["gm_compared"] == 5
    assert again["gm_digest"] == line["gm_digest"]
    assert again["hop_digest"] == line["hop_digest"]


LINE = {"set": "small", "solves": 225, "certified": 225, "newton_steps": 4788,
        "worst_stationarity": 1.2e-11, "gm_digest": "82d5c232585d1c90", "seconds": 1.4}


def test_expected_line_matches_but_for_timing_and_reference():
    line = dict(LINE, seconds=9.9, gm_rel_diff_max=1e-15, gm_compared=225)
    assert ladder.differences(line, LINE) == []


def test_expected_line_names_set_and_key():
    line = dict(LINE, gm_digest="0000000000000000", newton_steps=4789)
    assert ladder.differences(line, LINE) == [
        "small: gm_digest is '0000000000000000', expected '82d5c232585d1c90'",
        "small: newton_steps is 4789, expected 4788"]


def test_expected_line_missing_or_extra_key_differs():
    extra = dict(LINE, lam_min=2e-9)
    assert ladder.differences(extra, LINE) == ["small: lam_min is 2e-09, expected None"]
    assert ladder.differences(LINE, extra) == ["small: lam_min is None, expected 2e-09"]
    assert len(ladder.differences(LINE, {})) == len(LINE) - 1     # all but seconds


def test_expect_exits_one_on_a_difference(tmp_path, monkeypatch, capsys):
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({"one": dict(LINE, set="one")}))
    monkeypatch.setitem(ladder.SETS, "one", [])
    monkeypatch.setattr(ladder, "summarize",
                        lambda name, instances, reference: (dict(LINE, set=name), {}))
    assert ladder.main(["--sets", "one", "--expect", str(expected)]) == 0
    monkeypatch.setattr(ladder, "summarize",
                        lambda name, instances, reference: (dict(LINE, set=name, solves=5), {}))
    assert ladder.main(["--sets", "one", "--expect", str(expected)]) == 1
    assert "ladder: one: solves is 5, expected 225" in capsys.readouterr().err
