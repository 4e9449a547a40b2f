"""The convention autotuner: determinism, soundness, replayability."""

import json
from pathlib import Path

import pytest

from repro.pipeline.driver import compile_program
from repro.pipeline.options import PAPER_CONFIGS
from repro.target.registers import DEFAULT_CONVENTION, split_convention
from repro.tools.warmstart import executable_digest
from repro.tuning import (
    Tuner,
    budget_candidates,
    check_report,
    compare_reports,
    full_space,
    neighbors,
    sample_space,
    small_space,
)

#: two small benchmarks keep every search here inside the CI budget
NAMES = ["calcc", "pf"]


def _stable(report):
    """A report with the wall-clock-dependent fields removed -- what a
    fixed seed must reproduce exactly."""
    data = json.loads(json.dumps(report))  # deep copy, JSON-normalised
    data.pop("wall_seconds", None)
    data.pop("engine", None)
    for cand in (
        [data["baseline"], data["winner"]]
        + data["candidates"]
    ):
        cand.pop("wall_seconds", None)
    return data


def test_candidate_spaces_are_deterministic():
    assert [c.key() for c in full_space()] == [
        c.key() for c in full_space()
    ]
    assert [c.key() for c in sample_space(6, seed=7)] == [
        c.key() for c in sample_space(6, seed=7)
    ]
    assert sample_space(6, seed=7)[0] == DEFAULT_CONVENTION
    assert any(
        c.name == "worse-noargregs" for c in small_space()
    )
    assert [c.key() for c in budget_candidates("small", 0)] == [
        c.key() for c in small_space()
    ]
    with pytest.raises(ValueError):
        budget_candidates("enormous", 0)


def test_full_space_has_no_functional_twins():
    # 5 argument-register counts x the splits that keep them
    # caller-saved: sum(21 - a for a in 0..4)
    space = full_space()
    assert len(space) == 95
    assert len({c.key() for c in space}) == 95


def test_neighbors_move_one_axis():
    for n in neighbors(DEFAULT_CONVENTION):
        assert n.key() != DEFAULT_CONVENTION.key()


def test_two_candidate_micro_search():
    cands = [DEFAULT_CONVENTION, split_convention(13, 4, name="wide")]
    result = Tuner(config="C", names=NAMES, seed=0).run(candidates=cands)
    assert len(result.evaluations) == 2
    assert not result.baseline.disqualified
    assert set(result.baseline.programs) == set(NAMES)
    # the baseline is always a finalist, so the winner can never lose
    assert result.winner.score() <= result.baseline.score()
    report = result.to_report()
    assert check_report(report) == []


def test_fixed_seed_reproduces_the_report_bit_for_bit():
    def run():
        return Tuner(config="C", names=NAMES, seed=3).run(budget="small")

    a, b = run(), run()
    assert _stable(a.to_report()) == _stable(b.to_report())
    assert a.winner.convention.key() == b.winner.convention.key()


def test_strictly_worse_candidate_never_beats_baseline():
    result = Tuner(config="C", names=NAMES, seed=0).run(budget="small")
    report = result.to_report()
    assert report["guard"] is not None
    assert report["guard"]["holds"]
    assert check_report(report) == []


def test_winner_replays_bit_identically_through_reference_pipeline():
    """Compiling the tuner-selected convention through the one-shot
    reference pipeline must reproduce the tuner's own builds exactly."""
    tuner = Tuner(config="C", names=NAMES, seed=0)
    result = tuner.run(budget="small")
    win = result.winner.convention
    options = PAPER_CONFIGS["C"].with_(convention=win)
    for name in NAMES:
        source = tuner._benches[name].source
        via_engine = tuner.engine.compile(source, options)
        reference = compile_program(source, options)
        assert executable_digest(via_engine.executable) == (
            executable_digest(reference.executable)
        )


def test_check_report_flags_violations():
    result = Tuner(config="C", names=NAMES, seed=0).run(
        candidates=[DEFAULT_CONVENTION, split_convention(9, 4)]
    )
    good = result.to_report()
    assert check_report(good) == []
    assert check_report({"schema_version": 999}) != []
    bad = json.loads(json.dumps(good))
    bad["winner"]["totals"]["cycles"] = (
        bad["baseline"]["totals"]["cycles"] + 1
    )
    assert any("worse than the baseline" in e for e in check_report(bad))
    broken = json.loads(json.dumps(good))
    broken["baseline"]["convention"]["num_arg_regs"] = 7
    assert any("convention spec invalid" in e
               for e in check_report(broken))


COMMITTED_REPORT = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "TUNE_report.json"
)


def test_compare_reports_finds_one_perturbed_count():
    committed = json.loads(COMMITTED_REPORT.read_text())
    same = json.loads(json.dumps(committed))
    # timings are not counts
    same["wall_seconds"] += 100.0
    same["baseline"]["wall_seconds"] += 1.0
    same["engine"] = {}
    assert compare_reports(committed, same) == []

    perturbed = json.loads(json.dumps(committed))
    perturbed["candidates"][1]["programs"]["as1"]["cycles"] += 1_000_000
    diffs = compare_reports(committed, perturbed)
    assert len(diffs) == 1
    assert diffs[0].startswith("candidates[1] as1 cycles:")
    assert compare_reports(perturbed, committed) != []

    for label in ("baseline", "winner"):
        moved = json.loads(json.dumps(committed))
        moved[label]["totals"]["scalar_memops"] -= 1
        assert compare_reports(committed, moved) == [
            f"{label} totals scalar_memops: committed "
            f"{committed[label]['totals']['scalar_memops']}, search "
            f"{moved[label]['totals']['scalar_memops']}"
        ]
    moved = json.loads(json.dumps(committed))
    moved["guard"]["totals"]["cycles"] += 1
    assert len(compare_reports(committed, moved)) == 1

    # a different search is not compared count by count
    other = json.loads(json.dumps(perturbed))
    other["seed"] = committed["seed"] + 1
    assert compare_reports(committed, other) == []


def test_tuner_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Tuner(config="Z")
    with pytest.raises(ValueError):
        Tuner(names=["not-a-benchmark"])
