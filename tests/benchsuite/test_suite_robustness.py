"""Argument checks of the suite runner.

Nonsense arguments are rejected up front, the same way on a serial and
a parallel sweep, and any iterable of configs is accepted.
"""

import pytest

from repro.benchsuite.harness import run_suite


def test_empty_selection_is_an_error():
    with pytest.raises(ValueError, match="[Nn]o benchmarks"):
        run_suite(("A",), names=[])


def test_unknown_name_lists_available_benchmarks():
    with pytest.raises(ValueError, match="nosuchbench"):
        run_suite(("A",), names=["nosuchbench"])


@pytest.mark.parametrize("jobs", [1, 2])
def test_unknown_config_lists_paper_configs(jobs):
    with pytest.raises(ValueError, match=r"'Z'.*'base'"):
        run_suite(("Z",), names=["nim"], jobs=jobs)


def test_nonpositive_jobs_is_an_error():
    with pytest.raises(ValueError, match="jobs"):
        run_suite(("A",), names=["nim"], jobs=0)
    with pytest.raises(ValueError, match="jobs"):
        run_suite(("A",), names=["nim"], jobs=-3)


def test_configs_may_be_a_one_shot_iterable():
    results = run_suite(
        (c for c in ("A",)), names=["nim", "map"], sim_tier="interp"
    )
    assert [sorted(r.stats) for r in results] == [["A", "base"]] * 2


def test_parallel_matches_serial_under_robustness_params():
    serial = run_suite(("A", "C"), names=["nim"], jobs=1)
    parallel = run_suite(("A", "C"), names=["nim"], jobs=2)
    assert [r.benchmark.name for r in parallel] == ["nim"]
    assert list(parallel[0].stats) == ["base", "A", "C"]
    for config in ("base", "A", "C"):
        assert parallel[0].stats[config] == serial[0].stats[config]
