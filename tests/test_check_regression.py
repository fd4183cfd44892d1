"""Tests for the perf-regression gate (``benchmarks/check_regression.py``).

The gate's contract after the pipeline benchmark landed: baselined ratios
missing from the fresh results warn instead of failing for the
``OPTIONAL_FRESH`` benchmarks (those that legitimately skip on starved
runners), still fail hard for the always-run core benchmarks, and
``--strict`` makes even the optional ones fail.  Real regressions always
fail.
"""

import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                 "check_regression.py"),
)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


def _write(directory, filename, payload):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, filename), "w", encoding="utf-8") as f:
        json.dump(payload, f)


@pytest.fixture
def dirs(tmp_path):
    fresh = tmp_path / "fresh"
    baselines = tmp_path / "baselines"
    fresh.mkdir()
    baselines.mkdir()
    return str(fresh), str(baselines)


def _seed_serve(fresh, baselines, fresh_factor=1.0):
    _write(baselines, "BENCH_serve.json",
           {"modes": {"thread": {"speedup": 6.0},
                      "process": {"speedup": 9.0}}})
    _write(fresh, "BENCH_serve.json",
           {"modes": {"thread": {"speedup": 6.0 * fresh_factor},
                      "process": {"speedup": 9.0 * fresh_factor}}})


class TestMissingFreshResults:
    def test_baselined_file_missing_from_fresh_warns_not_fails(self, dirs):
        fresh, baselines = dirs
        _seed_serve(fresh, baselines)
        _write(baselines, "BENCH_pipeline.json", {"pipeline_speedup": 1.5})
        # No fresh BENCH_pipeline.json — the benchmark skipped itself.
        lines, failures = check_regression.compare(fresh, baselines)
        assert not failures
        assert any("WARNING" in line and "BENCH_pipeline.json" in line
                   for line in lines)

    def test_baselined_key_missing_from_fresh_warns_not_fails(self, dirs):
        fresh, baselines = dirs
        _seed_serve(fresh, baselines)
        _write(baselines, "BENCH_pipeline.json", {"pipeline_speedup": 1.5})
        _write(fresh, "BENCH_pipeline.json", {"stages": 3})  # ratio absent
        lines, failures = check_regression.compare(fresh, baselines)
        assert not failures
        assert any("WARNING" in line and "pipeline_speedup" in line
                   for line in lines)

    def test_strict_restores_hard_failure(self, dirs):
        fresh, baselines = dirs
        _seed_serve(fresh, baselines)
        _write(baselines, "BENCH_pipeline.json", {"pipeline_speedup": 1.5})
        _, failures = check_regression.compare(fresh, baselines, strict=True)
        assert any("BENCH_pipeline.json" in failure for failure in failures)

    def test_core_benchmark_missing_from_fresh_still_fails(self, dirs):
        # Only the OPTIONAL_FRESH benchmarks may skip: an unmeasured core
        # file (filtered run, renamed key) must keep failing loudly, or the
        # gate silently stops guarding the serve ratios.
        fresh, baselines = dirs
        _seed_serve(fresh, baselines)
        os.remove(os.path.join(fresh, "BENCH_serve.json"))
        _, failures = check_regression.compare(fresh, baselines)
        assert any("BENCH_serve.json" in failure for failure in failures)

    def test_core_key_missing_from_fresh_still_fails(self, dirs):
        fresh, baselines = dirs
        _seed_serve(fresh, baselines)
        _write(fresh, "BENCH_serve.json",  # thread key renamed
               {"modes": {"threads": {"speedup": 6.0},
                          "process": {"speedup": 9.0}}})
        _, failures = check_regression.compare(fresh, baselines)
        assert any("modes.thread.speedup" in failure for failure in failures)

    def test_optional_set_only_lists_skippable_benchmarks(self):
        assert check_regression.OPTIONAL_FRESH <= set(
            check_regression.GUARDED_RATIOS)

    def test_nothing_compared_still_fails(self, dirs):
        fresh, baselines = dirs
        for filename in check_regression.GUARDED_RATIOS:
            _write(baselines, filename, {"anything": 1.0})
        _, failures = check_regression.compare(fresh, baselines)
        assert any("no ratios compared" in failure for failure in failures)


class TestRegressionDetection:
    def test_healthy_ratios_pass(self, dirs):
        fresh, baselines = dirs
        _seed_serve(fresh, baselines, fresh_factor=1.0)
        _write(baselines, "BENCH_pipeline.json", {"pipeline_speedup": 1.5})
        _write(fresh, "BENCH_pipeline.json", {"pipeline_speedup": 2.2})
        lines, failures = check_regression.compare(fresh, baselines)
        assert not failures
        assert any("pipeline_speedup" in line and "ok" in line
                   for line in lines)

    def test_regressed_pipeline_ratio_fails(self, dirs):
        fresh, baselines = dirs
        _seed_serve(fresh, baselines)
        _write(baselines, "BENCH_pipeline.json", {"pipeline_speedup": 3.0})
        _write(fresh, "BENCH_pipeline.json", {"pipeline_speedup": 1.0})
        _, failures = check_regression.compare(fresh, baselines)
        assert any("pipeline_speedup regressed" in failure
                   for failure in failures)

    def test_regressed_existing_ratio_still_fails(self, dirs):
        fresh, baselines = dirs
        _seed_serve(fresh, baselines, fresh_factor=0.4)
        _, failures = check_regression.compare(fresh, baselines)
        assert failures

    def test_committed_baselines_cover_every_guarded_file(self):
        baseline_dir = os.path.join(os.path.dirname(__file__), os.pardir,
                                    "benchmarks", "baselines")
        for filename in check_regression.GUARDED_RATIOS:
            assert os.path.exists(os.path.join(baseline_dir, filename)), (
                f"{filename} has guarded ratios but no committed baseline")
