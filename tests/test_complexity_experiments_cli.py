"""Tests for the complexity registry, experiment harness, and CLI."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.cli import main
from repro.complexity import ENTRIES, Problem, Space, lookup, render_table
from repro.experiments import bench
from repro.experiments.figures import (
    ALL_FIGURES,
    FigureSweepTask,
    figure5_workload,
    figure6_workload,
)
from repro.experiments.runner import SweepResult, run_sweep, time_callable
from repro.experiments.tables import render_results_table, render_table1


def _passing_row(name: str, **values) -> dict:
    """A fake measurement of *name* on 4 cpus that clears every floor."""
    row = {floor.metric: 100.0 for floor in bench.FLOORS[name]}
    row["cpus"] = 4
    row.update(values)
    return row


@pytest.fixture
def fake_measure(monkeypatch):
    """Script a workload's measurements; returns the list of calls made.

    ``fake_measure(name, *rows)`` makes each later measurement of *name*
    return the next row, with no timing involved.
    """
    calls: list[str] = []

    def install(name: str, *rows: dict) -> list[str]:
        queue = iter(rows)

        def measure(seed, repeats):
            calls.append(name)
            return dict(next(queue))

        monkeypatch.setitem(bench.WORKLOADS, name, measure)
        calls.clear()
        return calls

    return install


class TestComplexityRegistry:
    def test_every_cell_resolvable(self):
        for problem in Problem:
            for space in Space:
                for k in (1, 3):
                    entry = lookup(problem, space, k)
                    assert entry.complexity
                    assert entry.provenance

    def test_table1_paper_values(self):
        """Spot-check the registry against the paper's Table 1."""
        assert lookup(Problem.COUNTERFACTUAL, Space.L2, 5).complexity == "P"
        assert lookup(Problem.COUNTERFACTUAL, Space.L1, 1).complexity == "NP-complete"
        assert lookup(Problem.CHECK_SR, Space.L1, 3).complexity == "coNP-complete"
        assert lookup(Problem.CHECK_SR, Space.HAMMING, 1).complexity == "P"
        assert lookup(Problem.MINIMUM_SR, Space.HAMMING, 3).complexity == "Sigma2p-complete"
        assert "open" in lookup(Problem.MINIMUM_SR, Space.L1, 3).complexity

    def test_render_table_mentions_all_spaces(self):
        table = render_table()
        for space in Space:
            assert space.value in table
        assert "Theorem 2" in table
        assert table == render_table1()

    def test_entries_have_solver_pointers(self):
        for entry in ENTRIES:
            assert entry.solver.startswith("repro.")


class TestRunner:
    def test_time_callable(self):
        timing = time_callable(lambda: sum(range(1000)), repeats=2)
        assert timing["repeats"] == 2
        assert timing["min"] <= timing["median"] <= timing["max"]
        assert "truncated" not in timing  # only budgeted rows carry the flag

    def test_time_callable_budget_truncates(self):
        import time as _time

        timing = time_callable(
            lambda: _time.sleep(0.02), repeats=50, budget=0.01
        )
        assert timing["repeats"] == 1  # one run always happens, then stop
        assert timing["truncated"] is True

    def test_time_callable_budget_not_hit(self):
        timing = time_callable(lambda: None, repeats=2, budget=60.0)
        assert timing["repeats"] == 2
        assert timing["truncated"] is False

    def test_run_sweep_budget_reaches_rows(self):
        grid = [{"n": 1}, {"n": 2}]
        result = run_sweep(
            "budgeted", grid, lambda p: (lambda: None), repeats=2, budget=60.0
        )
        assert all(row["truncated"] is False for row in result.rows)

    def test_run_sweep_and_series(self):
        grid = [{"n": n, "N": N} for n in (1, 2) for N in (10, 20)]
        result = run_sweep("demo", grid, lambda p: (lambda: p["n"] * p["N"]), repeats=1)
        assert len(result.rows) == 4
        series = result.series("n", "N")
        assert set(series) == {10, 20}
        assert series[10][0] == [1, 2]

    def test_render_results_table(self):
        result = SweepResult("demo")
        result.add({"n": 1, "N": 10}, {"median": 0.001, "min": 0.001, "max": 0.001, "repeats": 1})
        result.add({"n": 2, "N": 10}, {"median": 0.002, "min": 0.002, "max": 0.002, "repeats": 1})
        text = render_results_table(result)
        assert "demo" in text
        assert "1.0ms" in text and "2.0ms" in text


class TestFigureWorkloads:
    def test_all_figures_registered(self):
        assert set(ALL_FIGURES) == {"fig5a", "fig5b", "fig6a", "fig6b"}
        for spec in ALL_FIGURES.values():
            grid = list(spec.grid())
            assert grid and all("n" in p and "N" in p for p in grid)

    def test_figure5_task_runs(self, rng):
        task = figure5_workload(rng, 8, 10, method="hamming-milp")
        result = task()
        assert result.found

    def test_figure5_sat_task_runs(self, rng):
        task = figure5_workload(rng, 8, 10, method="hamming-sat")
        assert task().found

    def test_figure6_tasks_run(self, rng):
        msr = figure6_workload(rng, 6, 8, task_kind="msr-l1")()
        assert isinstance(msr, frozenset)
        cf = figure6_workload(rng, 6, 8, task_kind="cf-l2")()
        assert cf.found

    def test_figure6_bad_kind(self, rng):
        with pytest.raises(ValueError):
            figure6_workload(rng, 6, 8, task_kind="nope")


class TestFigureSweepTask:
    def test_picklable_and_deterministic(self):
        task_factory = FigureSweepTask("fig6a", seed=5)
        clone = pickle.loads(pickle.dumps(task_factory))
        assert (clone.figure_id, clone.seed) == ("fig6a", 5)
        task = clone({"n": 6, "N": 16})
        assert callable(task)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            FigureSweepTask("fig9z")

    def test_parallel_sweep_over_figure_grid(self):
        grid = [{"n": 6, "N": 16}, {"n": 6, "N": 24}]
        result = run_sweep(
            "fig6a-slice", grid, FigureSweepTask("fig6a", seed=1),
            repeats=1, workers=2,
        )
        assert [row["N"] for row in result.rows] == [16, 24]


class TestBenchHarness:
    def test_compare_gates_only_headline(self):
        baseline = {"workloads": {bench.HEADLINE: {"speedup": 10.0}}}
        ok = {"workloads": {bench.HEADLINE: {"speedup": 8.0}}}
        bad = {"workloads": {bench.HEADLINE: {"speedup": 7.0}}}
        assert bench.compare(ok, baseline, max_regression=0.25) == []
        failures = bench.compare(bad, baseline, max_regression=0.25)
        assert len(failures) == 1 and "regressed" in failures[0]

    def test_compare_missing_headline(self):
        assert bench.compare({}, {"workloads": {}})
        assert bench.compare(
            {"workloads": {}}, {"workloads": {bench.HEADLINE: {"speedup": 1.0}}}
        )

    def test_floor_table_holds_every_threshold(self):
        table = {
            name: [(f.metric, f.value, f.min_cpus) for f in floors]
            for name, floors in bench.FLOORS.items()
        }
        assert table == {
            "engine_batch": [("speedup", 10.0, 0)],
            "hamming_bitpack": [("speedup", 3.0, 0)],
            "msr_incremental": [("speedup", 3.0, 0)],
            "serve_throughput": [("speedup", 3.0, 0)],
            "serve_scaleout": [("speedup", 3.0, 0), ("throughput_ratio", 3.0, 4)],
            "portfolio_parallel": [("speedup", 2.0, 4)],
            "streaming_updates": [("speedup", 3.0, 0)],
            "million_point": [("speedup", 6.0, 0)],
            "scenario_multiclass": [("speedup", 1.5, 0)],
        }
        assert bench.GATED_HEADLINES == tuple(bench.FLOORS)
        assert bench.HEADLINE == "engine_batch"

    @pytest.mark.parametrize(
        "name, floor",
        [(name, floor) for name, floors in bench.FLOORS.items() for floor in floors],
    )
    def test_floor_boundary(self, name, floor, fake_measure):
        calls = fake_measure(name)  # attempts=1: nothing may be re-measured
        at = {"workloads": {name: _passing_row(name, **{floor.metric: floor.value})}}
        assert bench.compare_with_retry(at, attempts=1) == []
        below = np.nextafter(floor.value, 0.0)
        just_below = {"workloads": {name: _passing_row(name, **{floor.metric: below})}}
        failures = bench.compare_with_retry(just_below, attempts=1)
        assert len(failures) == 1
        assert f"{name} {floor.metric}" in failures[0] and "floor" in failures[0]
        assert calls == []

    @pytest.mark.parametrize(
        "name, metric",
        [("portfolio_parallel", "speedup"), ("serve_scaleout", "throughput_ratio")],
    )
    def test_cpu_conditional_floor_skipped_below_4_cpus(self, name, metric, fake_measure):
        calls = fake_measure(name, *[_passing_row(name, **{metric: 1.0})] * 2)
        slow = _passing_row(name, **{metric: 1.0, "cpus": 3})
        payload = {"workloads": {name: slow}}
        assert bench.compare_with_retry(payload) == []
        assert calls == [] and payload["workloads"][name]["attempts"] == 1
        payload = {"workloads": {name: _passing_row(name, **{metric: 1.0})}}
        failures = bench.compare_with_retry(payload)
        assert len(failures) == 1 and metric in failures[0]
        assert calls == [name, name]

    def test_gate_retries_until_pass(self, fake_measure):
        calls = fake_measure(
            "engine_batch", {"speedup": 7.0}, {"speedup": 12.0}, {"speedup": 50.0}
        )
        payload = {"workloads": {"engine_batch": {"speedup": 5.0}}}
        assert bench.compare_with_retry(payload) == []
        assert payload["workloads"]["engine_batch"] == {"speedup": 12.0, "attempts": 3}
        assert calls == ["engine_batch"] * 2

    def test_gate_keeps_best_failure(self, fake_measure):
        calls = fake_measure(
            "engine_batch", {"speedup": 8.0}, {"speedup": 6.0}, {"speedup": 50.0}
        )
        payload = {"workloads": {"engine_batch": {"speedup": 5.0}}}
        failures = bench.compare_with_retry(payload)
        assert len(failures) == 1 and "8.00x is below its 10x floor" in failures[0]
        assert payload["workloads"]["engine_batch"] == {"speedup": 8.0, "attempts": 3}
        assert calls == ["engine_batch"] * 2

    def test_gate_remeasures_baseline_regressions(self, fake_measure):
        baseline = {"workloads": {"engine_batch": {"speedup": 100.0}}}
        calls = fake_measure("engine_batch", {"speedup": 60.0}, {"speedup": 40.0})
        payload = {"workloads": {"engine_batch": {"speedup": 50.0}}}
        failures = bench.compare_with_retry(payload, baseline, max_regression=0.25)
        assert len(failures) == 1 and "regressed" in failures[0]
        assert payload["workloads"]["engine_batch"] == {"speedup": 60.0, "attempts": 3}
        assert calls == ["engine_batch"] * 2
        calls = fake_measure("engine_batch", {"speedup": 80.0})
        payload = {"workloads": {"engine_batch": {"speedup": 50.0}}}
        assert bench.compare_with_retry(payload, baseline, max_regression=0.25) == []
        assert payload["workloads"]["engine_batch"]["speedup"] == 80.0
        assert calls == ["engine_batch"]

    def test_gate_prefers_fewest_failed_checks(self, fake_measure):
        # A re-measurement that passes replaces a faster one that fails.
        passing = _passing_row("serve_scaleout", speedup=4.0)
        calls = fake_measure("serve_scaleout", passing)
        failing = _passing_row("serve_scaleout", speedup=8.0, throughput_ratio=1.0)
        payload = {"workloads": {"serve_scaleout": failing}}
        assert bench.compare_with_retry(payload) == []
        assert payload["workloads"]["serve_scaleout"]["speedup"] == 4.0
        assert calls == ["serve_scaleout"]

    def test_baseline_gate_covers_only_measured_workloads(self, fake_measure):
        # A one-workload run against a full baseline re-measures nothing
        # it did not run, and the unmeasured headlines cannot fail it.
        baseline = {"workloads": {name: {"speedup": 10.0} for name in bench.FLOORS}}
        for name in bench.FLOORS:
            calls = fake_measure(name, *[_passing_row(name)] * 3)
        payload = {"workloads": {"msr_incremental": {"speedup": 9.0}}}
        assert bench.compare_with_retry(payload, baseline, max_regression=0.25) == []
        assert calls == []
        assert set(payload["workloads"]) == {"msr_incremental"}

    def test_render_report_shows_floors_and_verdicts(self):
        payload = {
            "workloads": {
                "engine_batch": {"speedup": 9.0, "attempts": 3},
                "portfolio_parallel": {"speedup": 1.1, "cpus": 2},
                "kdtree_lowdim": {"speedup": 4.0},
            }
        }
        rows = {
            line.split(" | ")[0].lstrip("| "): line
            for line in bench.render_report(payload).splitlines()
        }
        assert "| ≥ 10x | FAIL (best of 3) |" in rows["engine_batch"]
        assert "| ≥ 2x at 4+ cpus, skipped: 2 cpus | pass |" in rows["portfolio_parallel"]
        assert "| — | — |" in rows["kdtree_lowdim"]

    def test_collect_subset_and_render(self):
        payload = bench.collect(repeats=1, workloads=["kdtree_lowdim"])
        assert payload["schema"] == bench.BENCH_SCHEMA
        assert set(payload["workloads"]) == {"kdtree_lowdim"}
        report = bench.render_report(payload)
        assert "kdtree_lowdim" in report
        with pytest.raises(ValueError):
            bench.collect(workloads=["nope"])

    def test_secondary_headline_gated_when_in_baseline(self):
        secondary = bench.GATED_HEADLINES[1]
        baseline = {"workloads": {
            bench.HEADLINE: {"speedup": 10.0}, secondary: {"speedup": 10.0},
        }}
        bad = {"workloads": {
            bench.HEADLINE: {"speedup": 9.0}, secondary: {"speedup": 2.0},
        }}
        failures = bench.compare(bad, baseline, max_regression=0.25)
        assert len(failures) == 1 and secondary in failures[0]

    def test_secondary_headline_skipped_for_old_baselines(self):
        baseline = {"workloads": {bench.HEADLINE: {"speedup": 10.0}}}
        current = {"workloads": {bench.HEADLINE: {"speedup": 9.0}}}
        assert bench.compare(current, baseline, max_regression=0.25) == []

    def test_measure_msr_incremental_is_registered(self):
        assert "msr_incremental" in bench.WORKLOADS
        assert "msr_incremental" in bench.GATED_HEADLINES


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "(R, D_2)" in out

    def test_explain(self, capsys):
        assert main(["explain", "--dimension", "6", "--size", "12", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "minimal sufficient reason" in out
        assert "counterfactual" in out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig9z"]) == 2

    def test_figure_tiny_run(self, capsys, tmp_path):
        # Shrink the grid by monkey-free means: run the smallest figure with
        # one repeat; fig6a's smallest cells are fast enough for a test.
        json_path = tmp_path / "BENCH_fig6a.json"
        assert main(
            ["figure", "fig6a", "--repeats", "1", "--seed", "1", "--json", str(json_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "fig6a" in out
        payload = json.loads(json_path.read_text())
        assert payload["rows"] and "median" in payload["rows"][0]

    def test_explain_backend_flag(self, capsys):
        assert main(
            ["explain", "--dimension", "6", "--size", "12", "--seed", "3",
             "--backend", "bitpack"]
        ) == 0
        out = capsys.readouterr().out
        assert "engine backend: bitpack" in out

    def test_bench_json_no_baseline(self, capsys, tmp_path):
        json_path = tmp_path / "BENCH_pr.json"
        assert main(
            ["bench", "--workloads", "kdtree_lowdim", "--repeats", "1",
             "--json", str(json_path)]
        ) == 0
        payload = json.loads(json_path.read_text())
        assert "kdtree_lowdim" in payload["workloads"]

    def test_bench_floor_miss_exits_1_without_baseline(self, capsys, fake_measure):
        fake_measure("engine_batch", *[{"speedup": 2.0}] * 3)
        assert main(["bench", "--workloads", "engine_batch"]) == 1
        captured = capsys.readouterr()
        assert "FAIL (best of 3)" in captured.out
        assert "FAIL: engine_batch speedup 2.00x is below its 10x floor" in captured.err

    def test_bench_regression_gate_fails(self, capsys, tmp_path, fake_measure):
        # Above the 10x floor, so only the baseline can fail the run.
        fake_measure("engine_batch", *[{"speedup": 20.0}] * 3)
        baseline_path = tmp_path / "BENCH_baseline.json"
        baseline_path.write_text(
            json.dumps({"workloads": {bench.HEADLINE: {"speedup": 10_000.0}}})
        )
        code = main(
            ["bench", "--workloads", "engine_batch", "--repeats", "1",
             "--baseline", str(baseline_path)]
        )
        assert code == 1

    def test_bench_regression_gate_passes(self, capsys, tmp_path, fake_measure):
        fake_measure("engine_batch", {"speedup": 20.0})
        baseline_path = tmp_path / "BENCH_baseline.json"
        baseline_path.write_text(
            json.dumps({"workloads": {bench.HEADLINE: {"speedup": 0.001}}})
        )
        assert main(
            ["bench", "--workloads", "engine_batch", "--repeats", "1",
             "--baseline", str(baseline_path)]
        ) == 0
        assert "regression gate passed" in capsys.readouterr().out

    def test_bench_missing_baseline_one_line_error(self, capsys, tmp_path):
        missing = tmp_path / "nope" / "BENCH_baseline.json"
        code = main(["bench", "--workloads", "kdtree_lowdim", "--repeats", "1",
                     "--baseline", str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read baseline")
        assert "Traceback" not in err

    def test_bench_malformed_baseline_one_line_error(self, capsys, tmp_path):
        bad = tmp_path / "BENCH_baseline.json"
        bad.write_text("{not json")
        code = main(["bench", "--workloads", "kdtree_lowdim", "--repeats", "1",
                     "--baseline", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: baseline") and "not valid JSON" in err

    def test_bench_wrong_shape_baseline_one_line_error(self, capsys, tmp_path):
        bad = tmp_path / "BENCH_baseline.json"
        bad.write_text(json.dumps({"workloads": 3}))
        code = main(["bench", "--workloads", "kdtree_lowdim", "--repeats", "1",
                     "--baseline", str(bad)])
        assert code == 2
        assert "not a BENCH payload" in capsys.readouterr().err

    def test_explain_solver_portfolio(self, capsys):
        assert main(
            ["explain", "--dimension", "6", "--size", "12", "--seed", "3",
             "--solver", "portfolio", "--budget", "30"]
        ) == 0
        out = capsys.readouterr().out
        assert "minimum sufficient reason" in out
        assert "portfolio attempt" in out
        assert "exact=True" in out

    def test_explain_solver_sat(self, capsys):
        assert main(
            ["explain", "--dimension", "6", "--size", "12", "--seed", "3",
             "--solver", "sat"]
        ) == 0
        out = capsys.readouterr().out
        assert "method=sat" in out

    def test_figure_budget_flag(self, capsys, tmp_path):
        json_path = tmp_path / "BENCH_fig6a.json"
        assert main(
            ["figure", "fig6a", "--repeats", "2", "--seed", "1",
             "--budget", "60", "--json", str(json_path)]
        ) == 0
        payload = json.loads(json_path.read_text())
        assert all("truncated" in row for row in payload["rows"])
