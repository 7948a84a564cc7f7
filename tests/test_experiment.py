"""Grid expansion, execution, persistence, and the verdict report."""

import csv
import dataclasses
import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knnavg.experiment as experiment
from knnavg import core
from knnavg.averaging import history_rows
from knnavg.core import ContractViolationError
from knnavg.experiment import (
    ARM_BASELINE,
    ARM_KNN,
    FAILURES_FILENAME,
    HISTORY_DIRNAME,
    MANIFEST_FILENAME,
    POOLED_SCOPE,
    RESULTS_FILENAME,
    ExperimentGrid,
    RunConfig,
    execute_run,
    expand_grid,
    load_results,
    report,
    run_grid,
    write_history_csv,
    write_report_files,
)
from knnavg.metrics import DEFAULT_FRONT_SAMPLE_SIZE, MetricReport, compute_report
from knnavg.problems import NoiseSpec, ZdtProblem
from knnavg.stats import METRICS


def refuse_to_run(*args, **kwargs):
    raise AssertionError("a run executed")


def tiny_grid(**overrides):
    params = dict(
        problems=("zdt1",),
        n_vars_list=(2,),
        sigmas=(0.1,),
        pop_sizes=(10,),
        ks=(3,),
        max_dists=(0.25,),
        repetitions=2,
        generations=5,
        base_seed=0,
    )
    params.update(overrides)
    return ExperimentGrid(**params)


def table_rows(path):
    """Rows of a persisted table in file order, without the wall-clock column."""
    with path.open(newline="") as handle:
        return [
            {key: value for key, value in row.items() if key != "duration_s"}
            for row in csv.DictReader(handle)
        ]


REAL_GRID_WORKER = experiment._grid_worker
FAULTY_RUN = expand_grid(tiny_grid())[1].fingerprint


def fail_one_run(configs, *args):
    """Grid worker that raises on a stack holding one run; importable, so pool workers can run it."""
    if FAULTY_RUN in [c.fingerprint for c in configs]:
        raise RuntimeError("synthetic fault")
    return REAL_GRID_WORKER(configs, *args)


CUT_GRID = tiny_grid(repetitions=1, generations=2)


@functools.cache
def uninterrupted_grid():
    """Results table, its rows and the manifest of one uninterrupted run of ``CUT_GRID``."""
    with tempfile.TemporaryDirectory() as out:
        out = Path(out)
        run_grid(CUT_GRID, out_dir=out, front_sample_size=50)
        table = out / RESULTS_FILENAME
        return table.read_bytes(), table_rows(table), (out / MANIFEST_FILENAME).read_bytes()


class TestExperimentGrid:
    def test_counts_tiny(self):
        grid = tiny_grid()
        assert grid.cell_count == 1
        assert grid.settings_per_cell == 1
        assert grid.total_run_count == 4

    def test_counts_full_campaign(self):
        # 67,500 averaging runs, and one baseline run per cell and repetition
        grid = ExperimentGrid(
            problems=("zdt1", "zdt2", "zdt3"),
            n_vars_list=(2, 5, 10),
            sigmas=(0.0, 0.05, 0.1, 0.25, 0.5),
            pop_sizes=(10, 20),
            ks=(1, 2, 5, 10, 25),
            max_dists=(0.1, 0.25, 0.5, 1.0, 2.0),
            repetitions=30,
        )
        assert grid.cell_count == 90
        assert grid.settings_per_cell == 25
        assert grid.total_run_count == 67_500 + 90 * 30

    def test_validation(self):
        with pytest.raises(ContractViolationError):
            tiny_grid(problems=())
        with pytest.raises(ContractViolationError):
            tiny_grid(problems=("zdt7",))
        with pytest.raises(ContractViolationError):
            tiny_grid(pop_sizes=(11,))
        with pytest.raises(ContractViolationError):
            tiny_grid(sigmas=(-0.1,))
        with pytest.raises(ContractViolationError):
            tiny_grid(ks=(0,))
        with pytest.raises(ContractViolationError):
            tiny_grid(max_dists=(0.0,))
        with pytest.raises(ContractViolationError):
            tiny_grid(repetitions=0)


class TestExpandGrid:
    def test_order_and_arms(self):
        configs = expand_grid(tiny_grid())
        assert [c.arm for c in configs] == [ARM_BASELINE] * 2 + [ARM_KNN] * 2
        assert [c.rep for c in configs] == [0, 1, 0, 1]
        assert configs[2].k == 3 and configs[2].max_dist == 0.25

    def test_arms_share_seed_within_repetition(self):
        configs = expand_grid(tiny_grid())
        by_rep = {}
        for c in configs:
            by_rep.setdefault(c.rep, set()).add(c.seed)
        for rep, seeds in by_rep.items():
            assert len(seeds) == 1, rep

    def test_repetitions_use_distinct_seeds(self):
        configs = expand_grid(tiny_grid(repetitions=10))
        seeds = {c.seed for c in configs if c.arm == ARM_BASELINE}
        assert len(seeds) == 10

    def test_cells_use_distinct_seeds(self):
        configs = expand_grid(tiny_grid(problems=("zdt1", "zdt2"), sigmas=(0.1, 0.5)))
        baseline_seeds = [c.seed for c in configs if c.arm == ARM_BASELINE]
        assert len(set(baseline_seeds)) == len(baseline_seeds)

    def test_averaging_settings_enumerated_in_order(self):
        configs = expand_grid(tiny_grid(ks=(2, 5), max_dists=(0.1, 0.5), repetitions=1))
        knn = [(c.k, c.max_dist) for c in configs if c.arm == ARM_KNN]
        assert knn == [(2, 0.1), (2, 0.5), (5, 0.1), (5, 0.5)]

    def test_fingerprints_unique(self):
        configs = expand_grid(
            tiny_grid(problems=("zdt1", "zdt3"), ks=(1, 3), max_dists=(0.1, 1.0))
        )
        prints = [c.fingerprint for c in configs]
        assert len(set(prints)) == len(prints)

    def test_expansion_deterministic(self):
        a = expand_grid(tiny_grid())
        b = expand_grid(tiny_grid())
        assert [c.fingerprint for c in a] == [c.fingerprint for c in b]
        assert [c.seed for c in a] == [c.seed for c in b]

    def test_problem_names_are_case_insensitive(self):
        # one problem is one cell with one seed, however it is spelled
        upper = tiny_grid(problems=("ZDT1",))
        assert upper.problems == ("zdt1",)
        assert [(c.fingerprint, c.seed) for c in expand_grid(upper)] == [
            (c.fingerprint, c.seed) for c in expand_grid(tiny_grid())
        ]

    def test_base_seed_changes_seeds(self):
        a = expand_grid(tiny_grid())
        b = expand_grid(tiny_grid(base_seed=1))
        assert [c.fingerprint for c in a] == [c.fingerprint for c in b]
        assert all(x.seed != y.seed for x, y in zip(a, b))

    def test_fingerprint_format(self):
        configs = expand_grid(tiny_grid())
        assert configs[0].fingerprint == "zdt1-n2-s0.1-p10-g5-baseline-r0"
        assert configs[2].fingerprint == "zdt1-n2-s0.1-p10-g5-knn-k3-md0.25-r0"


class TestRunConfig:
    def test_arm_parameter_consistency(self):
        with pytest.raises(ContractViolationError):
            RunConfig("zdt1", 2, 0.1, 10, 5, ARM_KNN, None, None, 0, 1)
        with pytest.raises(ContractViolationError):
            RunConfig("zdt1", 2, 0.1, 10, 5, ARM_BASELINE, 3, 0.25, 0, 1)
        with pytest.raises(ContractViolationError):
            RunConfig("zdt1", 2, 0.1, 10, 5, "control", None, None, 0, 1)


class TestExecuteRun:
    def test_reproducible(self):
        config = expand_grid(tiny_grid())[2]
        a = execute_run(config)
        b = execute_run(config)
        assert a.metrics.hv_mean_adjusted == b.metrics.hv_mean_adjusted
        assert a.metrics.igd_mean_adjusted == b.metrics.igd_mean_adjusted
        assert a.metrics.delta_f == b.metrics.delta_f

    def test_optimization_kept_on_request(self):
        config = expand_grid(tiny_grid())[0]
        assert execute_run(config).optimization is None
        kept = execute_run(config, keep_optimization=True)
        assert kept.optimization is not None
        assert len(kept.optimization.history) == 10 * 6

    def test_final_set_scored(self):
        config = expand_grid(tiny_grid())[0]
        result = execute_run(config)
        assert result.final_set_size == len(result.final_set) > 0
        assert result.duration_s > 0.0
        assert result.metrics.reference_point == (11.0, 11.0)

    def test_no_run_path_builds_a_solution(self, monkeypatch, tmp_path):
        # Solution objects exist only for iterating a Batch row by row; runs,
        # scoring, persistence and the JSON summary work on the matrices
        def refuse(solution):
            raise AssertionError("a Solution was built")

        monkeypatch.setattr(core.Solution, "__post_init__", refuse)
        for config in expand_grid(tiny_grid(repetitions=1)):  # baseline arm, k-NN arm
            result = execute_run(config, keep_optimization=True)
            result.optimization.to_dict(include_history=True)
            problem = ZdtProblem(config.problem, config.n_vars)
            again = compute_report(result.final_set, problem, NoiseSpec(config.sigma))
            assert [again.value(m) for m in METRICS] == [result.metrics.value(m) for m in METRICS]
        outcome = run_grid(tiny_grid(repetitions=5), out_dir=tmp_path)
        assert not outcome.failures
        report(load_results(tmp_path))


class TestRunGrid:
    def test_serial_execution_and_persistence(self, tmp_path):
        grid = tiny_grid()
        outcome = run_grid(grid, out_dir=tmp_path)
        assert outcome.skipped == 0
        assert not outcome.failures
        assert len(outcome.results) == 4
        with (tmp_path / RESULTS_FILENAME).open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["fingerprint"] for r in rows] == [
            c.fingerprint for c in expand_grid(grid)
        ]

    def test_resume_skips_persisted_runs(self, tmp_path):
        grid = tiny_grid()
        run_grid(grid, out_dir=tmp_path)
        again = run_grid(grid, out_dir=tmp_path)
        assert again.skipped == 4
        assert not again.results
        with (tmp_path / RESULTS_FILENAME).open(newline="") as handle:
            assert len(list(csv.DictReader(handle))) == 4

    def test_resume_with_other_front_sample_size_rejected(self, tmp_path):
        grid = tiny_grid()
        run_grid(grid, out_dir=tmp_path)
        with pytest.raises(ContractViolationError, match="front_sample_size"):
            run_grid(grid, out_dir=tmp_path, front_sample_size=64)
        # the refusal leaves the table usable: the original settings resume
        assert run_grid(grid, out_dir=tmp_path).skipped == 4

    @pytest.mark.parametrize("reference", [(1.0, float("nan")), (float("inf"), 11.0)])
    def test_non_finite_reference_rejected_before_anything_runs(
        self, tmp_path, monkeypatch, reference
    ):
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        out = tmp_path / "grid"
        with pytest.raises(ContractViolationError, match="two finite coordinates"):
            run_grid(tiny_grid(), out_dir=out, reference=reference)
        with pytest.raises(ContractViolationError, match="two finite coordinates"):
            execute_run(expand_grid(tiny_grid())[0], reference=reference)
        assert not out.exists()

    @pytest.mark.parametrize("size", [1, 0, 2.5])
    def test_front_sample_size_below_two_rejected_before_anything_runs(
        self, tmp_path, monkeypatch, size
    ):
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        out = tmp_path / "grid"
        with pytest.raises(ContractViolationError, match="front sample size"):
            run_grid(tiny_grid(), out_dir=out, front_sample_size=size)
        with pytest.raises(ContractViolationError, match="front sample size"):
            execute_run(expand_grid(tiny_grid())[0], front_sample_size=size)
        assert not out.exists()

    def test_manifest_records_the_stream(self, tmp_path):
        run_grid(tiny_grid(), out_dir=tmp_path)
        manifest = (tmp_path / MANIFEST_FILENAME).read_text()
        assert json.loads(manifest) == {
            "stream_version": core.STREAM_VERSION, "numpy": np.__version__,
        }
        # an ordinary resume proceeds and leaves the manifest as it was
        assert run_grid(tiny_grid(), out_dir=tmp_path).skipped == 4
        assert (tmp_path / MANIFEST_FILENAME).read_text() == manifest

    @pytest.mark.parametrize("key, value", [("stream_version", 1), ("numpy", "1.26.4")])
    def test_resume_under_another_stream_rejected(self, tmp_path, monkeypatch, key, value):
        grid = tiny_grid()
        run_grid(grid, out_dir=tmp_path)
        manifest = tmp_path / MANIFEST_FILENAME
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
        table = (tmp_path / RESULTS_FILENAME).read_bytes()
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        with pytest.raises(ContractViolationError, match=f"differs from this package in {key} "):
            run_grid(grid, out_dir=tmp_path)
        assert (tmp_path / RESULTS_FILENAME).read_bytes() == table

    @pytest.mark.parametrize(
        "case, refusal",
        [
            ("torn table, foreign manifest", "stream_version"),
            ("foreign manifest only", "stream_version"),
            ("torn table, settings", "front_sample_size"),
            ("unparsable row of another grid", "line 6: unparsable row"),
        ],
        ids=["torn-foreign-manifest", "foreign-manifest-only", "torn-settings", "unparsable-row"],
    )
    def test_refused_resume_leaves_the_directory_as_it_was(
        self, tmp_path, monkeypatch, case, refusal
    ):
        # the checks used to run after the table was opened: a refusal still
        # cut a torn last row, or gave a directory without a table its header;
        # an unparsable row of no run in this grid used to pass unchecked
        grid = tiny_grid()
        out = tmp_path / "grid"
        run_grid(grid, out_dir=out)
        manifest = out / MANIFEST_FILENAME
        table = out / RESULTS_FILENAME
        if "manifest" in case:
            stored = json.loads(manifest.read_text())
            manifest.write_text(json.dumps({**stored, "stream_version": 2}))
        if case == "foreign manifest only":
            table.unlink()
        elif case == "unparsable row of another grid":
            table.write_bytes(table.read_bytes() + b"zdt9-n2,zdt9\r\n")
        else:
            table.write_bytes(table.read_bytes()[:-40])
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        size = 64 if "settings" in case else DEFAULT_FRONT_SAMPLE_SIZE
        with pytest.raises(ContractViolationError, match=refusal):
            run_grid(grid, out_dir=out, front_sample_size=size)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_runs_without_manifest_rejected(self, tmp_path, monkeypatch):
        # results persisted before manifests existed were drawn from stream 1
        grid = tiny_grid()
        run_grid(grid, out_dir=tmp_path)
        (tmp_path / MANIFEST_FILENAME).unlink()
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        with pytest.raises(ContractViolationError, match="stream version 1.*another output"):
            run_grid(grid, out_dir=tmp_path)
        assert not (tmp_path / MANIFEST_FILENAME).exists()
        # a table without rows mixes nothing: it is adopted
        path = tmp_path / RESULTS_FILENAME
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        monkeypatch.undo()
        assert len(run_grid(grid, out_dir=tmp_path).results) == 4
        assert (tmp_path / MANIFEST_FILENAME).exists()

    def test_partial_resume_completes_missing_runs(self, tmp_path):
        grid = tiny_grid()
        full = run_grid(grid, out_dir=tmp_path)
        # drop the last two persisted rows, keeping header and first two
        path = tmp_path / RESULTS_FILENAME
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3]))
        resumed = run_grid(grid, out_dir=tmp_path)
        assert resumed.skipped == 2
        assert len(resumed.results) == 2
        reloaded = load_results(tmp_path)
        assert {r.config.fingerprint for r in reloaded} == {
            r.config.fingerprint for r in full.results
        }

    def test_torn_last_row_is_dropped_and_run_again(self, tmp_path):
        # a crash mid-write leaves a partial last row; it used to count as
        # persisted on resume and to crash loading
        grid = tiny_grid(repetitions=1, generations=2)
        run_grid(grid, out_dir=tmp_path / "clean", front_sample_size=50)
        expected = table_rows(tmp_path / "clean" / RESULTS_FILENAME)
        table = (tmp_path / "clean" / RESULTS_FILENAME).read_bytes()
        last_row = table.rstrip(b"\r\n").rfind(b"\n") + 1
        path = tmp_path / "torn" / RESULTS_FILENAME
        path.parent.mkdir()
        # cuts inside the header leave nothing: the table starts over
        for cut in [0, 7, *range(last_row, len(table))]:
            path.write_bytes(table[:cut])
            outcome = run_grid(grid, out_dir=path.parent, front_sample_size=50)
            assert outcome.skipped + len(outcome.results) == len(expected)
            assert table_rows(path) == expected, cut

    @settings(max_examples=25)
    @given(st.data())
    def test_resume_after_a_cut_at_any_byte_equals_an_uninterrupted_grid(self, data):
        # the hypothesis counterpart of the torn-row test: the cut may also
        # land on a line end, between rows, or inside the header
        table, expected, manifest = uninterrupted_grid()
        cut = data.draw(st.integers(min_value=0, max_value=len(table)), label="cut")
        with tempfile.TemporaryDirectory() as out:
            out = Path(out)
            (out / MANIFEST_FILENAME).write_bytes(manifest)
            (out / RESULTS_FILENAME).write_bytes(table[:cut])
            outcome = run_grid(CUT_GRID, out_dir=out, front_sample_size=50)
            assert outcome.skipped + len(outcome.results) == CUT_GRID.total_run_count
            assert table_rows(out / RESULTS_FILENAME) == expected

    def test_unparsable_row_names_its_line(self, tmp_path):
        run_grid(tiny_grid(), out_dir=tmp_path)
        path = tmp_path / RESULTS_FILENAME
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(ContractViolationError, match="line 5"):
            load_results(tmp_path)

    def test_parallel_matches_serial(self, tmp_path):
        grid = tiny_grid()
        serial = run_grid(grid, out_dir=tmp_path / "serial")
        parallel = run_grid(grid, parallelism=2, out_dir=tmp_path / "parallel")
        assert [r.config.fingerprint for r in serial.results] == [
            r.config.fingerprint for r in parallel.results
        ]
        for s, p in zip(serial.results, parallel.results):
            assert s.metrics.hv_mean_adjusted == p.metrics.hv_mean_adjusted
            assert s.metrics.igd_mean_adjusted == p.metrics.igd_mean_adjusted
            assert s.metrics.delta_f == p.metrics.delta_f

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_stacks_persist_each_run_as_executed_alone(self, tmp_path, parallelism):
        grid = tiny_grid(problems=("zdt1", "zdt3"), ks=(1, 3), repetitions=3)
        out = tmp_path / "grid"
        run_grid(grid, parallelism=parallelism, out_dir=out, include_histories=True)
        persisted = {row["fingerprint"]: row for row in table_rows(out / RESULTS_FILENAME)}
        assert len(persisted) == 18
        for config in expand_grid(grid):
            alone = execute_run(config, keep_optimization=True)
            row = experiment._result_row(alone)
            del row["duration_s"]
            assert persisted[config.fingerprint] == row
            write_history_csv(tmp_path / "alone.csv", alone.optimization)
            stacked = out / HISTORY_DIRNAME / f"{config.fingerprint}.csv"
            assert stacked.read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_history_csv_is_what_csv_writer_writes(self, tmp_path):
        config = expand_grid(tiny_grid(sigmas=(1.0,)))[2]
        optimization = execute_run(config, keep_optimization=True).optimization
        write_history_csv(tmp_path / "history.csv", optimization)
        with (tmp_path / "reference.csv").open("w", newline="") as handle:
            header, rows = history_rows(optimization.history)
            csv.writer(handle).writerows([header] + rows)
        assert (tmp_path / "history.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_failing_run_recorded_alike_serial_and_pooled(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment, "_grid_worker", fail_one_run)
        tables = []
        for parallelism in (1, 2):
            out = tmp_path / f"p{parallelism}"
            outcome = run_grid(tiny_grid(), parallelism=parallelism, out_dir=out)
            assert [c.fingerprint for c, _ in outcome.failures] == [FAULTY_RUN]
            tables.append([
                {row["fingerprint"]: row for row in table_rows(out / name)}
                for name in (RESULTS_FILENAME, FAILURES_FILENAME)
            ])
        serial, pooled = tables
        assert serial == pooled
        assert len(serial[0]) == 3
        assert serial[1] == {
            FAULTY_RUN: {"fingerprint": FAULTY_RUN, "error": "RuntimeError: synthetic fault"}
        }

    def test_no_more_pool_workers_than_pending_stacks(self, tmp_path, monkeypatch):
        sizes = []
        real_pool = experiment._process_pool

        def recording_pool(workers):
            sizes.append(workers)
            return real_pool(workers)

        grid = tiny_grid()
        run_grid(grid, out_dir=tmp_path)
        path = tmp_path / RESULTS_FILENAME
        lines = path.read_bytes().splitlines(keepends=True)
        monkeypatch.setattr(experiment, "_process_pool", recording_pool)
        # the second baseline run and both k-NN runs: two stacks
        path.write_bytes(b"".join(lines[:2]))
        assert len(run_grid(grid, parallelism=8, out_dir=tmp_path).results) == 3
        # the second k-NN run alone: one stack
        path.write_bytes(b"".join(lines[:4]))
        assert len(run_grid(grid, parallelism=8, out_dir=tmp_path).results) == 1
        assert run_grid(grid, parallelism=8, out_dir=tmp_path).skipped == 4
        assert sizes == [2, 1]  # one worker per pending stack, no pool for none

    def test_round_trip_preserves_metrics_exactly(self, tmp_path):
        outcome = run_grid(tiny_grid(), out_dir=tmp_path)
        reloaded = load_results(tmp_path)
        for fresh, loaded in zip(outcome.results, reloaded):
            assert fresh.config.fingerprint == loaded.config.fingerprint
            assert fresh.config.seed == loaded.config.seed
            assert fresh.metrics.hv_mean_adjusted == loaded.metrics.hv_mean_adjusted
            assert fresh.metrics.igd_mean_adjusted == loaded.metrics.igd_mean_adjusted
            assert fresh.metrics.delta_f == loaded.metrics.delta_f
            assert loaded.final_set is None
            assert experiment._result_row(loaded) == experiment._result_row(fresh)

    def test_memory_only_run(self):
        outcome = run_grid(tiny_grid())
        assert len(outcome.results) == 4

    def test_history_dumps(self, tmp_path):
        grid = tiny_grid(repetitions=1)
        run_grid(grid, out_dir=tmp_path, include_histories=True)
        history_dir = tmp_path / HISTORY_DIRNAME
        files = sorted(history_dir.glob("*.csv"))
        assert len(files) == 2
        for path in files:
            lines = path.read_text().splitlines()
            assert len(lines) == 1 + 10 * 6  # header plus one row per sample

    def test_history_dumps_need_out_dir(self):
        with pytest.raises(ContractViolationError):
            run_grid(tiny_grid(), include_histories=True)

    def test_parallelism_validated(self):
        # "2" used to raise TypeError from the comparison with 1
        for bad in (0, "2", True, 1.5, None):
            with pytest.raises(ContractViolationError):
                run_grid(tiny_grid(), parallelism=bad)

    def test_failure_isolation(self, tmp_path, monkeypatch):
        grid = tiny_grid()
        victim = expand_grid(grid)[1].fingerprint
        real_worker = experiment._grid_worker

        def flaky(configs, reference, front_sample_size, history_paths):
            if victim in [c.fingerprint for c in configs]:
                raise RuntimeError("synthetic fault")
            return real_worker(configs, reference, front_sample_size, history_paths)

        monkeypatch.setattr(experiment, "_grid_worker", flaky)
        outcome = run_grid(grid, out_dir=tmp_path)
        assert len(outcome.results) == 3
        assert len(outcome.failures) == 1
        assert outcome.failures[0][0].fingerprint == victim
        assert "synthetic fault" in outcome.failures[0][1]
        with (tmp_path / FAILURES_FILENAME).open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["fingerprint"] == victim

    def test_load_results_requires_table(self, tmp_path):
        with pytest.raises(ContractViolationError):
            load_results(tmp_path)


def grid_results(tmp_path, **overrides):
    params = dict(repetitions=6, sigmas=(0.2,), generations=8)
    params.update(overrides)
    return run_grid(tiny_grid(**params), out_dir=tmp_path).results


class TestReport:
    def test_scopes_and_settings(self, tmp_path):
        results = grid_results(tmp_path)
        bundle = report(results)
        assert set(bundle.tables) == {"sigma=0.2", POOLED_SCOPE}
        for table in bundle.tables.values():
            assert set(table) == {(3, 0.25)}
            assert set(table[(3, 0.25)]) == set(METRICS)

    def test_text_rendering(self, tmp_path):
        results = grid_results(tmp_path)
        text = report(results).text
        assert "alpha=0.05" in text
        assert "sigma=0.2" in text
        assert "all noise levels pooled" in text
        assert "knn(3, 0.25)" in text
        assert "HV" in text and "IGD" in text and "Δf" in text

    def test_verdict_rows_cover_scopes_and_metrics(self, tmp_path):
        results = grid_results(tmp_path)
        bundle = report(results)
        assert len(bundle.verdict_rows) == 2 * 1 * 3
        assert {row["scope"] for row in bundle.verdict_rows} == {"sigma=0.2", POOLED_SCOPE}

    def test_plot_rows_cover_every_run(self, tmp_path):
        results = grid_results(tmp_path)
        bundle = report(results)
        assert len(bundle.plot_rows) == len(results)

    def test_duplicate_rows_deduplicated(self, tmp_path):
        results = grid_results(tmp_path)
        once = report(results)
        twice = report(list(results) + list(results))
        assert once.text == twice.text

    def test_missing_baseline_names_fingerprint(self, tmp_path):
        results = grid_results(tmp_path)
        missing_rep = 2
        pruned = [
            r for r in results
            if not (r.config.arm == ARM_BASELINE and r.config.rep == missing_rep)
        ]
        with pytest.raises(ContractViolationError) as err:
            report(pruned)
        assert f"baseline-r{missing_rep}" in str(err.value)

    def test_baseline_only_results_rejected(self, tmp_path):
        results = grid_results(tmp_path)
        baselines = [r for r in results if r.config.arm == ARM_BASELINE]
        with pytest.raises(ContractViolationError):
            report(baselines)

    def test_empty_results_rejected(self):
        with pytest.raises(ContractViolationError):
            report([])

    def test_mixed_reference_points_rejected(self, tmp_path):
        results = grid_results(tmp_path)
        clone = results[0]
        moved = dataclasses.replace(
            clone,
            metrics=MetricReport(
                clone.metrics.hv_mean_adjusted,
                clone.metrics.igd_mean_adjusted,
                clone.metrics.delta_f,
                (9.0, 9.0),
                clone.metrics.front_sample_size,
            ),
        )
        with pytest.raises(ContractViolationError):
            report([moved] + list(results[1:]))

    def test_per_sigma_scopes_split_runs(self, tmp_path):
        results = grid_results(tmp_path, sigmas=(0.0, 0.4))
        bundle = report(results)
        assert set(bundle.tables) == {"sigma=0.0", "sigma=0.4", POOLED_SCOPE}
        pooled = bundle.tables[POOLED_SCOPE][(3, 0.25)]["hv"]
        split = bundle.tables["sigma=0.0"][(3, 0.25)]["hv"]
        assert pooled.n_pairs >= split.n_pairs

    def test_report_files_written(self, tmp_path):
        results = grid_results(tmp_path)
        bundle = report(results)
        out = tmp_path / "report"
        write_report_files(bundle, out)
        assert (out / "verdicts.txt").read_text(encoding="utf-8") == bundle.text
        with (out / "verdicts.csv").open(newline="") as handle:
            assert len(list(csv.DictReader(handle))) == len(bundle.verdict_rows)
        with (out / "metrics_long.csv").open(newline="") as handle:
            assert len(list(csv.DictReader(handle))) == len(bundle.plot_rows)

    def test_verdicts_computed_from_loaded_results(self, tmp_path):
        # reporting from the persisted table matches reporting from memory
        fresh = grid_results(tmp_path)
        from_disk = load_results(tmp_path)
        assert report(fresh).text == report(from_disk).text
