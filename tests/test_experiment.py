"""Grid expansion, execution, persistence, and the verdict report."""

import csv
import functools
import json
import os
import random
import tempfile
import time
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
from knnavg.metrics import compute_report
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


def tree(root):
    """Every path under ``root`` with a file's bytes, or None for a directory."""
    return {str(p): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def rewrite(path, data):
    """Replace ``path`` by a new file holding ``data``.

    Rewriting a file in place truncates it, and ext4 flushes a truncated
    file on close: tens of milliseconds per cut on some disks.
    """
    path.unlink(missing_ok=True)
    path.write_bytes(data)


REAL_EXECUTE_STACK = experiment.execute_stack
FAULTY_RUN = expand_grid(tiny_grid())[1].fingerprint


def fail_one_run(configs, *args, **kwargs):
    """``execute_stack`` that raises on a stack holding one run."""
    if FAULTY_RUN in [c.fingerprint for c in configs]:
        raise RuntimeError("synthetic fault")
    return REAL_EXECUTE_STACK(configs, *args, **kwargs)


def fail_with_a_line_break(configs, *args, **kwargs):
    """``execute_stack`` that fails every run with quotes, a comma and a line break."""
    raise RuntimeError(f'synthetic, "fault"\nin {configs[0].fingerprint}')


# the header of every results table written while each row recorded its scoring
SCORED_HEADER = (
    b"fingerprint,problem,n_vars,sigma,pop_size,generations,arm,k,max_dist,rep,seed,"
    b"hv_mean_adjusted,igd_mean_adjusted,delta_f,ref_f1,ref_f2,front_sample_size,"
    b"final_set_size,duration_s"
)
SCORING_COLUMNS = [b"ref_f1", b"ref_f2", b"front_sample_size"]


def add_columns(path, names, values=lambda row: [b"11.0", b"11.0", b"1000"]):
    """Insert the columns ``names`` after ``delta_f`` in a results table.

    ``values(row)`` gives the new fields of the row-th row, from 1; the
    default gives every row the scoring that older tables recorded.
    """
    lines = path.read_bytes().split(b"\r\n")
    at = lines[0].split(b",").index(b"delta_f") + 1
    for number, line in enumerate(lines[:-1]):  # the last is the empty rest
        fields = line.split(b",")
        fields[at:at] = values(number) if number else names
        lines[number] = b",".join(fields)
    path.write_bytes(b"\r\n".join(lines))


CUT_GRID = tiny_grid(repetitions=1, generations=2)


@functools.cache
def uninterrupted_grid():
    """Results table, its rows and the manifest of one uninterrupted run of ``CUT_GRID``."""
    with tempfile.TemporaryDirectory() as out:
        out = Path(out)
        run_grid(CUT_GRID, out_dir=out)
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

    @pytest.mark.parametrize("field, levels, repeated", [
        ("problems", ("zdt1", "ZDT1"), "'zdt1'"),
        ("n_vars_list", (2, 5, 2.0), "2"),
        ("sigmas", (0.1, 0.10), "0.1"),
        ("pop_sizes", (10, np.int64(10)), "10"),
        ("ks", (3, 3), "3"),
        ("max_dists", (0.25, 0.5, 0.250), "0.25"),
    ])
    def test_repeated_level_refused(self, field, levels, repeated):
        # a level named twice used to run every one of its runs twice, into a
        # table that its own report and every resume then refused
        with pytest.raises(ContractViolationError, match=f"^{field} repeats {repeated}$"):
            tiny_grid(**{field: levels})


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

    def test_duration_times_the_loop_not_the_streams(self, monkeypatch):
        # the first stream of a process loads numpy.random, about 9 ms that
        # duration_s used to count; a slow stream stands in for that import
        delay = 0.5
        real_init = core.RngStream.__init__

        def slow_init(self, seed):
            time.sleep(delay)
            real_init(self, seed)

        monkeypatch.setattr(core.RngStream, "__init__", slow_init)
        result = execute_run(expand_grid(tiny_grid())[0])
        assert 0.0 < result.duration_s < delay

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

    def test_resume_with_other_front_sample_size_rejected(self, tmp_path, monkeypatch):
        # a directory scored over another front sample, as --front-samples 64
        # used to write it: its header is refused, and nothing changes
        grid = tiny_grid()
        run_grid(grid, out_dir=tmp_path)
        path = tmp_path / RESULTS_FILENAME
        add_columns(path, SCORING_COLUMNS, lambda row: [b"11.0", b"11.0", b"64"])
        before = tree(tmp_path)
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        with pytest.raises(ContractViolationError, match="line 1: .*front_sample_size"):
            run_grid(grid, out_dir=tmp_path)
        assert tree(tmp_path) == before

    def test_table_with_the_scoring_columns_refused_by_name(self, tmp_path, monkeypatch):
        # the header of every table written before the scoring columns were
        # dropped: unrefused, a resume would append shorter rows under it
        grid = tiny_grid()
        run_grid(grid, out_dir=tmp_path)
        path = tmp_path / RESULTS_FILENAME
        add_columns(path, SCORING_COLUMNS)
        assert path.read_bytes().startswith(SCORED_HEADER + b"\r\n")
        before = tree(tmp_path)
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        refusal = (
            f"{path}: line 1: not this version's results header "
            "(missing: none; unexpected: ref_f1, ref_f2, front_sample_size)"
        )
        for read in (load_results, lambda out: run_grid(grid, out_dir=out)):
            with pytest.raises(ContractViolationError) as err:
                read(tmp_path)
            assert str(err.value) == refusal
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("rows", [4, 0], ids=["with-rows", "header-only"])
    def test_table_missing_a_column_refused_by_name(self, tmp_path, monkeypatch, rows):
        grid = tiny_grid()
        run_grid(grid, out_dir=tmp_path)
        path = tmp_path / RESULTS_FILENAME
        lines = path.read_bytes().split(b"\r\n")[: rows + 1]
        at = lines[0].split(b",").index(b"seed")
        path.write_bytes(b"".join(
            b",".join(f for i, f in enumerate(line.split(b",")) if i != at) + b"\r\n"
            for line in lines
        ))
        before = tree(tmp_path)
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        # a header alone used to load, and a first row to be refused by its KeyError
        refusal = r"line 1: .* \(missing: seed; unexpected: none\)$"
        for read in (load_results, lambda out: run_grid(grid, out_dir=out)):
            with pytest.raises(ContractViolationError, match=refusal):
                read(tmp_path)
        assert tree(tmp_path) == before

    @pytest.mark.parametrize(
        "swap, refusal",
        [((1, 2), "column 2 is n_vars, not problem"), ((1, None), "repeated: problem")],
        ids=["out-of-order", "repeated"],
    )
    def test_table_of_the_same_columns_refused_by_what_differs(
        self, tmp_path, monkeypatch, swap, refusal
    ):
        # neither header lacks or adds a column, so the refusal names what differs
        grid = tiny_grid()
        run_grid(grid, out_dir=tmp_path)
        path = tmp_path / RESULTS_FILENAME
        a, b = swap
        lines = []
        for line in path.read_bytes().split(b"\r\n")[:-1]:
            fields = line.split(b",")
            if b is None:
                fields.append(fields[a])
            else:
                fields[a], fields[b] = fields[b], fields[a]
            lines.append(b",".join(fields) + b"\r\n")
        path.write_bytes(b"".join(lines))
        before = tree(tmp_path)
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        for read in (load_results, lambda out: run_grid(grid, out_dir=out)):
            with pytest.raises(ContractViolationError) as err:
                read(tmp_path)
            assert str(err.value) == (
                f"{path}: line 1: not this version's results header ({refusal})"
            )
        assert tree(tmp_path) == before

    # every run is scored at DEFAULT_REFERENCE over DEFAULT_FRONT_SAMPLE_SIZE
    # front points: no entry point takes either, whatever its value
    @pytest.mark.parametrize("reference", [(1.0, float("nan")), (float("inf"), 11.0)])
    def test_non_finite_reference_rejected_before_anything_runs(
        self, tmp_path, monkeypatch, reference
    ):
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        out = tmp_path / "grid"
        with pytest.raises(TypeError, match="reference"):
            run_grid(tiny_grid(), out_dir=out, reference=reference)
        with pytest.raises(TypeError, match="reference"):
            execute_run(expand_grid(tiny_grid())[0], reference=reference)
        assert not out.exists()

    @pytest.mark.parametrize("size", [1, 0, 2.5])
    def test_front_sample_size_below_two_rejected_before_anything_runs(
        self, tmp_path, monkeypatch, size
    ):
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        out = tmp_path / "grid"
        with pytest.raises(TypeError, match="front_sample_size"):
            run_grid(tiny_grid(), out_dir=out, front_sample_size=size)
        with pytest.raises(TypeError, match="front_sample_size"):
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
            ("torn table, settings", "with seed="),
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
        with pytest.raises(ContractViolationError, match=refusal):
            run_grid(tiny_grid(base_seed=1) if "settings" in case else grid, out_dir=out)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_runs_without_manifest_rejected(self, tmp_path, monkeypatch):
        # with grid.json gone, nothing says which stream drew the runs
        grid = tiny_grid()
        run_grid(grid, out_dir=tmp_path)
        (tmp_path / MANIFEST_FILENAME).unlink()
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        with pytest.raises(ContractViolationError, match="under is unknown; write to another"):
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
        run_grid(grid, out_dir=tmp_path / "clean")
        expected = table_rows(tmp_path / "clean" / RESULTS_FILENAME)
        table = (tmp_path / "clean" / RESULTS_FILENAME).read_bytes()
        last_row = table.rstrip(b"\r\n").rfind(b"\n") + 1
        path = tmp_path / "torn" / RESULTS_FILENAME
        path.parent.mkdir()
        # cuts inside the header leave nothing: the table starts over
        for cut in [0, 7, *range(last_row, len(table))]:
            rewrite(path, table[:cut])
            outcome = run_grid(grid, out_dir=path.parent)
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
            outcome = run_grid(CUT_GRID, out_dir=out)
            assert outcome.skipped + len(outcome.results) == CUT_GRID.total_run_count
            assert table_rows(out / RESULTS_FILENAME) == expected

    def test_unparsable_row_names_its_line(self, tmp_path):
        run_grid(tiny_grid(), out_dir=tmp_path)
        path = tmp_path / RESULTS_FILENAME
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(ContractViolationError, match="line 5"):
            load_results(tmp_path)

    def test_load_results_refuses_a_torn_row_at_every_cut(self, tmp_path):
        # a cut inside duration_s used to load as a shorter number, and a cut
        # anywhere else as an unparsable row
        table, _, _ = uninterrupted_grid()
        path = tmp_path / RESULTS_FILENAME
        path.write_bytes(table)
        uncut = [experiment._result_row(r) for r in load_results(tmp_path)]
        for cut in range(len(table) + 1):
            rewrite(path, table[:cut])
            lines = table[:cut].count(b"\n")
            if cut == 0 or table[cut - 1:cut] == b"\n":
                loaded = [experiment._result_row(r) for r in load_results(tmp_path)]
                assert loaded == uncut[:max(lines - 1, 0)], cut
            else:
                with pytest.raises(ContractViolationError, match=f"line {lines + 1}: torn"):
                    load_results(tmp_path)

    def test_failures_table_cut_mid_row_is_cut_on_resume(self, tmp_path, monkeypatch):
        # a resume used to append onto the torn row, merging it with the next one
        monkeypatch.setattr(experiment, "execute_stack", fail_with_a_line_break)
        clean, path = tmp_path / "clean", tmp_path / "cut" / FAILURES_FILENAME
        run_grid(tiny_grid(), out_dir=clean)
        table = (clean / FAILURES_FILENAME).read_bytes()
        with (clean / FAILURES_FILENAME).open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 5 and all('"fault"\nin ' in error for _, error in rows[1:])
        last_row = table.rindex(b"\r\n" + rows[-1][0].encode()) + 2
        path.parent.mkdir()
        for cut in range(last_row + 1, len(table)):
            rewrite(path, table[:cut])
            assert len(run_grid(tiny_grid(), out_dir=path.parent).failures) == 4
            with path.open(newline="") as handle:
                assert list(csv.reader(handle)) == rows[:-1] + rows[1:], cut

    @pytest.mark.parametrize("torn", [False, True], ids=["complete", "torn-tail"])
    def test_unparsable_complete_row_is_refused_by_its_line(self, tmp_path, monkeypatch, torn):
        # the reader drops only a torn tail: corruption before it is refused;
        # a byte that is not UTF-8 used to escape as a UnicodeDecodeError
        grid = tiny_grid()
        run_grid(grid, out_dir=tmp_path)
        path = tmp_path / RESULTS_FILENAME
        clean = path.read_bytes()
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        for corruption in (b"x", b"\xff"):  # before the seed
            lines = clean.split(b"\r\n")
            assert len(lines) == 6  # header, four rows, and the empty rest
            fields = lines[2].split(b",")
            fields[10] = corruption + fields[10]
            lines[2] = b",".join(fields)
            corrupt = b"\r\n".join(lines)
            path.write_bytes(corrupt[:-9] if torn else corrupt)
            before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
            for read in (load_results, lambda out: run_grid(grid, out_dir=out)):
                with pytest.raises(ContractViolationError, match="line 3: unparsable row"):
                    read(tmp_path)
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("edit, refusal", [
        ("extra-fields", r"line 3: unparsable row \(2 fields beyond the header\)"),
        ("fingerprint-mismatch", r"line 4: unparsable row \(fingerprint .*-r7 should read .*-r0\)"),
        ("duplicate", "line 6: zdt1-.*-baseline-r0 repeats line 2"),
        ("ref_f1", r"line 1: not this version's results header \(.*; unexpected: ref_f1\)"),
        ("ref_f2", r"line 1: not this version's results header \(.*; unexpected: ref_f2\)"),
        ("front_sample_size",
         r"line 1: not this version's results header \(.*; unexpected: front_sample_size\)"),
    ], ids=["extra-fields", "fingerprint-mismatch", "duplicate", "ref_f1", "ref_f2",
            "front_sample_size"])
    def test_row_that_misdescribes_itself_is_refused_by_its_line(
        self, tmp_path, monkeypatch, edit, refusal
    ):
        # each of these rows used to load, and a resume skipped its run; a
        # row scored at another reference point or front sample size used to
        # reach report(), which refused the mix without naming a line; the
        # scoring columns are gone, so a table with one is refused by name
        grid = tiny_grid()
        run_grid(grid, out_dir=tmp_path)
        path = tmp_path / RESULTS_FILENAME
        lines = path.read_bytes().split(b"\r\n")
        if edit == "extra-fields":
            lines[2] += b",999,extra"
        elif edit in ("ref_f1", "ref_f2", "front_sample_size"):
            value = {"ref_f1": b"5.0", "ref_f2": b"11", "front_sample_size": b"50"}[edit]
            path.write_bytes(b"\r\n".join(lines))
            add_columns(path, [edit.encode()], lambda row: [value])
            lines = path.read_bytes().split(b"\r\n")
        elif edit == "fingerprint-mismatch":
            fingerprint, rest = lines[3].split(b",", 1)
            assert fingerprint.endswith(b"-r0")  # and so does its rep field
            lines[3] = fingerprint[:-1] + b"7," + rest
        else:  # the first row again, with another hypervolume
            fields = lines[1].split(b",")
            fields[11] = b"0.5"
            lines.insert(5, b",".join(fields))
        path.write_bytes(b"\r\n".join(lines))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        for read in (load_results, lambda out: run_grid(grid, out_dir=out)):
            with pytest.raises(ContractViolationError, match=refusal):
                read(tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

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
        monkeypatch.setattr(experiment, "execute_stack", fail_one_run)
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

    def test_failed_stack_is_rerun_in_the_worker_that_ran_it(self, tmp_path, monkeypatch):
        # the coordinator used to rerun a failed stack's runs one at a time itself
        calls = tmp_path / "calls"

        def record_and_fail_one_run(configs, *args, **kwargs):
            with calls.open("a") as handle:
                handle.write(f"{os.getpid()} {len(configs)}\n")
            return fail_one_run(configs, *args, **kwargs)

        monkeypatch.setattr(experiment, "execute_stack", record_and_fail_one_run)
        outcome = run_grid(tiny_grid(), parallelism=2, out_dir=tmp_path / "grid")
        assert [c.fingerprint for c, _ in outcome.failures] == [FAULTY_RUN]
        assert len(outcome.results) == 3
        pids = {}  # stack size -> the processes that executed stacks of that size
        for line in calls.read_text().splitlines():
            pid, size = map(int, line.split())
            pids.setdefault(size, []).append(pid)
        assert sorted(pids) == [1, 2] and len(pids[1]) == 2
        assert os.getpid() not in pids[1] + pids[2]
        # both reruns ran in the worker process whose stack failed
        assert len(set(pids[1])) == 1 and pids[1][0] in pids[2]

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
        assert victim == FAULTY_RUN
        monkeypatch.setattr(experiment, "execute_stack", fail_one_run)
        outcome = run_grid(grid, out_dir=tmp_path)
        assert len(outcome.results) == 3
        assert len(outcome.failures) == 1
        assert outcome.failures[0][0].fingerprint == victim
        assert "synthetic fault" in outcome.failures[0][1]
        with (tmp_path / FAILURES_FILENAME).open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["fingerprint"] == victim

    def test_results_table_appears_with_the_first_finished_run(self, tmp_path, monkeypatch):
        grid = tiny_grid()
        monkeypatch.setattr(experiment, "execute_stack", refuse_to_run)
        assert len(run_grid(grid, out_dir=tmp_path).failures) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == [FAILURES_FILENAME, MANIFEST_FILENAME]
        assert len(table_rows(tmp_path / FAILURES_FILENAME)) == 4
        with pytest.raises(ContractViolationError, match="no results table"):
            load_results(tmp_path)
        monkeypatch.setattr(experiment, "execute_stack", REAL_EXECUTE_STACK)
        assert len(run_grid(grid, out_dir=tmp_path).results) == 4
        with (tmp_path / RESULTS_FILENAME).open(newline="") as handle:
            header = next(csv.reader(handle))
        assert header == list(experiment._result_row(load_results(tmp_path)[0]))

    @pytest.mark.parametrize(
        "case, refusal",
        [
            ("results table is a directory", f"cannot read .*{RESULTS_FILENAME}: Is a directory"),
            ("failures table is a directory", f"cannot read .*{FAILURES_FILENAME}: Is a directory"),
            ("output under a file", f"cannot read .*taken/grid/{RESULTS_FILENAME}: Not a directory"),
            ("directory cannot be made", "cannot write .*grid: Permission denied"),
        ],
        ids=["results-dir", "failures-dir", "under-a-file", "mkdir-refused"],
    )
    def test_unusable_output_path_refused_by_name(self, tmp_path, monkeypatch, case, refusal):
        # each used to end in an IsADirectoryError, NotADirectoryError or
        # PermissionError traceback
        out = tmp_path / "grid"
        if case == "output under a file":
            (tmp_path / "taken").write_text("kept\n")
            out = tmp_path / "taken" / "grid"
        elif case == "directory cannot be made":
            def refuse_mkdir(path, *args, **kwargs):
                raise PermissionError(13, "Permission denied", str(path))

            monkeypatch.setattr(Path, "mkdir", refuse_mkdir)
        else:
            table = RESULTS_FILENAME if case.startswith("results") else FAILURES_FILENAME
            (out / table).mkdir(parents=True)
        before = tree(tmp_path)
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        with pytest.raises(ContractViolationError, match=refusal):
            run_grid(tiny_grid(), out_dir=out)
        assert tree(tmp_path) == before
        if case == "results table is a directory":
            with pytest.raises(ContractViolationError, match=refusal):
                load_results(out)

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

    def test_duplicate_fingerprints_refused(self, tmp_path):
        # the first of each fingerprint used to be kept without a word
        results = grid_results(tmp_path)
        with pytest.raises(ContractViolationError) as err:
            report(list(results) + [results[3], results[1]])
        assert str(err.value) == (
            f"results repeat runs: {results[1].config.fingerprint}, "
            f"{results[3].config.fingerprint}"
        )

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

    def test_every_missing_partner_named_once(self, tmp_path):
        results = grid_results(tmp_path, sigmas=(0.0, 0.4), ks=(3, 5))
        pruned = [r for r in results if not (r.config.arm == ARM_BASELINE and r.config.rep == 2)]
        with pytest.raises(ContractViolationError) as err:
            report(pruned)
        for sigma in ("0.0", "0.4"):
            assert str(err.value).count(f"zdt1-n2-s{sigma}-p10-g8-baseline-r2") == 1

    def test_partner_under_another_seed_refused(self, tmp_path):
        # the signed-rank test rests on seed pairing; a merged or edited
        # table can break it, and its verdicts would compare unpaired runs
        grid_results(tmp_path)
        table = tmp_path / RESULTS_FILENAME
        with table.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        victim = next(row for row in rows if row["arm"] == ARM_BASELINE)
        victim["seed"] = str(int(victim["seed"]) + 1)
        experiment._write_rows(table, rows)
        with pytest.raises(ContractViolationError, match="seeds differ") as err:
            report(load_results(tmp_path))
        assert victim["fingerprint"] in str(err.value)

    def test_baseline_only_results_rejected(self, tmp_path):
        results = grid_results(tmp_path)
        baselines = [r for r in results if r.config.arm == ARM_BASELINE]
        with pytest.raises(ContractViolationError):
            report(baselines)

    def test_empty_results_rejected(self):
        with pytest.raises(ContractViolationError):
            report([])

    def test_mixed_reference_points_rejected(self, tmp_path):
        # report() used to refuse a mix of reference points, and then the
        # reader its row; no row records one now, so the header is refused
        grid_results(tmp_path)
        table = tmp_path / RESULTS_FILENAME
        add_columns(table, SCORING_COLUMNS[:2], lambda row: [b"9.0" if row == 1 else b"11.0"] * 2)
        with pytest.raises(ContractViolationError, match=r"line 1: .* ref_f1, ref_f2\)"):
            load_results(tmp_path)

    def test_mixed_front_sample_sizes_rejected(self, tmp_path):
        # a merged or edited table used to reach the report, which refused the
        # mix, and then the reader its row; no row records one now
        grid_results(tmp_path)
        table = tmp_path / RESULTS_FILENAME
        add_columns(table, SCORING_COLUMNS[2:], lambda row: [b"50" if row == 12 else b"1000"])
        with pytest.raises(ContractViolationError, match=r"line 1: .* front_sample_size\)"):
            load_results(tmp_path)

    def test_per_sigma_scopes_split_runs(self, tmp_path):
        results = grid_results(tmp_path, sigmas=(0.0, 0.4))
        bundle = report(results)
        assert set(bundle.tables) == {"sigma=0.0", "sigma=0.4", POOLED_SCOPE}
        pooled = bundle.tables[POOLED_SCOPE][(3, 0.25)]["hv"]
        split = bundle.tables["sigma=0.0"][(3, 0.25)]["hv"]
        assert pooled.n_pairs >= split.n_pairs

    def test_pairing_ignores_input_order(self, tmp_path):
        results = grid_results(tmp_path, sigmas=(0.0, 0.4), ks=(3, 5))
        shuffled = list(results)
        random.Random(7).shuffle(shuffled)
        expected, got = report(results), report(shuffled)
        assert got.text == expected.text
        assert got.verdict_rows == expected.verdict_rows
        assert len(got.verdict_rows) == 3 * 2 * len(METRICS)

    def test_report_files_written(self, tmp_path):
        results = grid_results(tmp_path)
        bundle = report(results)
        out = tmp_path / "report"
        write_report_files(bundle, out)
        assert (out / "verdicts.txt").read_text(encoding="utf-8") == bundle.text
        with (out / "verdicts.csv").open(newline="") as handle:
            assert len(list(csv.DictReader(handle))) == len(bundle.verdict_rows)
        assert sorted(p.name for p in out.iterdir()) == ["verdicts.csv", "verdicts.txt"]

    def test_verdicts_computed_from_loaded_results(self, tmp_path):
        # reporting from the persisted table matches reporting from memory
        fresh = grid_results(tmp_path)
        from_disk = load_results(tmp_path)
        assert report(fresh).text == report(from_disk).text
