"""End-to-end command-line behavior of every subcommand."""

import configparser
import csv
import dataclasses
import hashlib
import json
import logging
import os
import shlex
from pathlib import Path

import pytest

from knnavg import cli, experiment
from knnavg.cli import _SETTINGS, _grid_from_config, build_parser, main


def run_cli(argv):
    return main(argv)


def refuse_to_run(*args, **kwargs):
    raise AssertionError("an optimization ran although the command should fail first")


class TestFront:
    def test_stdout_csv(self, capsys):
        assert run_cli(["front", "--problem", "zdt1", "--count", "5"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "f1,f2"
        assert len(lines) == 6
        assert "np.float64" not in out
        f1, f2 = (float(v) for v in lines[1].split(","))
        assert (f1, f2) == (0.0, 1.0)
        f1, f2 = (float(v) for v in lines[-1].split(","))
        assert (f1, f2) == (1.0, 0.0)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "front.csv"
        assert run_cli(["front", "--problem", "zdt3", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        rows = target.read_text(encoding="utf-8").strip().splitlines()
        assert rows[0] == "f1,f2"
        assert len(rows) == 1001

    def test_unknown_problem_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["front", "--problem", "dtlz2"])
        assert err.value.code == 1

    def test_problem_name_is_case_insensitive(self, capsys):
        assert run_cli(["front", "--problem", "zdt3", "--count", "5"]) == 0
        lower = capsys.readouterr().out
        assert run_cli(["front", "--problem", "ZDT3", "--count", "5"]) == 0
        assert capsys.readouterr().out == lower

    def test_out_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "front.csv"
        assert run_cli(["front", "--problem", "zdt1", "--out", str(target)]) == 1
        assert f"error: cannot write {target}" in capsys.readouterr().err
        assert not target.parent.exists()


SINGLE_BASE = [
    "single", "--problem", "zdt1", "--n-vars", "2", "--sigma", "0.1",
    "--pop", "10", "--gens", "5", "--seed", "3",
]

# SHA-256 of a desk run's JSON (pop 10, 100 generations, n=2) without its
# duration_s, per arm: every key, value and its order, as the CLI prints them
SINGLE_DESK_DIGESTS = [
    ([], "1633392ca4986a0a85e74e6bf50b1c67066b2824d1fb52ac9716ae614211b598"),
    (["--k", "10", "--max-dist", "0.25"],
     "13f82759f4481b4989fc9b7d2c6f0614e51991edcbae992efcd5a31a5fe4ed88"),
]


class TestSingle:
    def test_baseline_json_payload(self, capsys):
        assert run_cli(SINGLE_BASE) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == {"variant": "zdt1", "n_vars": 2}
        assert payload["evaluator"] == "plain"
        assert payload["seed"] == 3
        assert payload["ga"] == {"pop_size": 10, "generations": 5}
        assert payload["history_length"] == 60
        assert payload["fingerprint"] == "zdt1-n2-s0.1-p10-g5-baseline-r0"
        assert len(payload["trace"]) == 6
        assert set(payload["metrics"]) == {"hv_mean_adjusted", "igd_mean_adjusted", "delta_f"}
        assert "history" not in payload

    def test_averaging_arm(self, capsys):
        assert run_cli(SINGLE_BASE + ["--k", "5", "--max-dist", "0.25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evaluator"] == "knn(k=5, max_dist=0.25)"
        assert payload["fingerprint"] == "zdt1-n2-s0.1-p10-g5-knn-k5-md0.25-r0"

    def test_problem_name_is_case_insensitive(self, capsys):
        assert run_cli(SINGLE_BASE) == 0
        lower = json.loads(capsys.readouterr().out)
        argv = [arg.upper() if arg == "zdt1" else arg for arg in SINGLE_BASE]
        assert run_cli(argv) == 0
        upper = json.loads(capsys.readouterr().out)
        del lower["duration_s"], upper["duration_s"]
        assert upper == lower

    def test_k_without_max_dist_rejected(self, capsys):
        assert run_cli(SINGLE_BASE + ["--k", "5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        run_cli(SINGLE_BASE)
        first = capsys.readouterr().out
        run_cli(SINGLE_BASE)
        second = capsys.readouterr().out
        # the duration field is the only thing allowed to change
        a = json.loads(first)
        b = json.loads(second)
        a.pop("duration_s")
        b.pop("duration_s")
        assert a == b

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "run.json"
        assert run_cli(SINGLE_BASE + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["history_length"] == 60
        assert "history" not in payload

    def test_missing_required_flag_rejected(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["single", "--problem", "zdt1"])
        assert err.value.code == 1

    def test_out_into_missing_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        target = tmp_path / "missing" / "run.json"
        assert run_cli(SINGLE_BASE + ["--out", str(target)]) == 1
        assert f"error: cannot write {target}" in capsys.readouterr().err
        assert not target.parent.exists()

    def test_out_naming_a_directory_refused_before_the_run(self, tmp_path, capsys, monkeypatch):
        # it used to run the whole optimization and fail only when writing
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        assert run_cli(SINGLE_BASE + ["--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert f"error: cannot write {tmp_path}: Is a directory" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    # every run is scored at one reference point and front sample size: the
    # flags that set them are gone, so any value is a usage error
    def test_non_finite_reference_rejected_before_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        with pytest.raises(SystemExit) as err:
            run_cli(SINGLE_BASE + ["--reference", "inf,inf"])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "error: unrecognized arguments: --reference inf,inf" in captured.err
        assert captured.out == ""

    def test_front_samples_below_two_rejected_before_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        with pytest.raises(SystemExit) as err:
            run_cli(SINGLE_BASE + ["--front-samples", "1"])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "error: unrecognized arguments: --front-samples 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "changed, message",
        [(["--seed", "-1"], "seed must be at least 0"),
         (["--k", "0", "--max-dist", "0.25"], "k must be at least 1")],
    )
    def test_bad_seed_or_k_rejected_before_the_run(self, capsys, monkeypatch, changed, message):
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        assert run_cli(SINGLE_BASE + changed) == 1  # a repeated flag's last value wins
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("arm_flags, digest", SINGLE_DESK_DIGESTS)
    def test_desk_payload_is_pinned(self, capsys, arm_flags, digest):
        argv = [*SINGLE_BASE, *arm_flags, "--gens", "100"]  # a repeated flag's last value wins
        assert run_cli(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        del payload["duration_s"]
        text = json.dumps(payload, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


RUN_FLAGS = [
    "run", "--problems", "zdt1", "--n-vars", "2", "--sigmas", "0.2",
    "--pop-sizes", "10", "--ks", "3", "--max-dists", "0.25",
    "--generations", "5",
]

REAL_GRID_WORKER = experiment._grid_worker
REAL_EXECUTE_STACK = experiment.execute_stack
# a run of the last of three stacks (baseline, k=3, k=5): on two workers it
# starts only after an earlier stack has finished
DOOMED_RUN = "zdt1-n2-s0.2-p10-g5-knn-k5-md0.25-r3"


def die_on_one_run(configs, *args):
    """Grid worker whose process dies without a word on one run, as when the OS kills it."""
    if DOOMED_RUN in [c.fingerprint for c in configs]:
        os._exit(1)
    return REAL_GRID_WORKER(configs, *args)


def tree(root):
    """Every path under ``root`` with a file's bytes, or None for a directory."""
    return {str(p): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def results_table(out_dir):
    """Persisted rows by fingerprint, without the wall-clock column."""
    with (out_dir / "results.csv").open(newline="") as handle:
        return {
            row["fingerprint"]: {k: v for k, v in row.items() if k != "duration_s"}
            for row in csv.DictReader(handle)
        }


@pytest.fixture
def plans(caplog):
    """Read the plan lines ``run_grid`` logged since the last read.

    pytest owns the root logger's handlers, so the CLI's logging setup does
    not reach them: the lines are read from the records instead.
    """
    caplog.set_level(logging.INFO, logger="knnavg.experiment")

    def read():
        lines = [r.getMessage() for r in caplog.records if "already persisted" in r.getMessage()]
        caplog.clear()
        return lines

    return read


def first_run(tmp_path):
    """Run a 4-run grid into ``tmp_path/grid``; returns the flags that name it."""
    out = tmp_path / "grid"
    assert run_cli(RUN_FLAGS + ["--reps", "2", "--out", str(out)]) == 0
    return ["--out", str(out)]


def another_base_seed(tmp_path):
    return first_run(tmp_path) + ["--base-seed", "5"]


def manifest_of_another_stream(tmp_path):
    flags = first_run(tmp_path)
    manifest = tmp_path / "grid" / "grid.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "stream_version": 1}))
    return flags


def missing_manifest(tmp_path):
    flags = first_run(tmp_path)
    (tmp_path / "grid" / "grid.json").unlink()
    return flags


def edit_table(tmp_path, edit):
    """``first_run``, then the results table's lines replaced by ``edit(lines)``."""
    flags = first_run(tmp_path)
    table = tmp_path / "grid" / "results.csv"
    lines = edit(table.read_bytes().split(b"\r\n")[:-1])
    table.write_bytes(b"".join(line + b"\r\n" for line in lines))
    return flags


def header_with_an_extra_column(tmp_path):
    return edit_table(tmp_path, lambda lines: [lines[0] + b",extra"] + [
        line + b",1" for line in lines[1:]
    ])


def unparsable_row(tmp_path):
    return edit_table(tmp_path, lambda lines: lines + [b"zdt9-n2,zdt9"])


def repeated_fingerprint(tmp_path):
    return edit_table(tmp_path, lambda lines: lines + lines[-1:])


def table_that_is_a_directory(tmp_path):
    (tmp_path / "grid" / "results.csv").mkdir(parents=True)
    return ["--out", str(tmp_path / "grid")]


def histories_that_is_a_file(tmp_path):
    flags = first_run(tmp_path)
    (tmp_path / "grid" / "histories").write_text("kept\n")
    return flags + ["--include-histories"]


def out_under_a_file(tmp_path):
    (tmp_path / "taken").write_text("kept\n")
    return ["--out", str(tmp_path / "taken" / "grid")]


# each refusal of ``knnavg run``: what makes, under tmp_path, the flags after
# ``RUN_FLAGS --reps 2`` that meet it, and the words of its one error line
RUN_REFUSALS = {
    "another-base-seed": (another_base_seed, "would run it with seed="),
    "manifest-of-another-stream": (
        manifest_of_another_stream, "differs from this package in stream_version"
    ),
    "missing-manifest": (missing_manifest, "the stream they were drawn under is unknown"),
    "header-with-an-extra-column": (
        header_with_an_extra_column, "(missing: none; unexpected: extra)"
    ),
    "unparsable-row": (unparsable_row, "results.csv: line 6: unparsable row"),
    "repeated-fingerprint": (
        repeated_fingerprint, "line 6: zdt1-n2-s0.2-p10-g5-knn-k3-md0.25-r1 repeats line 5"
    ),
    "table-that-is-a-directory": (table_that_is_a_directory, "results.csv: Is a directory"),
    "histories-that-is-a-file": (histories_that_is_a_file, "histories: File exists"),
    "out-under-a-file": (out_under_a_file, "grid/results.csv: Not a directory"),
    "parallelism-0": (lambda tmp_path: ["--parallelism", "0"], "parallelism must be at least 1"),
    "histories-without-out": (
        lambda tmp_path: ["--include-histories"], "history dumps need an output directory"
    ),
}


# a complete [grid] section, as bytes, that the config tests break
GRID_INI = (
    b"[grid]\nproblems = zdt1\nn_vars = 2\nsigmas = 0.2\npop_sizes = 10\n"
    b"ks = 3\nmax_dists = 0.25\n"
)


class TestRun:
    def test_grid_from_flags(self, tmp_path, capsys, plans):
        argv = RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        # stdout holds the outcome; the plan is logged once, with the resume count
        assert capsys.readouterr().out == "executed 4 runs, 0 failures\n"
        assert plans() == [
            "4 runs: 1 cells x (1 averaging settings + baseline) x 2 repetitions, "
            "0 already persisted"
        ]
        with (tmp_path / "results.csv").open(newline="") as handle:
            assert len(list(csv.DictReader(handle))) == 4

    def test_resume_message(self, tmp_path, capsys, plans):
        argv = RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path)]
        run_cli(argv)
        capsys.readouterr()
        plans()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == "executed 0 runs, 0 failures\n"
        assert [line.split(", ")[-1] for line in plans()] == ["4 already persisted"]

    @pytest.mark.parametrize(
        "refusal, words", RUN_REFUSALS.values(), ids=RUN_REFUSALS.keys()
    )
    def test_every_refusal_prints_one_error_line_and_runs_nothing(
        self, tmp_path, capsys, caplog, monkeypatch, refusal, words
    ):
        # every check comes before the plan is logged and before anything runs or is written
        flags = refusal(tmp_path)
        before = tree(tmp_path)
        capsys.readouterr()
        caplog.set_level(logging.INFO, logger="knnavg")
        caplog.clear()
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        assert run_cli(RUN_FLAGS + ["--reps", "2", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert words in captured.err
        assert caplog.records == []
        assert tree(tmp_path) == before

    @pytest.mark.parametrize(
        "changed, column",
        [(["--base-seed", "5"], "seed")],
    )
    def test_resume_under_other_settings_rejected(
        self, tmp_path, capsys, plans, changed, column
    ):
        # the old rows were produced under other settings: skipping them
        # would silently report results of another experiment
        argv = RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        before = (tmp_path / "results.csv").read_bytes()
        capsys.readouterr()
        assert run_cli(argv + changed) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "zdt1-n2-s0.2-p10-g5-baseline-r0" in captured.err
        assert f"with {column}=" in captured.err
        assert captured.out == "" and captured.err.count("\n") == 1
        assert (tmp_path / "results.csv").read_bytes() == before
        plans()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == "executed 0 runs, 0 failures\n"
        assert [line.split(", ")[-1] for line in plans()] == ["4 already persisted"]

    def test_resume_under_another_spelling_of_the_problem(
        self, tmp_path, capsys, monkeypatch, plans
    ):
        argv = RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        capsys.readouterr()
        plans()
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        assert run_cli(["ZDT1" if arg == "zdt1" else arg for arg in argv]) == 0
        assert capsys.readouterr().out == "executed 0 runs, 0 failures\n"
        assert [line.split(", ")[-1] for line in plans()] == ["4 already persisted"]

    def test_report_flag_is_gone(self, tmp_path, capsys, monkeypatch):
        # knnavg report is the one reporter; the flag is refused before anything runs
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        out = tmp_path / "grid"
        with pytest.raises(SystemExit) as err:
            run_cli(RUN_FLAGS + ["--reps", "2", "--out", str(out), "--report"])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "error: unrecognized arguments: --report" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_report_flag_prints_verdicts(self, tmp_path, capsys):
        argv = RUN_FLAGS + ["--reps", "5", "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == "executed 10 runs, 0 failures\n"
        assert run_cli(["report", "--in", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Verdicts versus baseline" in out
        assert "knn(3, 0.25)" in out

    def test_report_flag_with_three_repetitions_flags_cells(self, tmp_path, capsys):
        # fewer than five pairs cannot be tested; the cells say so with a *
        assert run_cli(RUN_FLAGS + ["--reps", "3", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert run_cli(["report", "--in", str(tmp_path)]) == 0
        assert "≡*" in capsys.readouterr().out

    def test_report_flag_after_a_failed_baseline_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail_baseline_r1(configs, *args, **kwargs):
            if "zdt1-n2-s0.2-p10-g5-baseline-r1" in [c.fingerprint for c in configs]:
                raise RuntimeError("synthetic fault")
            return REAL_EXECUTE_STACK(configs, *args, **kwargs)

        monkeypatch.setattr(experiment, "execute_stack", fail_baseline_r1)
        assert run_cli(RUN_FLAGS + ["--reps", "5", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().out == "executed 9 runs, 1 failures\n"
        # the failed baseline leaves its averaging run without a partner
        assert run_cli(["report", "--in", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: missing baseline partners: zdt1-n2-s0.2-p10-g5-baseline-r1\n"
        )

    def test_report_flag_when_every_run_fails(self, tmp_path, capsys, monkeypatch, plans):
        monkeypatch.setattr(experiment, "execute_stack", refuse_to_run)
        argv = RUN_FLAGS + ["--reps", "5", "--out", str(tmp_path)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "executed 0 runs, 10 failures\n"
        assert "error:" not in captured.err
        assert not (tmp_path / "results.csv").exists()
        monkeypatch.undo()
        assert run_cli(argv) == 0
        capsys.readouterr()
        plans()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == "executed 0 runs, 0 failures\n"
        assert [line.split(", ")[-1] for line in plans()] == ["10 already persisted"]

    # as in TestSingle, the flags are gone and any value is a usage error
    def test_non_finite_reference_rejected_before_any_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        out = tmp_path / "grid"
        with pytest.raises(SystemExit) as err:
            run_cli(RUN_FLAGS + ["--reps", "2", "--reference", "1,nan", "--out", str(out)])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "error: unrecognized arguments: --reference 1,nan" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_front_samples_below_two_rejected_before_any_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        out = tmp_path / "grid"
        with pytest.raises(SystemExit) as err:
            run_cli(RUN_FLAGS + ["--reps", "2", "--front-samples", "1", "--out", str(out)])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "error: unrecognized arguments: --front-samples 1" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--parallelism", "0", "parallelism must be at least 1"),
    ])
    def test_bad_counts_refused_before_the_plan_prints(
        self, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        out = tmp_path / "grid"
        assert run_cli(RUN_FLAGS + ["--reps", "2", flag, value, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err
        assert not out.exists()

    def test_histories_without_out_refused_before_the_plan_prints(self, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        assert run_cli(RUN_FLAGS + ["--reps", "2", "--include-histories"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: history dumps need an output directory" in captured.err

    @pytest.mark.parametrize("under", [(), ("grid",)])
    def test_out_naming_a_file_refused_before_the_plan_prints(
        self, tmp_path, capsys, monkeypatch, under
    ):
        # refused when run_grid reads the table, in the library's words
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        (tmp_path / "taken").write_text("kept\n")
        out = tmp_path.joinpath("taken", *under)
        assert run_cli(RUN_FLAGS + ["--reps", "2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {out / 'results.csv'}: Not a directory\n"
        assert (tmp_path / "taken").read_text() == "kept\n"

    def test_resume_into_another_stream_rejected(self, tmp_path, capsys, plans):
        argv = RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        manifest = tmp_path / "grid.json"
        written = manifest.read_text()
        manifest.write_text(json.dumps({**json.loads(written), "stream_version": 1}))
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert "differs from this package in stream_version" in capsys.readouterr().err
        # runs without a manifest, whose stream nothing records: use another
        # directory; the library's words, with no flag appended to them
        manifest.unlink()
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {tmp_path} holds runs but no grid.json: the stream they were drawn "
            "under is unknown; write to another output directory\n"
        )
        manifest.write_text(written)
        plans()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == "executed 0 runs, 0 failures\n"
        assert [line.split(", ")[-1] for line in plans()] == ["4 already persisted"]

    def test_incomplete_grid_rejected(self, capsys):
        assert run_cli(["run", "--problems", "zdt1"]) == 1
        err = capsys.readouterr().err
        assert "grid is incomplete" in err
        assert "n_vars" in err

    @pytest.mark.parametrize(
        "flag, levels, message",
        [("--problems", "zdt1,ZDT1", "problems repeats 'zdt1'"), ("--ks", "3,3", "ks repeats 3"),
         ("--sigmas", "0.2,0.20", "sigmas repeats 0.2")],
    )
    def test_repeated_level_refused_before_the_plan_prints(
        self, tmp_path, capsys, monkeypatch, flag, levels, message
    ):
        # each used to run every run twice, into a table its own report refused
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        out = tmp_path / "grid"
        assert run_cli(RUN_FLAGS + ["--reps", "2", flag, levels, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err
        assert not out.exists()

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "campaign.ini"
        config.write_text(
            "[grid]\n"
            "problems = zdt1\n"
            "n_vars = 2\n"
            "sigmas = 0.2\n"
            "pop_sizes = 10\n"
            "ks = 3\n"
            "max_dists = 0.25\n"
            "[run]\n"
            "repetitions = 2\n"
            "generations = 5\n"
            "base_seed = 0\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        assert run_cli(["run", "--config", str(config), "--out", str(out_dir)]) == 0
        assert "executed 4 runs" in capsys.readouterr().out
        with (out_dir / "results.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        # the scoring columns are gone: every run is scored at the same constants
        assert list(rows[0]) == list(experiment._RESULT_COLUMNS)
        assert not {"ref_f1", "ref_f2", "front_sample_size"} & set(rows[0])

    def test_flags_override_config(self, tmp_path, capsys, plans):
        config = tmp_path / "campaign.ini"
        config.write_text(
            "[grid]\n"
            "problems = zdt1\n"
            "n_vars = 2\n"
            "sigmas = 0.2\n"
            "pop_sizes = 10\n"
            "ks = 3\n"
            "max_dists = 0.25\n"
            "[run]\n"
            "repetitions = 30\n"
            "generations = 5\n",
            encoding="utf-8",
        )
        assert run_cli(["run", "--config", str(config), "--reps", "1"]) == 0
        assert capsys.readouterr().out == "executed 2 runs, 0 failures\n"
        assert [line.split(", ")[0] for line in plans()] == [
            "2 runs: 1 cells x (1 averaging settings + baseline) x 1 repetitions"
        ]

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli(["run", "--config", str(tmp_path / "nope.ini")]) == 1
        assert "config file not found" in capsys.readouterr().err

    def test_misplaced_config_key_rejected(self, tmp_path, capsys):
        # a key in the wrong section must not be silently ignored
        config = tmp_path / "campaign.ini"
        config.write_text(
            "[grid]\n"
            "problems = zdt1\n"
            "repetitions = 6\n",
            encoding="utf-8",
        )
        assert run_cli(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "unknown key 'repetitions' in [grid]" in err
        assert "[run]" in err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[grid]\nks = 2.7\n", "[grid] ks"),
            ("[grid]\nproblems = zdt1\nn_vars = 2\nsigmas = 0.2\npop_sizes = 10\n"
             "ks = 3\nmax_dists = 0.25\n[run]\nrepetitions = ten\n", "[run] repetitions"),
        ],
        ids=["grid-ks", "run-repetitions"],
    )
    def test_malformed_config_number_rejected(self, tmp_path, capsys, text, where):
        # used to end in an uncaught ValueError traceback
        config = tmp_path / "campaign.ini"
        config.write_text(text, encoding="utf-8")
        assert run_cli(["run", "--config", str(config)]) == 1
        assert f"error: {where}: cannot parse" in capsys.readouterr().err

    def test_unknown_config_section_rejected(self, tmp_path, capsys):
        # [metrics] held the reference point and front sample size, now constants
        config = tmp_path / "campaign.ini"
        for section, key in (("grids", "problems = zdt1"), ("metrics", "reference_point = 5, 5")):
            config.write_text(f"[{section}]\n{key}\n", encoding="utf-8")
            assert run_cli(["run", "--config", str(config)]) == 1
            assert f"unknown config section [{section}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, flags, message",
        [
            (GRID_INI + b"ks = 5\n", [],
             "cannot read config file {config}: While reading from '{config}' [line 8]: "
             "option 'ks' in section 'grid' already exists"),
            (GRID_INI + b"[grid]\nks = 5\n", [],
             "cannot read config file {config}: While reading from '{config}' [line 8]: "
             "section 'grid' already exists"),
            (b"problems = zdt1\n", [],
             "cannot read config file {config}: File contains no section headers."),
            (GRID_INI + b"[run]\ngenerations\n", [],
             "cannot read config file {config}: Source contains parsing errors: '{config}' "
             "[line 9]: 'generations\\n'"),
            (GRID_INI.replace(b"zdt1", b"zdt%1"), [], "unknown variant 'zdt%1'"),
            (GRID_INI.replace(b"sigmas = 0.2", b"sigmas = %(x)s"), [],
             "[grid] sigmas: cannot parse '%(x)s'"),
            (b"[DEFAULT]\nrepetitions = 2\n" + GRID_INI, [], "unknown config section [DEFAULT]"),
            # beside [run] alone the key used to be applied without a word
            (b"[DEFAULT]\nrepetitions = 2\n[run]\ngenerations = 5\n", RUN_FLAGS[1:],
             "unknown config section [DEFAULT]"),
            (b"\xff" + GRID_INI, [],
             "cannot read config file {config}: 'utf-8' codec can't decode byte 0xff"),
            (None, [], "cannot read config file {config}: Is a directory"),
        ],
        ids=["repeated-key", "repeated-section", "no-section-header", "key-without-equals",
             "percent", "interpolation", "default-section", "default-beside-run",
             "byte-0xff", "directory"],
    )
    def test_malformed_config_file_refused_by_name(
        self, tmp_path, capsys, monkeypatch, content, flags, message
    ):
        # each used to end in a configparser or decoding traceback, to be
        # refused as a misplaced key, to apply silently, or to read as missing
        config = tmp_path / "campaign.ini"
        if content is None:
            config.mkdir()
        else:
            config.write_bytes(content)
        monkeypatch.setattr(cli, "run_grid", refuse_to_run)
        out = tmp_path / "grid"
        assert run_cli(["run", "--config", str(config), *flags, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"error: {message.format(config=config)}")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("table", ["results.csv", "failures.csv"])
    def test_table_that_is_a_directory_refused_by_name(self, tmp_path, capsys, monkeypatch, table):
        # used to end in an IsADirectoryError traceback
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        (tmp_path / table).mkdir()
        before = tree(tmp_path)
        assert run_cli(RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read {tmp_path / table}: Is a directory\n"
        assert tree(tmp_path) == before

    def test_histories_path_that_is_a_file_refused_before_anything_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        # every stack used to fail on it, and then every run again one at a time
        monkeypatch.setattr(experiment, "run_stack", refuse_to_run)
        (tmp_path / "histories").write_text("kept\n")
        before = tree(tmp_path)
        argv = RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path), "--include-histories"]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {tmp_path / 'histories'}: File exists\n"
        assert tree(tmp_path) == before

    def test_failures_table_is_a_log(self, tmp_path, capsys, monkeypatch, plans):
        # a run that failed and then succeeded on a resume keeps its failure row
        victim = "zdt1-n2-s0.2-p10-g5-baseline-r1"

        def fail_victim(configs, *args, **kwargs):
            if victim in [c.fingerprint for c in configs]:
                raise RuntimeError("synthetic fault")
            return REAL_EXECUTE_STACK(configs, *args, **kwargs)

        argv = RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path)]
        monkeypatch.setattr(experiment, "execute_stack", fail_victim)
        assert run_cli(argv) == 2
        monkeypatch.undo()
        plans()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.endswith("executed 1 runs, 0 failures\n")
        assert [line.split(", ")[-1] for line in plans()] == ["3 already persisted"]
        assert victim in results_table(tmp_path)
        with (tmp_path / "failures.csv").open(newline="") as handle:
            assert [row["fingerprint"] for row in csv.DictReader(handle)] == [victim]
        assert run_cli(["report", "--in", str(tmp_path)]) == 0
        assert "Verdicts versus baseline" in capsys.readouterr().out

    def test_parallel_flag(self, tmp_path, capsys):
        argv = RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path), "--parallelism", "2"]
        assert run_cli(argv) == 0
        assert "executed 4 runs, 0 failures" in capsys.readouterr().out

    def test_dead_worker_stops_the_grid_and_resumes(
        self, tmp_path, capsys, caplog, monkeypatch, plans
    ):
        out = tmp_path / "grid"
        flags = RUN_FLAGS + ["--ks", "3,5", "--reps", "5"]
        argv = flags + ["--out", str(out), "--parallelism", "2"]
        monkeypatch.setattr(experiment, "_grid_worker", die_on_one_run)
        assert run_cli(argv) == 2
        persisted = results_table(out)
        unfinished = 15 - len(persisted)
        assert DOOMED_RUN not in persisted and unfinished >= 1
        # the runs the dead pool could not finish are not failures
        assert not (out / "failures.csv").exists()
        assert capsys.readouterr().out == f"executed {len(persisted)} runs, 0 failures\n"
        stops = [r.getMessage() for r in caplog.records if "broke the pool" in r.getMessage()]
        assert len(stops) == 1 and f": {unfinished} runs were not attempted" in stops[0]

        monkeypatch.undo()
        plans()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.startswith(f"executed {unfinished} runs, 0 failures\n")
        assert [line.split(", ")[-1] for line in plans()] == [
            f"{15 - unfinished} already persisted"
        ]
        assert run_cli(flags + ["--out", str(tmp_path / "serial")]) == 0
        assert results_table(out) == results_table(tmp_path / "serial")


class TestReport:
    def test_report_from_disk(self, tmp_path, capsys):
        run_cli(RUN_FLAGS + ["--reps", "5", "--out", str(tmp_path)])
        capsys.readouterr()
        assert run_cli(["report", "--in", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Verdicts versus baseline" in out
        assert "all noise levels pooled" in out

    def test_report_files_written(self, tmp_path, capsys):
        run_cli(RUN_FLAGS + ["--reps", "5", "--out", str(tmp_path)])
        report_dir = tmp_path / "report"
        assert run_cli(["report", "--in", str(tmp_path), "--out", str(report_dir)]) == 0
        assert sorted(p.name for p in report_dir.iterdir()) == ["verdicts.csv", "verdicts.txt"]

    def test_missing_results_dir(self, tmp_path, capsys):
        assert run_cli(["report", "--in", str(tmp_path / "empty")]) == 1
        assert "no results table" in capsys.readouterr().err

    def test_results_table_that_is_a_directory_refused_by_name(self, tmp_path, capsys):
        # used to end in an IsADirectoryError traceback
        (tmp_path / "results.csv").mkdir()
        before = tree(tmp_path)
        assert run_cli(["report", "--in", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {tmp_path / 'results.csv'}: Is a directory\n"
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("under", [(), ("report",)])
    def test_out_naming_a_file_refused_before_anything_prints(self, tmp_path, capsys, under):
        grid = tmp_path / "grid"
        run_cli(RUN_FLAGS + ["--reps", "5", "--out", str(grid)])
        capsys.readouterr()
        (tmp_path / "taken").write_text("kept\n")
        out = tmp_path.joinpath("taken", *under)
        assert run_cli(["report", "--in", str(grid), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write {out}: " in captured.err
        assert (tmp_path / "taken").read_text() == "kept\n"

    @pytest.mark.parametrize("name", ["verdicts.txt", "verdicts.csv"])
    def test_report_file_that_cannot_be_written_refused_by_name(self, tmp_path, capsys, name):
        # used to end in an IsADirectoryError traceback
        grid, out = tmp_path / "grid", tmp_path / "report"
        run_cli(RUN_FLAGS + ["--reps", "5", "--out", str(grid)])
        (out / name).mkdir(parents=True)
        capsys.readouterr()
        assert run_cli(["report", "--in", str(grid), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out / name}: Is a directory\n"
        # the tables used to print, and the files before it to be written
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == [name]

    def test_table_with_the_scoring_columns_refused_by_name(self, tmp_path, capsys):
        # every results.csv written before the scoring columns were dropped
        grid = tmp_path / "grid"
        run_cli(RUN_FLAGS + ["--reps", "5", "--out", str(grid)])
        table = grid / "results.csv"
        text = table.read_text()
        at = text.index(",final_set_size,")
        table.write_text(text[:at] + ",ref_f1,ref_f2,front_sample_size" + text[at:])
        capsys.readouterr()
        before = tree(tmp_path)
        assert run_cli(["report", "--in", str(grid), "--out", str(tmp_path / "report")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {table}: line 1: not this version's results header "
            "(missing: none; unexpected: ref_f1, ref_f2, front_sample_size)\n"
        )
        assert tree(tmp_path) == before

    def test_alpha_is_not_an_option(self, tmp_path, capsys):
        # the significance level is stats.ALPHA; --alpha used to set another
        run_cli(RUN_FLAGS + ["--reps", "5", "--out", str(tmp_path)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            run_cli(["report", "--in", str(tmp_path), "--alpha", "0.1"])
        assert err.value.code == 1
        assert "unrecognized arguments: --alpha 0.1" in capsys.readouterr().err


class TestParsing:
    def test_no_subcommand_rejected(self):
        with pytest.raises(SystemExit) as err:
            run_cli([])
        assert err.value.code == 1

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["front", "--problem", "zdt1", "--bogus"])
        assert err.value.code == 1


def readme_commands():
    """Every ``knnavg <subcommand> --flag ...`` line of README.md, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("knnavg ") and " --" in line:
            commands.append(line)
    return commands


class TestReadme:
    def test_every_readme_command_parses(self):
        commands = readme_commands()
        parser = build_parser()
        for command in commands:
            parser.parse_args(shlex.split(command)[1:])
        assert {shlex.split(c)[1] for c in commands} == {"run", "single", "report", "front"}


# one value of each setting of ``run``, as typed after its flag or its INI key
SETTING_TEXT = {
    "problems": "zdt1, zdt3", "n_vars": "2, 5", "sigmas": "0.0, 0.1", "pop_sizes": "10",
    "ks": "3, 5", "max_dists": "0.25", "repetitions": "4", "generations": "7",
    "base_seed": "11",
}


def grid_fields(argv, config=None):
    """The fields of the grid ``run`` would execute for ``argv``."""
    return dataclasses.asdict(_grid_from_config(config, build_parser().parse_args(argv)))


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_ini_example():
    """The ``[grid]``/``[run]`` example of README.md."""
    return README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]


class TestSettingsTable:
    @pytest.mark.parametrize(
        "section, key, flag, parse",
        [row[:4] for row in _SETTINGS], ids=[row[1] for row in _SETTINGS],
    )
    def test_flag_and_ini_key_give_the_same_run(self, tmp_path, section, key, flag, parse):
        others = [
            arg for _, other, other_flag, *_ in _SETTINGS if other != key
            for arg in (other_flag, SETTING_TEXT[other])
        ]
        text = SETTING_TEXT[key]
        config = tmp_path / "one.ini"
        config.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
        by_flag = grid_fields(["run", *others, flag, text])
        by_key = grid_fields(["run", *others, "--config", str(config)], str(config))
        assert by_flag == by_key
        # the setting arrived, in the form its type stores
        got = by_flag["n_vars_list" if key == "n_vars" else key]
        expected = parse(text)
        assert (list(got) if isinstance(expected, list) else got) == expected

    def test_readme_ini_example_parses(self, tmp_path):
        config = tmp_path / "desk.ini"
        config.write_text(readme_ini_example(), encoding="utf-8")
        grid = grid_fields(["run", "--config", str(config)], str(config))
        assert grid["problems"] == ("zdt1", "zdt3") and grid["repetitions"] == 10
        # the example sets every key, each in its own section
        parser = configparser.ConfigParser()
        parser.read_string(readme_ini_example())
        written = [(name, key) for name in parser.sections() for key in parser[name]]
        assert written == [(section, key) for section, key, *_ in _SETTINGS]

    def test_readme_settings_table_matches(self):
        rows = [
            tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
            for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `--")
        ]
        assert rows == [(flag, f"[{section}]", key) for section, key, flag, *_ in _SETTINGS]
