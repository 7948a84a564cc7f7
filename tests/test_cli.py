"""End-to-end command-line behavior of every subcommand."""

import csv
import json
import os
import shlex
from pathlib import Path

import pytest

from knnavg import experiment
from knnavg.cli import build_parser, main


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


class TestSingle:
    def test_baseline_json_payload(self, capsys):
        assert run_cli(SINGLE_BASE) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == {"variant": "zdt1", "n_vars": 2}
        assert payload["evaluator"] == "plain"
        assert payload["seed"] == 3
        assert payload["ga"] == {
            "pop_size": 10, "generations": 5, "crossover_prob": 0.9, "mutation_prob": 1.0,
        }
        assert payload["history_length"] == 60
        assert payload["fingerprint"] == "zdt1-n2-s0.1-p10-g5-baseline-r0"
        assert len(payload["trace"]) == 6
        assert set(payload["metrics"]) == {
            "hv_mean_adjusted", "igd_mean_adjusted", "delta_f",
            "reference_point", "front_sample_size",
        }
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
        monkeypatch.setattr(experiment, "run_optimization", refuse_to_run)
        target = tmp_path / "missing" / "run.json"
        assert run_cli(SINGLE_BASE + ["--out", str(target)]) == 1
        assert f"error: cannot write {target}" in capsys.readouterr().err
        assert not target.parent.exists()

    def test_non_finite_reference_rejected_before_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "run_optimization", refuse_to_run)
        assert run_cli(SINGLE_BASE + ["--reference", "inf,inf"]) == 1
        captured = capsys.readouterr()
        assert "error: reference point needs two finite coordinates" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "changed, message",
        [(["--seed", "-1"], "seed must be at least 0"),
         (["--k", "0", "--max-dist", "0.25"], "k must be at least 1")],
    )
    def test_bad_seed_or_k_rejected_before_the_run(self, capsys, monkeypatch, changed, message):
        monkeypatch.setattr(experiment, "run_optimization", refuse_to_run)
        assert run_cli(SINGLE_BASE + changed) == 1  # a repeated flag's last value wins
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    def test_front_samples_below_two_rejected_before_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "run_optimization", refuse_to_run)
        assert run_cli(SINGLE_BASE + ["--front-samples", "1"]) == 1
        captured = capsys.readouterr()
        assert "error: front sample size must be at least 2" in captured.err
        assert captured.out == ""


RUN_FLAGS = [
    "run", "--problems", "zdt1", "--n-vars", "2", "--sigmas", "0.2",
    "--pop-sizes", "10", "--ks", "3", "--max-dists", "0.25",
    "--generations", "5",
]

REAL_GRID_WORKER = experiment._grid_worker
DOOMED_RUN = "zdt1-n2-s0.2-p10-g5-baseline-r3"


def die_on_one_run(config, *args):
    """Grid worker whose process dies without a word on one run, as when the OS kills it."""
    if config.fingerprint == DOOMED_RUN:
        os._exit(1)
    return REAL_GRID_WORKER(config, *args)


def results_table(out_dir):
    """Persisted rows by fingerprint, without the wall-clock column."""
    with (out_dir / "results.csv").open(newline="") as handle:
        return {
            row["fingerprint"]: {k: v for k, v in row.items() if k != "duration_s"}
            for row in csv.DictReader(handle)
        }


class TestRun:
    def test_grid_from_flags(self, tmp_path, capsys):
        argv = RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert "4 runs: 1 cells x (1 averaging settings + baseline) x 2 repetitions" in out
        assert "executed 4 runs, 0 failures" in out
        with (tmp_path / "results.csv").open(newline="") as handle:
            assert len(list(csv.DictReader(handle))) == 4

    def test_resume_message(self, tmp_path, capsys):
        argv = RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path)]
        run_cli(argv)
        capsys.readouterr()
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert "skipped 4 already persisted runs" in out
        assert "executed 0 runs, 0 failures" in out

    @pytest.mark.parametrize(
        "changed, column",
        [(["--base-seed", "5"], "seed"), (["--reference", "5,5"], "ref_f1/ref_f2")],
    )
    def test_resume_under_other_settings_rejected(self, tmp_path, capsys, changed, column):
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
        assert "skipped" not in captured.out
        assert (tmp_path / "results.csv").read_bytes() == before
        assert run_cli(argv) == 0
        assert "skipped 4 already persisted runs" in capsys.readouterr().out

    def test_resume_under_another_spelling_of_the_problem(self, tmp_path, capsys, monkeypatch):
        argv = RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(experiment, "run_optimization", refuse_to_run)
        assert run_cli(["ZDT1" if arg == "zdt1" else arg for arg in argv]) == 0
        assert "skipped 4 already persisted runs" in capsys.readouterr().out

    def test_report_flag_prints_verdicts(self, tmp_path, capsys):
        argv = RUN_FLAGS + ["--reps", "5", "--out", str(tmp_path), "--report"]
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert "Verdicts versus baseline" in out
        assert "knn(3, 0.25)" in out

    def test_non_finite_reference_rejected_before_any_run(self, tmp_path, capsys, monkeypatch):
        # nan != nan: persisted, such rows could never be reported together
        monkeypatch.setattr(experiment, "run_optimization", refuse_to_run)
        out = tmp_path / "grid"
        assert run_cli(RUN_FLAGS + ["--reps", "2", "--reference", "1,nan", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: reference point needs two finite coordinates" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_front_samples_below_two_rejected_before_any_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "run_optimization", refuse_to_run)
        out = tmp_path / "grid"
        assert run_cli(RUN_FLAGS + ["--reps", "2", "--front-samples", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: front sample size must be at least 2" in captured.err
        assert "executed" not in captured.out
        assert not out.exists()

    def test_resume_into_another_stream_rejected(self, tmp_path, capsys):
        argv = RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        manifest = tmp_path / "grid.json"
        written = manifest.read_text()
        manifest.write_text(json.dumps({**json.loads(written), "stream_version": 1}))
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert "differs from this package in stream_version" in capsys.readouterr().err
        # a table persisted before manifests existed: stream 1, use another --out
        manifest.unlink()
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert "stream version 1" in err and "--out" in err
        manifest.write_text(written)
        assert run_cli(argv) == 0
        assert "skipped 4 already persisted runs" in capsys.readouterr().out

    def test_incomplete_grid_rejected(self, capsys):
        assert run_cli(["run", "--problems", "zdt1"]) == 1
        err = capsys.readouterr().err
        assert "grid is incomplete" in err
        assert "n_vars" in err

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
            "base_seed = 0\n"
            "[metrics]\n"
            "reference_point = 11, 11\n"
            "front_sample_size = 500\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        assert run_cli(["run", "--config", str(config), "--out", str(out_dir)]) == 0
        assert "executed 4 runs" in capsys.readouterr().out
        with (out_dir / "results.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["front_sample_size"] == "500"

    def test_flags_override_config(self, tmp_path, capsys):
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
        assert "x 1 repetitions" in capsys.readouterr().out

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
        config = tmp_path / "campaign.ini"
        config.write_text("[grids]\nproblems = zdt1\n", encoding="utf-8")
        assert run_cli(["run", "--config", str(config)]) == 1
        assert "unknown config section [grids]" in capsys.readouterr().err

    def test_parallel_flag(self, tmp_path, capsys):
        argv = RUN_FLAGS + ["--reps", "2", "--out", str(tmp_path), "--parallelism", "2"]
        assert run_cli(argv) == 0
        assert "executed 4 runs, 0 failures" in capsys.readouterr().out

    def test_dead_worker_stops_the_grid_and_resumes(self, tmp_path, capsys, caplog, monkeypatch):
        out = tmp_path / "grid"
        argv = RUN_FLAGS + ["--reps", "5", "--out", str(out), "--parallelism", "2", "--report"]
        monkeypatch.setattr(experiment, "_grid_worker", die_on_one_run)
        assert run_cli(argv) == 2
        persisted = results_table(out)
        unfinished = 10 - len(persisted)
        assert DOOMED_RUN not in persisted and unfinished >= 1
        # the runs the dead pool could not finish are not failures
        assert not (out / "failures.csv").exists()
        assert "Verdicts" not in capsys.readouterr().out
        stops = [r.getMessage() for r in caplog.records if "broke the pool" in r.getMessage()]
        assert len(stops) == 1 and f": {unfinished} runs were not attempted" in stops[0]

        monkeypatch.undo()
        assert run_cli(argv) == 0
        assert f"skipped {10 - unfinished} already persisted runs" in capsys.readouterr().out
        assert run_cli(RUN_FLAGS + ["--reps", "5", "--out", str(tmp_path / "serial")]) == 0
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
        assert (report_dir / "verdicts.txt").exists()
        assert (report_dir / "verdicts.csv").exists()
        assert (report_dir / "metrics_long.csv").exists()

    def test_missing_results_dir(self, tmp_path, capsys):
        assert run_cli(["report", "--in", str(tmp_path / "empty")]) == 1
        assert "no results table" in capsys.readouterr().err


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
