"""End-to-end command-line behavior of every subcommand."""

import csv
import json
import shlex
from pathlib import Path

import pytest

from knnavg.cli import build_parser, main


def run_cli(argv):
    return main(argv)


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


RUN_FLAGS = [
    "run", "--problems", "zdt1", "--n-vars", "2", "--sigmas", "0.2",
    "--pop-sizes", "10", "--ks", "3", "--max-dists", "0.25",
    "--generations", "5",
]


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

    def test_report_flag_prints_verdicts(self, tmp_path, capsys):
        argv = RUN_FLAGS + ["--reps", "5", "--out", str(tmp_path), "--report"]
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert "Verdicts versus baseline" in out
        assert "knn(3, 0.25)" in out

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
