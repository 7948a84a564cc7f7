"""A seed-paired desk experiment, from grid to verdict table.

Runs a small grid (one problem, two noise levels, a handful of repetitions),
persists results to demos/out/desk/, then prints the statistical comparison
of each averaging setting against the baseline. Re-running the script skips
the persisted runs, so it doubles as a resume demonstration.

    python3 demos/04_desk_experiment.py
"""

import pathlib
import sys
import time

from knnavg.core import ContractViolationError
from knnavg.experiment import (
    ExperimentGrid,
    load_results,
    report,
    run_grid,
    write_report_files,
)

OUT = pathlib.Path(__file__).parent / "out" / "desk"

grid = ExperimentGrid(
    problems=("zdt1",),
    n_vars_list=(2,),
    sigmas=(0.0, 0.1),
    pop_sizes=(10,),
    ks=(5, 10),
    max_dists=(0.25,),
    repetitions=8,
    generations=60,
    base_seed=11,
)

print(f"grid: {grid.cell_count} cells x "
      f"({grid.settings_per_cell} averaging settings + baseline) x "
      f"{grid.repetitions} repetitions = {grid.total_run_count} runs")
print(f"results are persisted under {OUT}")
print()

started = time.monotonic()
try:
    outcome = run_grid(grid, out_dir=OUT)
except ContractViolationError as exc:
    # typically a directory left by an older checkout, whose random stream
    # differs from this one: its runs cannot be mixed with new ones
    print(f"error: {exc}", file=sys.stderr)
    print(f"this demo always writes to {OUT}: delete it and run the demo again",
          file=sys.stderr)
    sys.exit(1)
elapsed = time.monotonic() - started
print(f"executed {len(outcome.results)} new runs, "
      f"skipped {outcome.skipped} already persisted, "
      f"{len(outcome.failures)} failures, {elapsed:.1f}s")
print()

# report on the persisted table, which resume keeps complete even when
# this invocation executed nothing new
bundle = report(load_results(OUT))
print(bundle.text)

write_report_files(bundle, OUT)
print(f"wrote {OUT / 'verdicts.txt'} and verdicts.csv")
print()
print("reading the table: at sigma=0.1 the averaging arms should take the")
print("error metric (delta_f), while at sigma=0.0 averaging has nothing to")
print("denoise and the baseline keeps or wins the quality metrics. Eight")
print("repetitions is the low end for the signed-rank test, so borderline")
print("cells can land on 'no significant difference'.")
