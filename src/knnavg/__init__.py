"""Noisy multi-objective optimization with nearest-neighbor fitness averaging.

The package provides the ZDT benchmark problems under additive Gaussian
noise, an elitist non-dominated-sorting genetic algorithm whose evaluation
step is pluggable, the k-nearest-neighbor averaging evaluator that smooths
noisy fitness values over the run's own evaluation history, quality
indicators computed on expectation-adjusted solution sets, a paired
statistical comparison protocol, and an experiment grid runner with
persistence and verdict reports. Everything else is imported from its
module (``knnavg.core``, ``knnavg.averaging``, ``knnavg.nsga2``, ...).
"""

from .averaging import KnnConfig
from .core import RngStream
from .experiment import ExperimentGrid, RunConfig, execute_run, expand_grid, load_results
from .metrics import DEFAULT_FRONT_SAMPLE_SIZE, compute_report
from .nsga2 import GaConfig, KnnAveraged, PlainNoisy
from .problems import NoiseSpec, ZdtProblem, true_front

__version__ = "0.1.0"
