"""Core domain types: solutions, dominance, seeded RNG, count checks.

Everything downstream (benchmark functions, neighbor averaging, the search
engine, the quality indicators) is built on the small value types defined
here. All of them are immutable after construction; ``RngStream`` is the one
stateful object and is owned by exactly one run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ndtri

__all__ = [
    "STREAM_VERSION",
    "ContractViolationError",
    "Solution",
    "RngStream",
    "as_count",
    "dominance_matrix",
    "dominates",
    "non_dominated_filter",
    "objectives_matrix",
]


# Version of the seeded result stream. Two releases with the same version
# produce bitwise-identical runs for the same seed; a change that
# deliberately alters random draw order or result numerics bumps it and
# re-records the digests in tests/test_golden.py.
STREAM_VERSION = 1


class ContractViolationError(ValueError):
    """An operation was called with inputs that break its stated contract."""


def as_count(value, name: str, minimum: int) -> int:
    """``value`` as an int of at least ``minimum``.

    Integral numbers of any type are accepted (``3``, ``np.int64(3)``,
    ``3.0``); bools, non-integral and non-numeric values are rejected
    instead of being truncated.
    """
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractViolationError(f"{name} must be an integer, got {value!r}") from exc
    if isinstance(value, (bool, np.bool_)) or count != value:
        raise ContractViolationError(f"{name} must be an integer, got {value!r}")
    if count < minimum:
        raise ContractViolationError(f"{name} must be at least {minimum}")
    return count


def _frozen_array(values, context: str) -> np.ndarray:
    """Copy ``values`` into a read-only float vector."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ContractViolationError(f"{context}: not a numeric array") from exc
    if arr.ndim != 1:
        raise ContractViolationError(f"{context}: expected a 1-d vector, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Solution:
    """A decision vector together with its objective values.

    ``raw_objectives`` holds the objective sample exactly as drawn (noisy);
    ``objectives`` is what the search ranks on, which neighbor averaging may
    replace. For plain evaluation the two coincide. All arrays are copied
    and frozen, so a solution can be shared freely between populations and
    the evaluation history.
    """

    variables: np.ndarray
    objectives: np.ndarray
    raw_objectives: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", _frozen_array(self.variables, "variables"))
        object.__setattr__(self, "objectives", _frozen_array(self.objectives, "objectives"))
        if self.raw_objectives is not None:
            raw = _frozen_array(self.raw_objectives, "raw_objectives")
            if raw.shape != self.objectives.shape:
                raise ContractViolationError(
                    f"raw_objectives has shape {raw.shape}, objectives {self.objectives.shape}"
                )
            object.__setattr__(self, "raw_objectives", raw)

    @property
    def n_vars(self) -> int:
        return self.variables.shape[0]

    @property
    def n_objs(self) -> int:
        return self.objectives.shape[0]


class RngStream:
    """Seeded random stream backed by the PCG64 bit generator.

    The generator algorithm is pinned so that one seed identifies one draw
    sequence on every platform; two streams built from the same seed produce
    bitwise-identical values. A stream belongs to a single run. Derive
    independent streams for sub-tasks with :meth:`child` instead of sharing
    one stream across concurrent consumers.

    Gaussian draws are produced by the inverse normal CDF applied to one
    uniform draw each, so every call consumes an exact, documented number of
    underlying draws.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()) -> None:
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ContractViolationError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        self._spawn_key = tuple(int(i) for i in _spawn_key)
        seq = np.random.SeedSequence(seed, spawn_key=self._spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def random(self, size: int | tuple[int, ...] | None = None):
        """Uniform floats in [0, 1)."""
        return self._gen.random(size)

    def integers(self, high: int, size: int | None = None):
        """Uniform integers in [0, high)."""
        if high < 1:
            raise ContractViolationError("high must be at least 1")
        return self._gen.integers(0, high, size=size)

    def standard_normal(self, size: int | None = None) -> np.ndarray:
        """Standard normal draws, one uniform consumed per value.

        Uses the inverse-CDF transform; the uniform is clamped to at least
        2**-54 so a zero draw cannot map to -inf.
        """
        u = np.maximum(self._gen.random(size), 2.0**-54)
        return ndtri(u)

    def coin(self) -> bool:
        """Fair coin flip, consuming one uniform."""
        return bool(self._gen.random() < 0.5)

    def child(self, index: int) -> "RngStream":
        """Independent stream derived from this stream's seed and ``index``.

        Children are split off through the seed sequence's spawn key, so
        distinct indices give statistically independent streams and the
        same (seed, index) always gives the same child.
        """
        if index < 0:
            raise ContractViolationError("child index must be non-negative")
        return RngStream(self.seed, _spawn_key=self._spawn_key + (int(index),))


def objectives_matrix(solutions: Sequence[Solution]) -> np.ndarray:
    """Stack the objective vectors of ``solutions`` into an (n, m) matrix."""
    dims = {s.objectives.shape for s in solutions}
    if len(dims) > 1:
        raise ContractViolationError(f"mixed objective dimensions: {sorted(dims)}")
    return np.array([s.objectives for s in solutions])


def dominates(a: Solution, b: Solution) -> bool:
    """Pareto dominance for minimization.

    ``a`` dominates ``b`` when it is nowhere worse and strictly better in at
    least one objective. Equal vectors do not dominate each other.
    """
    fa, fb = a.objectives, b.objectives
    if fa.shape != fb.shape:
        raise ContractViolationError(
            f"objective dimension mismatch: {fa.shape[0]} vs {fb.shape[0]}"
        )
    return bool(np.all(fa <= fb) and np.any(fa < fb))


def dominance_matrix(objs: np.ndarray) -> np.ndarray:
    """``dom[i, j]`` is True when row i of ``objs`` Pareto-dominates row j.

    Minimization: nowhere worse and strictly better somewhere. Equal rows
    do not dominate each other.
    """
    less_eq = np.all(objs[:, None, :] <= objs[None, :, :], axis=2)
    strict = np.any(objs[:, None, :] < objs[None, :, :], axis=2)
    return less_eq & strict


def non_dominated_filter(solutions: Iterable[Solution]) -> list[Solution]:
    """Members of ``solutions`` not dominated by any other member.

    Input order is preserved. Solutions with identical objective vectors do
    not dominate one another, so duplicates survive together.
    """
    sols = list(solutions)
    if not sols:
        return []
    dominated = dominance_matrix(objectives_matrix(sols)).any(axis=0)
    return [s for s, dead in zip(sols, dominated) if not dead]
