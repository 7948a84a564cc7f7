"""Core domain types: batches, seeded RNG, count and seed checks.

Everything downstream (benchmark functions, neighbor averaging, the search
engine, the quality indicators) is built on the small value types defined
here. A ``Batch`` holds solutions as the rows of three matrices; the search
loop, its results and the scoring all work on batches. A ``Solution`` is
one row, built only when a batch is iterated. All of them are immutable
after construction; ``RngStream`` is the one stateful object and is owned
by exactly one run.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "STREAM_VERSION",
    "ContractViolationError",
    "Solution",
    "Batch",
    "RngStream",
    "as_count",
    "as_real",
    "as_seed",
    "as_streams",
]


# Version of the seeded result stream. Two releases with the same version
# produce bitwise-identical runs for the same seed; a change that
# deliberately alters random draw order or result numerics bumps it and
# re-records the digests in tests/test_golden.py. numpy does not promise to
# keep its Generator methods' output across releases, so grids record both.
# 2: fixed-shape block draws per generation and numpy's normals. 3: the
# averaging variances are running moments merged per batch, and weighted
# means are summed left to right without BLAS (plain runs are unchanged).
STREAM_VERSION = 3


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


def as_real(value, name: str) -> float:
    """``value`` as a float; bools, None, strings and non-numbers are rejected, not converted."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ContractViolationError(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_seed(value, name: str = "seed") -> int:
    """``value`` as a seed: an integral count that fits in 64 unsigned bits."""
    seed = as_count(value, name, 0)
    if seed >= 2**64:
        raise ContractViolationError(f"{name} must fit in an unsigned 64-bit integer")
    return seed


def _frozen_array(values, context: str, ndim: int = 1) -> np.ndarray:
    """Copy ``values`` into a read-only float array of ``ndim`` dimensions."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ContractViolationError(f"{context}: not a numeric array") from exc
    if arr.ndim != ndim:
        raise ContractViolationError(f"{context}: expected {ndim}-d, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Solution:
    """A decision vector together with its objective values.

    ``raw_objectives`` holds the objective sample exactly as drawn (noisy);
    ``objectives`` is what the search ranks on, which neighbor averaging may
    replace. For plain evaluation the two coincide. All arrays are copied
    and frozen, so a solution can be shared freely between populations and
    the evaluation history. Iterating a :class:`Batch` yields its rows as
    solutions; nothing else in the package builds one.
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


@dataclass(frozen=True, eq=False)
class Batch:
    """Solutions as the rows of three read-only matrices.

    Row i of ``variables`` (b, n), ``objectives`` (b, m) and
    ``raw_objectives`` (b, m) is one solution, with the meaning the fields
    of :class:`Solution` have. The matrices are copied and frozen. Iterating
    yields the rows as :class:`Solution` objects.
    """

    variables: np.ndarray
    objectives: np.ndarray
    raw_objectives: np.ndarray

    def __post_init__(self) -> None:
        for name in ("variables", "objectives", "raw_objectives"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), name, ndim=2))
        rows = self.variables.shape[0]
        if self.raw_objectives.shape != self.objectives.shape or self.objectives.shape[0] != rows:
            raise ContractViolationError(
                f"mismatched shapes: variables {self.variables.shape}, objectives "
                f"{self.objectives.shape}, raw_objectives {self.raw_objectives.shape}"
            )

    def __len__(self) -> int:
        return self.variables.shape[0]

    def __iter__(self) -> Iterator[Solution]:
        for x, f, raw in zip(self.variables, self.objectives, self.raw_objectives):
            yield Solution(variables=x, objectives=f, raw_objectives=raw)


class RngStream:
    """Seeded random stream backed by the PCG64 bit generator.

    The generator algorithm is pinned so that one seed identifies one draw
    sequence on every platform; two streams built from the same seed produce
    bitwise-identical values. A stream belongs to a single run. The seed is
    an integral count below 2**64; anything else is rejected, not truncated.

    Bounded integers and Gaussian draws (numpy's ziggurat, Marsaglia &
    Tsang, 2000) consume a varying number of underlying bits per value, so
    callers keep the stream position a function of the seed alone by
    drawing blocks of fixed shape.
    """

    def __init__(self, seed: int) -> None:
        self.seed = as_seed(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def random(self, size: int | tuple[int, ...] | None = None):
        """Uniform floats in [0, 1)."""
        return self._gen.random(size)

    def integers(self, high: int, size: int | tuple[int, ...] | None = None):
        """Uniform integers in [0, high)."""
        if high < 1:
            raise ContractViolationError("high must be at least 1")
        return self._gen.integers(0, high, size=size)

    def standard_normal(self, size: int | tuple[int, ...] | None = None) -> np.ndarray:
        """Standard normal draws."""
        return self._gen.standard_normal(size)


def as_streams(rng) -> tuple[RngStream, ...]:
    """The streams of a stack of runs: one ``RngStream``, or a sequence with one per run."""
    return (rng,) if isinstance(rng, RngStream) else tuple(rng)

