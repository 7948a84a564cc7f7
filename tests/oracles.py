"""Test helper: a brute-force Pareto dominance oracle."""


def dominates(a, b) -> bool:
    """True when objective vector ``a`` Pareto-dominates ``b`` (minimization).

    Nowhere worse and strictly better somewhere, checked one coordinate at
    a time; equal vectors do not dominate each other.
    """
    if len(a) != len(b):
        raise ValueError(f"objective dimension mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))
