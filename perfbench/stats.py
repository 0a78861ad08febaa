"""Order statistics shared by the run and suite commands."""

from __future__ import annotations

import statistics

# The tail percentile is the highest one with at least this many samples
# beyond it, so that a single slow sample cannot set it.
TAIL_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value) of the highest sample rank with `beyond` samples
    ranked above it.

    For n sorted samples that is the sample at 0-based rank n-1-beyond, the
    (n-beyond)/n percentile. Raises ValueError when n <= beyond, where no
    such percentile exists.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"{n} samples leave none with {beyond} beyond it")
    return 100.0 * (n - beyond) / n, ordered[n - 1 - beyond]
