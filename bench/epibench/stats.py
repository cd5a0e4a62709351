"""Order statistics with their sample counts, and failure accounting."""

from __future__ import annotations

import math
import sys
import traceback


def percentile(values, q):
    """q-th percentile (0..100) by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def summarize(values):
    """{"n": count, "p50": ..., "p90": ..., "beyond_p90": samples above it}."""
    out = {"n": len(values)}
    for q in (50, 90):
        p = percentile(values, q)
        out[f"p{q}"] = p
        out[f"beyond_p{q}"] = sum(1 for v in values if v > p)
    return out


class CheckFailed(Exception):
    """An output check did not hold."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


class Tally:
    """Counts attempted and failed operations.

    An operation fails when it raises, including a failed output check;
    the failure is reported on stderr and the benchmark carries on.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def attempt(self, label, fn, *args, **kwargs):
        """Run fn; return (True, result) or (False, None) when it raised."""
        self.attempted += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            print(f"FAILED {label}:\n{traceback.format_exc()}", file=sys.stderr)
            return False, None

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0
