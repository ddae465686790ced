"""Finite arithmetic of the lower-bound bookkeeping.

These are report-producing calculators: the pigeonhole error floor for
label-crossing adversaries, the entropy-based transcript-length bound
for the partition-output problem, and the trit-to-bit round conversion
for two-party simulations. Values are exact rationals wherever the
formula is rational in its inputs; logarithms of exact big integers are
evaluated to double precision via an exponent split.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .partitions import bell

LOG2_3 = math.log2(3.0)


@dataclass(frozen=True)
class BoundReport:
    name: str
    params: dict
    exact: object  # Fraction, int, or None when the value is irrational
    value: float
    formula: str

    def to_record(self):
        exact = self.exact
        if isinstance(exact, Fraction):
            exact = f"{exact.numerator}/{exact.denominator}"
        return {
            "name": self.name,
            "params": dict(self.params),
            "exact": exact,
            "value": self.value,
            "formula": self.formula,
        }


def pigeonhole_error_bound(n, t):
    """Error floor forced by a surviving same-label bucket of crossings.

    With m = floor(n/3) disjoint candidate edges, at least s = ceil(m /
    3^(2t)) of them share a 2t-symbol label, and every pair from those s
    is an undetected crossing: the floor is C(s,2)/C(m,2), exactly 1 at
    t = 0 and nonincreasing in t.
    """
    if n < 9:
        raise ValueError("the bound needs n >= 9 (at least 3 candidate edges)")
    if t < 0:
        raise ValueError("t must be nonnegative")
    m = n // 3
    # ceil division; once t >= bit_length(m), 9^t > m and s = 1 without a huge 9^t
    s = 1 if t >= m.bit_length() else -(-m // 3 ** (2 * t))
    if s < 2:
        return Fraction(0)
    return Fraction(comb(s, 2), comb(m, 2))


def pigeonhole_report(n, t):
    value = pigeonhole_error_bound(n, t)
    return BoundReport(
        "pigeonhole-error",
        {"n": n, "t": t},
        value,
        float(value),
        "C(ceil(floor(n/3)/3^(2t)), 2) / C(floor(n/3), 2)",
    )


def log2_big(x):
    """log2 of a positive (possibly huge) integer, float precision."""
    if x <= 0:
        raise ValueError("need a positive integer")
    shift = max(0, x.bit_length() - 64)
    return shift + math.log2(x >> shift)


def entropy_comm_bound(n, eps):
    """Transcript-length floor (1 - eps) * log2(B_n) in bits.

    Under the hard input pair (one side uniform over all partitions, the
    other fixed to all singletons) the protocol output reveals the whole
    uniform input, so any protocol erring on at most an eps fraction
    must carry at least this many bits.
    """
    eps = _fraction(eps)
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    return float(1 - eps) * log2_big(bell(n))


def _fraction(eps):
    """eps as an exact Fraction; ValueError, not ZeroDivisionError or
    OverflowError, for "1/0" or an infinite float."""
    try:
        return Fraction(eps)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"eps must be a finite rational, got {eps!r}") from None


def entropy_report(n, eps):
    eps = _fraction(eps)
    return BoundReport(
        "entropy-communication",
        {"n": n, "eps": f"{eps.numerator}/{eps.denominator}"},
        None,
        entropy_comm_bound(n, eps),
        "(1 - eps) * log2(bell(n)) bits",
    )


def round_bound_from_comm(comm_bits, n):
    """Rounds a 1-bit-broadcast algorithm needs if its two-party shadow
    must carry comm_bits: each simulated round moves 4n trits, i.e.
    4n*log2(3) bits."""
    if not math.isfinite(comm_bits):
        raise ValueError(f"comm_bits must be finite, got {comm_bits}")
    if comm_bits <= 0 or n <= 0:
        raise ValueError("inputs must be positive")
    per_round = 4 * n * LOG2_3
    return math.ceil(comm_bits / per_round)


def round_bound_report(comm_bits, n):
    return BoundReport(
        "rounds-from-communication",
        {"comm_bits": comm_bits, "n": n},
        round_bound_from_comm(comm_bits, n),
        float(round_bound_from_comm(comm_bits, n)),
        "ceil(comm_bits / (4n * log2(3))); trit->bit factor log2(3)",
    )
