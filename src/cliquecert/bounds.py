"""Closed-form clique bounds: float evaluators plus exact rational checks.

The evaluators feed reports and plots and use double precision.  Wherever a
guarantee must be checked exactly against an integer clique size, the
square root is eliminated by rearranging and squaring, so the comparison
happens in rational arithmetic (see ``meets_theorem1_bound`` and friends).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .core import MAX_PRINTED_DIGITS, Density


def _check_alpha(alpha: float | Density) -> None:
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def _check_km(k: int, m: int) -> None:
    if k < 2 or m < k:
        raise ValueError(f"need m >= k >= 2, got k={k}, m={m}")


def _check_exponent(k: int, m: int) -> None:
    # A report prints the exponent k^(m-1) in decimal.  k^(m-1) >=
    # 2^((m-1)(bitlen(k)-1)), so the power is built only when it has fewer
    # than twice the bits of the limit.
    limit = 10**MAX_PRINTED_DIGITS
    if (m - 1) * (k.bit_length() - 1) >= limit.bit_length() or k ** (m - 1) >= limit:
        raise ValueError(
            f"exponent k^(m-1) has more than {MAX_PRINTED_DIGITS} digits, got k={k}, m={m}"
        )


def theorem1_bound(alpha: float) -> float:
    """(1 - sqrt(1 - alpha))^2: guaranteed clique fraction for graphs of
    edge density alpha with no induced K_{2,2}."""
    _check_alpha(alpha)
    return (1.0 - math.sqrt(1.0 - alpha)) ** 2


def chordal_bound(alpha: float) -> float:
    """1 - sqrt(1 - alpha): the (tight) clique fraction for chordal graphs."""
    _check_alpha(alpha)
    return 1.0 - math.sqrt(1.0 - alpha)


def beta_recursion(alpha: float, k: int, m: int) -> float:
    """Iterated shrink factor: alpha_0 = alpha, alpha_i = (alpha_{i-1}/(12km))^k,
    returning alpha_{m-1}.

    Each iterate satisfies 0 < f(x) < x/2 on (0, 1), so the result decays
    at least geometrically; the guarantee it encodes is a clique on
    beta * n vertices for m-clique density alpha with no complete m-tuple
    of missing edges.
    """
    _check_km(k, m)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    a = alpha
    for _ in range(m - 1):
        a = (a / (12 * k * m)) ** k
    return a


def asymptotic_exponent(k: int, m: int) -> int:
    """Exponent of alpha in the recursion's asymptotic lower bound: k^(m-1)."""
    return k ** (m - 1)


def kalai_bound(alpha: float, d: int) -> float:
    """1 - (1 - alpha)^(1/(d+1)): the optimal fractional intersection bound
    for nerves of convex sets in dimension d."""
    _check_alpha(alpha)
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    return 1.0 - (1.0 - alpha) ** (1.0 / (d + 1))


class BoundReport(NamedTuple):
    """All bound evaluators at one (alpha, k, m, d) point."""

    alpha: Density
    k: int
    m: int
    d: int
    theorem1: float
    chordal: float
    beta_recursive: float
    kalai: float
    exponent: int

    def to_dict(self) -> dict:
        notes = []
        if self.beta_recursive == 0.0:
            notes.append("beta_recursive is vacuous at alpha = 0")
        return {
            "alpha": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "alpha_float": float(self.alpha),
            "k": self.k,
            "m": self.m,
            "d": self.d,
            "theorem1": self.theorem1,
            "chordal": self.chordal,
            "beta_recursive": self.beta_recursive,
            "kalai": self.kalai,
            "exponent": self.exponent,
            "notes": notes,
        }


def bound_report(alpha: Density, k: int, m: int, d: int) -> BoundReport:
    _check_alpha(alpha)  # on the exact value: float() overflows far outside [0, 1]
    _check_km(k, m)
    _check_exponent(k, m)
    a = float(alpha)
    return BoundReport(
        alpha=Fraction(alpha),
        k=k,
        m=m,
        d=d,
        theorem1=theorem1_bound(a),
        chordal=chordal_bound(a),
        beta_recursive=beta_recursion(a, k, m) if a > 0 else 0.0,
        kalai=kalai_bound(a, d),
        exponent=asymptotic_exponent(k, m),
    )


# ---------------------------------------------------------------------------
# Exact rational comparisons.  Clique sizes are integers and alpha is an
# exact Fraction, so "size/n >= 1 - sqrt(1-alpha)" style inequalities are
# decided by isolating the square root and squaring; no floats involved.
# ---------------------------------------------------------------------------


def meets_theorem1_bound(size: int, n: int, alpha: Density) -> bool:
    """Exactly decide size/n >= (1 - sqrt(1 - alpha))^2.

    Equivalent to sqrt(1-alpha) >= (1 + (1-alpha) - size/n) / 2; when the
    right side is negative the inequality is trivially true, otherwise both
    sides are squared.
    """
    if n == 0:
        return True
    u = 1 - Fraction(alpha)
    t = 1 + u - Fraction(size, n)
    if t <= 0:
        return True
    return 4 * u >= t * t


def meets_beta_bound(size: int, n: int, alpha: Density, k: int, m: int) -> bool:
    """Exactly decide size >= beta_recursion(alpha, k, m) * n.

    With alpha = p/q, K = k^(m-1) and S = k + k^2 + ... + k^(m-1), the
    recursion gives beta = p^K / (q^K (12km)^S), so the bound holds
    exactly when p^K n <= size q^K (12km)^S.  beta is 0 at alpha = 0.
    Since alpha <= 1, beta * n < 1 once n < 2^S <= (12km)^S, and then a
    nonempty clique meets it; the powers are built only when S < log2(n),
    so they stay small however far the float beta underflows.
    """
    _check_alpha(alpha)
    _check_km(k, m)
    alpha = Fraction(alpha)
    if not alpha or not n:
        return True
    K = S = 0
    for i in range(1, m):
        K = k**i
        S += K
        if S >= n.bit_length():
            return size >= 1
    p, q = alpha.numerator, alpha.denominator
    return p**K * n <= size * q**K * (12 * k * m) ** S
