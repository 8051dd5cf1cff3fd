import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquecert import (
    asymptotic_exponent,
    beta_recursion,
    bound_report,
    chordal_bound,
    kalai_bound,
    meets_beta_bound,
    meets_theorem1_bound,
    theorem1_bound,
)
from helpers import (
    ext_binom,
    lemma31_lower_bound,
    meets_chordal_bound,
    meets_kalai_bound_with_slack,
)


class TestTheorem1Bound:
    def test_endpoints(self):
        assert theorem1_bound(1.0) == 1.0
        assert theorem1_bound(0.0) == 0.0

    def test_hand_value(self):
        assert theorem1_bound(0.75) == pytest.approx(0.25, rel=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            theorem1_bound(1.5)
        with pytest.raises(ValueError):
            theorem1_bound(-0.1)


class TestChordalBound:
    def test_endpoints_and_hand_value(self):
        assert chordal_bound(1.0) == 1.0
        assert chordal_bound(0.0) == 0.0
        assert chordal_bound(0.75) == pytest.approx(0.5, rel=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            chordal_bound(2.0)

    def test_square_identity(self):
        for i in range(101):
            a = i / 100
            assert theorem1_bound(a) == pytest.approx(chordal_bound(a) ** 2, abs=1e-15)


class TestBetaRecursion:
    def test_one_step_by_hand(self):
        # alpha_1 = (0.5 / 48)^2
        exact = Fraction(1, 2) / 48
        assert beta_recursion(0.5, 2, 2) == pytest.approx(float(exact * exact), rel=1e-12)
        assert beta_recursion(0.5, 2, 2) == pytest.approx(1.085069e-4, rel=1e-6)

    def test_alpha_one(self):
        assert beta_recursion(1.0, 2, 2) == pytest.approx(float(Fraction(1, 48) ** 2), rel=1e-12)
        assert beta_recursion(1.0, 2, 2) == pytest.approx(4.340278e-4, rel=1e-6)

    def test_two_steps_by_hand(self):
        # alpha_1 = (1/108)^3, alpha_2 = (alpha_1/108)^3, all exact in rationals
        a1 = Fraction(1, 108) ** 3
        a2 = (a1 / 108) ** 3
        got = beta_recursion(1.0, 3, 3)
        assert got == pytest.approx(float(a2), rel=1e-12)
        assert abs(got - 3.971137e-25) < 1e-27

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            beta_recursion(0.5, 3, 2)
        with pytest.raises(ValueError):
            beta_recursion(0.0, 2, 2)

    def test_halving_property(self):
        # each iterate satisfies f(x) < x/2, so m-1 rounds divide by 2^(m-1);
        # deep recursions underflow double precision to 0, which still obeys
        # the upper bound
        for alpha in (0.1, 0.5, 0.99):
            for k, m in ((2, 2), (2, 4), (3, 3), (3, 5)):
                assert 0 <= beta_recursion(alpha, k, m) <= alpha / 2 ** (m - 1)
            assert beta_recursion(alpha, 2, 2) > 0


class TestAsymptoticExponent:
    @pytest.mark.parametrize("k,m,expected", [(2, 2, 2), (2, 3, 4), (3, 4, 27)])
    def test_values(self, k, m, expected):
        assert asymptotic_exponent(k, m) == expected


class TestKalaiBound:
    def test_endpoints(self):
        for d in (1, 2, 5):
            assert kalai_bound(1.0, d) == 1.0
            assert kalai_bound(0.0, d) == 0.0

    def test_hand_value(self):
        assert kalai_bound(0.75, 1) == pytest.approx(0.5, rel=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            kalai_bound(1.2, 1)

    def test_dominates_theorem1_in_dimension_one(self):
        for i in range(101):
            a = i / 100
            assert kalai_bound(a, 1) >= theorem1_bound(a) - 1e-12


class TestLemma31LowerBound:
    def test_hand_value(self):
        assert lemma31_lower_bound(5, 2, 2, 2) == pytest.approx(0.375, rel=1e-15)

    def test_vacuous_when_s_at_most_omega(self):
        assert lemma31_lower_bound(4, 4, 2, 2) == 0.0
        assert lemma31_lower_bound(3, 5, 3, 3) == 0.0

    def test_below_extension_threshold(self):
        # (9 - 6) / 3 = 1 < k - 1 = 2, so the extended binomial vanishes
        assert lemma31_lower_bound(9, 6, 3, 3) == 0.0

    def test_scaling_divisor(self):
        assert lemma31_lower_bound(11, 2, 2, 3) == pytest.approx(
            ext_binom(4.5, 2) / math.comb(3, 2), rel=1e-15
        )


class TestMonotonicity:
    @pytest.mark.parametrize(
        "fn",
        [theorem1_bound, chordal_bound, lambda a: kalai_bound(a, 2)],
    )
    def test_nondecreasing_in_alpha(self, fn):
        grid = [i / 200 for i in range(201)]
        vals = [fn(a) for a in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_beta_recursion_nondecreasing(self):
        grid = [i / 200 for i in range(1, 201)]
        vals = [beta_recursion(a, 2, 3) for a in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestBoundReport:
    def test_all_values_in_unit_interval(self):
        for num in (0, 1, 3, 4):
            rep = bound_report(Fraction(num, 4), 2, 2, 1)
            for val in (rep.theorem1, rep.chordal, rep.beta_recursive, rep.kalai):
                assert 0 <= val <= 1

    def test_recursion_weaker_than_direct_bound(self):
        for num in range(1, 5):
            rep = bound_report(Fraction(num, 4), 2, 2, 1)
            assert rep.beta_recursive <= rep.theorem1

    def test_dict_flags_vacuous_recursion(self):
        rep = bound_report(Fraction(0), 2, 2, 1)
        assert rep.to_dict()["notes"]

    # 10^4299 and 2^14284 have 4300 digits, 10^4300 and 2^14285 have 4301.
    @pytest.mark.parametrize("k, m", [(10, 4300), (2, 14285)])
    def test_exponent_of_4300_digits_is_reported(self, k, m):
        rep = bound_report(Fraction(1, 2), k, m, 1)
        assert len(str(rep.to_dict()["exponent"])) == 4300

    @pytest.mark.parametrize("k, m", [(10, 4301), (2, 14286)])
    def test_exponent_past_4300_digits_is_refused(self, k, m):
        with pytest.raises(ValueError, match=f"k={k}, m={m}"):
            bound_report(Fraction(1, 2), k, m, 1)


class TestExactComparisons:
    @given(
        size=st.integers(min_value=0, max_value=12),
        n=st.integers(min_value=1, max_value=12),
        num=st.integers(min_value=0, max_value=66),
    )
    def test_theorem1_matches_float_away_from_ties(self, size, n, num):
        alpha = Fraction(num, 66)
        exact = meets_theorem1_bound(size, n, alpha)
        approx = size / n >= theorem1_bound(float(alpha))
        if abs(size / n - theorem1_bound(float(alpha))) > 1e-9:
            assert exact == approx

    def test_theorem1_boundary_cases(self):
        assert meets_theorem1_bound(1, 1, Fraction(1))
        assert meets_theorem1_bound(0, 5, Fraction(0))
        assert not meets_theorem1_bound(0, 5, Fraction(1))

    def test_chordal_boundary_cases(self):
        assert meets_chordal_bound(5, 5, Fraction(1))
        assert not meets_chordal_bound(4, 5, Fraction(1))
        assert meets_chordal_bound(2, 5, Fraction(1, 2))  # 0.4 >= 1 - sqrt(0.5)

    def test_kalai_slack_boundary_cases(self):
        # s/n >= 1 - (1-a)^(1/(d+1)) - 1/n at a = 3/4, d = 1: target 0.5 - 1/n
        assert meets_kalai_bound_with_slack(4, 10, Fraction(3, 4), 1)
        assert not meets_kalai_bound_with_slack(3, 10, Fraction(3, 4), 1)
        assert meets_kalai_bound_with_slack(0, 10, Fraction(0), 2)


def exact_beta(alpha: Fraction, k: int, m: int) -> Fraction:
    """The recursion of ``beta_recursion`` in rationals."""
    a = Fraction(alpha)
    for _ in range(m - 1):
        a = (a / (12 * k * m)) ** k
    return a


class TestExactBetaBound:
    @given(
        size=st.integers(min_value=0, max_value=600),
        n=st.integers(min_value=0, max_value=10**7),
        num=st.integers(min_value=0, max_value=12),
        km=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4)]),
    )
    def test_matches_the_exact_recursion(self, size, n, num, km):
        k, m = km
        alpha = Fraction(num, 12)
        assert meets_beta_bound(size, n, alpha, k, m) == (size >= exact_beta(alpha, k, m) * n)

    def test_ties_are_met(self):
        # k = m = 2: beta = alpha^2 / 48^2, so beta * n = 5 exactly here.
        n = 5 * 48**2
        assert meets_beta_bound(5, n, Fraction(1), 2, 2)
        assert not meets_beta_bound(4, n, Fraction(1), 2, 2)
        assert meets_beta_bound(5, 4 * n, Fraction(1, 2), 2, 2)
        assert not meets_beta_bound(4, 4 * n, Fraction(1, 2), 2, 2)

    def test_no_underflow(self):
        # The float recursion leaves the double range at k = 3, m = 6,
        # but beta * n is still positive, so the empty clique misses it.
        assert beta_recursion(1.0, 3, 6) == 0.0
        assert not meets_beta_bound(0, 1, Fraction(1), 3, 6)
        assert meets_beta_bound(1, 1, Fraction(1), 3, 6)
        # beta * n is 0 with no vertex or at alpha = 0.
        assert meets_beta_bound(0, 0, Fraction(1), 3, 6)
        assert meets_beta_bound(0, 5, Fraction(0), 3, 6)
        # A deep recursion stops as soon as beta * n < 1 is certain.
        assert meets_beta_bound(1, 10**6, Fraction(1, 2), 3, 10**6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            meets_beta_bound(1, 5, Fraction(3, 2), 2, 2)
        with pytest.raises(ValueError):
            meets_beta_bound(1, 5, Fraction(1, 2), 3, 2)
