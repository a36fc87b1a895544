"""Tests for tuples, thresholds, and the sieve coefficient."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from sievesum import cli, iterints, multfun, zhang
from sievesum.errors import RangeError, ToleranceError

import oracles


def bisect_flip(k, m, tol_bits=60):
    """Sign-change level of the u = 1 coefficient by bisection in theta."""
    lo, hi = 1e-3, 1.0
    if zhang.zhang_coefficient(k, m, hi, hi / 2, tol=1e-9).value <= 0:
        return hi
    for _ in range(tol_bits):
        mid = 0.5 * (lo + hi)
        c = zhang.zhang_coefficient(k, m, mid, mid / 2, tol=1e-9).value
        if c <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTuples:
    def test_nu_p(self):
        assert zhang.nu_p([0, 2], 3) == 2
        assert zhang.nu_p([0, 2, 4], 3) == 3
        assert zhang.nu_p([0, 6, 12], 3) == 1

    def test_admissibility(self):
        assert zhang.is_admissible([0])
        assert zhang.is_admissible([0, 2])
        assert not zhang.is_admissible([0, 2, 4])
        assert zhang.is_admissible([0, 2, 6])
        assert not zhang.is_admissible([0, 1])

    def test_first_k_tuple(self):
        assert zhang.first_k_tuple(1) == [0]
        assert zhang.first_k_tuple(5) == [0, 4, 6, 10, 12]
        t = zhang.first_k_tuple(100)
        assert len(t) == 100 and t[0] == 0
        assert zhang.is_admissible(t)

    def test_rejects_bad_offsets(self):
        with pytest.raises(RangeError):
            zhang.is_admissible([])
        with pytest.raises(RangeError):
            zhang.is_admissible([0, 2, 2])


class TestTupleSeries:
    def test_twin_constant(self):
        got = zhang.tuple_singular_series([0, 2], tol=1e-7)
        assert abs(got - 1.3203236316937392) < 1e-6

    def test_twin_constant_default_tol(self):
        got = zhang.tuple_singular_series([0, 2])
        assert abs(got - 1.3203236316937392) < 1e-6

    def test_twin_constant_to_1e_13(self):
        got = zhang.tuple_singular_series([0, 2], tol=1e-13)
        assert abs(got - 1.32032363169373915) <= 1e-13

    def test_inadmissible_is_zero(self):
        assert zhang.tuple_singular_series([0, 2, 4]) == 0.0

    def test_exact_zero_meets_any_tol(self):
        # the product of the other factors carries a bound near 3e-14
        assert zhang.tuple_singular_series([0, 2, 4], tol=1e-15) == 0.0

    def test_tol_is_relative(self):
        # G(0) of the first 50-tuple is about 3.2e26: no absolute target
        # below 1e11 is reachable, while its relative bound is 4.3e-9
        offsets = zhang.first_k_tuple(50)
        spec = multfun.builtin_spec("nu_over_p", offsets=offsets).negated()
        _, bounds, _ = multfun.euler_log_taylor(spec, 1, 0)
        bound = math.expm1(bounds[0])
        assert 1e-9 < bound < 1e-8
        assert 3e26 < zhang.tuple_singular_series(offsets, tol=1e-6) < 4e26
        with pytest.raises(ToleranceError) as err:
            zhang.tuple_singular_series(offsets, tol=1e-10)
        assert err.value.achieved == bound

    def test_series_past_the_float_range(self, capsys):
        # the first 500-tuple certifies at 1e-5, but its G(0) = e^894.7 is
        # past the float range: a RangeError without the 500 offsets
        with pytest.raises(RangeError, match=r"log G\(0\) = 894\.703$"):
            zhang.tuple_singular_series(zhang.first_k_tuple(500), 1e-5)
        assert cli.main(["tuple", "--first-k", "500", "--tol", "1e-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("sievesum: the singular series is past the float range: "
                                "log G(0) = 894.703\n")

    def test_tolerance_message_omits_the_offsets(self, capsys):
        # the 500-tuple's bound 2.2e-6 misses the default tol: the message
        # gives the tuple's kind and size, not its 500 offsets
        assert cli.main(["tuple", "--first-k", "500"]) == 3
        err = capsys.readouterr().err
        assert len(err.encode()) < 200
        assert "500 offsets" in err and "0,6,18" not in err and "achieved" in err

    def test_single_offset_is_one(self):
        assert abs(zhang.tuple_singular_series([0], tol=1e-7) - 1.0) < 1e-6

    def test_shift_invariance(self):
        a = zhang.tuple_singular_series([0, 2, 6], tol=1e-7)
        b = zhang.tuple_singular_series([5, 7, 11], tol=1e-7)
        assert abs(a - b) < 1e-6


class TestThreshold:
    def test_exact_values(self):
        assert zhang.gpy_threshold(6, 1) == 1
        assert zhang.gpy_threshold(10, 2) == Fraction(9, 10)
        assert zhang.gpy_threshold(20, 3) == Fraction(27, 35)

    def test_matches_oracle(self):
        for k in [2, 5, 11, 40]:
            for l in [0, 1, 3, 7]:
                assert zhang.gpy_threshold(k, l) == oracles.gpy_threshold_exact(k, l)

    def test_large_k_dips_below_055(self):
        best = min(float(zhang.gpy_threshold(10 ** 4, l)) for l in range(1, 300))
        assert 0.5 < best < 0.55

    def test_validation(self):
        with pytest.raises(RangeError):
            zhang.gpy_threshold(0, 1)
        with pytest.raises(RangeError):
            zhang.gpy_threshold(5, -1)


class TestCoefficient:
    def test_unsmoothed_oracle(self):
        r = zhang.zhang_coefficient(2, 3, 1.0, 0.5)
        want = float(zhang.gpy_coefficient_unsmoothed(2, 3, Fraction(1)))
        assert abs(r.value - want) < 1e-9 * abs(want)
        assert r.u == 1.0

    def test_u1_collapse_general(self):
        r = zhang.zhang_coefficient(3, 5, 0.8, 0.4, tol=1e-9)
        want = zhang.gpy_coefficient_unsmoothed(3, 5, 0.8)
        assert abs(r.value - want) < 1e-9 * max(1.0, abs(want))

    def test_unsmoothed_overflow_is_signed_inf(self):
        # the value exceeds the float range; the sign comes from the exact value
        for theta, want in ((0.95, math.inf), (0.01, -math.inf)):
            exact = zhang.gpy_coefficient_unsmoothed(200, 230, Fraction(theta))
            assert (exact > 0) == (want > 0)
            assert zhang.gpy_coefficient_unsmoothed(200, 230, theta) == want

    @pytest.mark.parametrize("k,l", [(6, 1), (10, 2), (20, 3)])
    def test_flip_matches_threshold(self, k, l):
        got = bisect_flip(k, k + l)
        want = float(zhang.gpy_threshold(k, l))
        assert abs(got - want) < 1e-6

    def test_small_theta_negative(self):
        r = zhang.zhang_coefficient(3, 5, 0.01, 0.005)
        assert r.value < 0

    def test_monotone_in_theta_at_u1(self):
        vals = [zhang.zhang_coefficient(4, 6, th, th / 2).value for th in [0.2, 0.5, 0.8]]
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("k,m,want", [(3001, 3300, 21415.3538316239),
                                          (10000, 11000, 83399.5349682224)],
                             ids=["3001-3300", "10000-11000"])
    def test_no_silent_zero_at_large_k(self, k, m, want, capsys):
        # the float tables once underflowed to phi = 0 here and printed a
        # zero coefficient; want is log_abs from the former log-scale tables
        tol = 1e-9
        argv = ["zhang", "--k", str(k), "--m", str(m), "--theta", "0.92", "--delta", "0.0484",
                "--tol", repr(tol), "--no-log-scale", "--format", "json"]
        assert cli.main(argv) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["sign"] == 1.0
        assert abs(data["log_abs"] - want) <= 10.0 * tol / data["cancellation"]

    def test_experimental_large_k(self):
        r = zhang.zhang_coefficient(200, 240, 0.9, 0.45)
        assert math.isfinite(r.log_abs)
        assert r.sign in (-1.0, 1.0)

    def test_integrals_are_the_table_values(self):
        # I_(k-1)(1, u) and I_k(1, u) are read from the tables, bit for bit
        r = zhang.zhang_coefficient(10, 12, 0.95, 0.05)
        for s, got in ((9, r.i_k_minus_1), (10, r.i_k)):
            kern = iterints.make_kernel(s, 12, r.u)
            table = iterints.build_table(kern, r.u, tol=1e-9, slope=1.0 / r.u)
            assert got == iterints.i_eval(table, 1.0, r.u)

    def test_cancellation_reported(self):
        r = zhang.zhang_coefficient(3, 5, 0.9, 0.05)
        assert 0.0 < r.cancellation <= 2.0
        assert r.table_errors[0] >= 0 and r.table_errors[1] >= 0

    def test_validation(self):
        with pytest.raises(RangeError):
            zhang.zhang_coefficient(1, 3, 0.9, 0.05)
        with pytest.raises(RangeError):
            zhang.zhang_coefficient(3, 3, 0.9, 0.05)
        with pytest.raises(RangeError):
            zhang.zhang_coefficient(3, 5, 1.1, 0.05)
        with pytest.raises(RangeError):
            zhang.zhang_coefficient(3, 5, 0.9, 0.5)
        with pytest.raises(RangeError):
            zhang.zhang_coefficient(3, 5, 0.9, 0.0)


class TestScan:
    def test_grid_layout_and_values(self):
        cells = zhang.scan(4, 6, 0.9, 0.05, tol=1e-6)
        assert len(cells) == 24
        by_km = {(c.k, c.m): c for c in cells}
        assert by_km[(1, 3)].status == "rejected"
        assert by_km[(3, 3)].status == "rejected"
        assert by_km[(3, 5)].status == "ok"
        direct = zhang.zhang_coefficient(3, 5, 0.9, 0.05, tol=1e-6)
        assert by_km[(3, 5)].value == pytest.approx(direct.value, rel=1e-12)
        assert math.isnan(by_km[(1, 1)].value)

    def test_thread_count_does_not_change_bits(self):
        a = zhang.scan(4, 6, 0.9, 0.05, tol=1e-6, threads=1)
        b = zhang.scan(4, 6, 0.9, 0.05, tol=1e-6, threads=4)
        for ca, cb in zip(a, b):
            assert (ca.value == cb.value) or (math.isnan(ca.value) and math.isnan(cb.value))
            assert ca.log_abs == cb.log_abs

    def test_validation(self):
        with pytest.raises(RangeError):
            zhang.scan(0, 5, 0.9, 0.05)
        with pytest.raises(RangeError):
            zhang.scan(4, 6, 0.9, 0.6)

    @pytest.mark.parametrize("theta, delta, message", [
        (0.0, 0.05, "theta must lie in (0, 1]"),
        (1.5, 0.05, "theta must lie in (0, 1]"),
        (math.nan, 0.05, "theta must lie in (0, 1]"),
        (0.9, 0.6, "delta must lie in (0, theta/2]"),
        (0.9, -0.1, "delta must lie in (0, theta/2]"),
    ])
    def test_theta_delta_checked_as_for_one_point(self, theta, delta, message, capsys):
        # scan and zhang_coefficient share one theta/delta check: same message, exit 2
        for call in (lambda: zhang.scan(3, 5, theta, delta),
                     lambda: zhang.zhang_coefficient(3, 5, theta, delta)):
            with pytest.raises(RangeError) as err:
                call()
            assert str(err.value) == message
        for cmd in (["scan", "--k-max", "3", "--m-max", "5"], ["zhang", "--k", "3", "--m", "5"]):
            argv = cmd + ["--theta", repr(theta), "--delta", repr(delta)]
            assert cli.main(argv) == 2
            assert capsys.readouterr().err.endswith(f"sievesum: {message}\n")
