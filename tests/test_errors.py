"""The one integer rule and the one tuple-offset rule."""

import math

import numpy as np
import pytest

from sievesum import dde, iterints, multfun, primes, verify, zhang
from sievesum.errors import RangeError, check_int

ONE_OVER_N = multfun.builtin_spec("one_over_n")
LADDER = (1e3, 1e4)

# (entry point, the parameter it names, a call with that parameter set to bad)
ENTRY_POINTS = [
    ("make_kernel", "s", lambda bad: iterints.make_kernel(bad, 4, 3.0)),
    ("make_kernel", "m", lambda bad: iterints.make_kernel(2, bad, 3.0)),
    ("closed_form_unit", "s", lambda bad: iterints.closed_form_unit(bad, 4)),
    ("closed_form_unit", "m", lambda bad: iterints.closed_form_unit(2, bad)),
    ("solve_f", "k", lambda bad: dde.solve_f(bad, 3, 3.0)),
    ("solve_f", "m", lambda bad: dde.solve_f(1, bad, 3.0)),
    ("solve_f_exponent", "k", lambda bad: dde.solve_f_exponent(bad, 3, 3.0)),
    ("solve_f_exponent", "e", lambda bad: dde.solve_f_exponent(1, bad, 3.0)),
    ("solve_f_log", "s", lambda bad: dde.solve_f_log(bad, 3, 3.0)),
    ("solve_f_log", "m", lambda bad: dde.solve_f_log(1, bad, 3.0)),
    ("zhang_coefficient", "k", lambda bad: zhang.zhang_coefficient(bad, 8, 0.9, 0.05)),
    ("zhang_coefficient", "m", lambda bad: zhang.zhang_coefficient(6, bad, 0.9, 0.05)),
    ("scan", "k_max", lambda bad: zhang.scan(bad, 4, 0.9, 0.05)),
    ("scan", "m_max", lambda bad: zhang.scan(2, bad, 0.9, 0.05)),
    ("first_k_tuple", "k", zhang.first_k_tuple),
    ("gpy_threshold", "k", lambda bad: zhang.gpy_threshold(bad, 1)),
    ("gpy_threshold", "l", lambda bad: zhang.gpy_threshold(2, bad)),
    ("gpy_coefficient_unsmoothed", "k", lambda bad: zhang.gpy_coefficient_unsmoothed(bad, 8, 0.9)),
    ("gpy_coefficient_unsmoothed", "m", lambda bad: zhang.gpy_coefficient_unsmoothed(6, bad, 0.9)),
    ("is_admissible", "offsets", lambda bad: zhang.is_admissible([0, bad])),
    ("tuple_singular_series", "offsets", lambda bad: zhang.tuple_singular_series([0, bad])),
    ("builtin_spec", "k", lambda bad: multfun.builtin_spec("k_over_p", k=bad)),
    ("builtin_spec", "offsets", lambda bad: multfun.builtin_spec("nu_over_p", offsets=[0, bad])),
    ("euler_log_taylor", "order", lambda bad: multfun.euler_log_taylor(ONE_OVER_N, 1, bad)),
    ("singular_series", "q", lambda bad: multfun.singular_series(ONE_OVER_N, bad, 1e-6)),
    ("m_sum", "m", lambda bad: multfun.m_sum(ONE_OVER_N, 100, bad, 1)),
    ("m_sum", "q", lambda bad: multfun.m_sum(ONE_OVER_N, 100, 0, bad)),
    ("m_sum_smooth", "m", lambda bad: multfun.m_sum_smooth(ONE_OVER_N, 100, bad, 1, 10)),
    ("m_sum_smooth", "q", lambda bad: multfun.m_sum_smooth(ONE_OVER_N, 100, 0, bad, 10)),
    ("m_sum_smooth_each", "m",
     lambda bad: multfun.m_sum_smooth_each(ONE_OVER_N, 100, bad, 1, np.array([2, 3]))),
    ("m_sum_smooth_each", "q",
     lambda bad: multfun.m_sum_smooth_each(ONE_OVER_N, 100, 0, bad, np.array([2, 3]))),
    ("generate_primes", "limit", primes.generate_primes),
    ("shared_table", "limit", primes.shared_table),
    ("factor_support", "q", primes.factor_support),
    ("buchstab_suite", "cases", lambda bad: verify.buchstab_suite(cases=bad)),
    ("buchstab_defect", "m", lambda bad: verify.buchstab_defect(ONE_OVER_N, 100, bad, 1, 10)),
    ("buchstab_defect", "q", lambda bad: verify.buchstab_defect(ONE_OVER_N, 100, 0, bad, 10)),
    ("main_term", "m", lambda bad: verify.main_term(ONE_OVER_N, 1, bad, LADDER, 1e-6)),
    ("check_theorem1", "m", lambda bad: verify.check_theorem1(ONE_OVER_N, bad, 1, xs=LADDER)),
    ("check_theorem1", "q", lambda bad: verify.check_theorem1(ONE_OVER_N, 1, bad, xs=LADDER)),
    ("check_theorem2", "m", lambda bad: verify.check_theorem2(ONE_OVER_N, bad, 1, xs=LADDER)),
    ("check_theorem2", "q", lambda bad: verify.check_theorem2(ONE_OVER_N, 1, bad, xs=LADDER)),
    ("check_weight_lemma", "q",
     lambda bad: verify.check_weight_lemma(ONE_OVER_N, [1.0, 1.0], bad, xs=LADDER)),
]


@pytest.mark.parametrize("bad", [2.5, math.nan], ids=["2.5", "nan"])
@pytest.mark.parametrize("call", ENTRY_POINTS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_non_integer_rejected_by_name(call, bad):
    # int() once truncated 2.5 to 2 and computed a different quantity
    _, name, fn = call
    with pytest.raises(RangeError, match=rf"^{name} must be an integer"):
        fn(bad)


class TestCheckInt:
    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0), np.int32(3)])
    def test_integers_pass_as_int(self, value):
        got = check_int("n", value, 0)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, -math.inf, None, "3", [3]])
    def test_non_integers_rejected(self, value):
        with pytest.raises(RangeError, match=r"^n must be an integer, got "):
            check_int("n", value)

    def test_below_low_rejected(self):
        assert check_int("n", -4) == -4
        with pytest.raises(RangeError, match=r"^n must be an integer >= 1, got 0$"):
            check_int("n", 0, 1)

    def test_motivating_probes(self):
        # each once computed at the truncated integer
        probes = [
            lambda: zhang.zhang_coefficient(6.5, 8.9, 0.9, 0.05),
            lambda: iterints.make_kernel(2.5, 4, 3.0),
            lambda: dde.solve_f_log(1.9, 3.2, 3),
            lambda: primes.factor_support(6.5),
            lambda: multfun.builtin_spec("nu_over_p", offsets=[0, 2.5]),
            lambda: zhang.first_k_tuple(3.7),
            lambda: zhang.gpy_threshold(2.5, 1.5),
            lambda: zhang.scan(2.9, 4.9, 0.9, 0.05),
        ]
        for probe in probes:
            with pytest.raises(RangeError, match="must be an integer"):
                probe()


def test_integer_valued_arguments_build_the_same_table():
    a = iterints.build_table(iterints.make_kernel(np.int64(2), 4.0, 3.0), 3.0)
    b = iterints.build_table(iterints.make_kernel(2, 4, 3.0), 3.0)
    assert (type(a.kernel.s), type(a.kernel.m)) == (int, int)
    assert (a.kernel.s, a.kernel.m, a.kernel.L) == (b.kernel.s, b.kernel.m, b.kernel.L)
    assert a.log_base.tobytes() == b.log_base.tobytes()
    assert a.est_error == b.est_error
    assert len(a.panels) == len(b.panels)
    for pa, pb in zip(a.panels, b.panels):
        assert pa.tobytes() == pb.tobytes()


class TestOffsets:
    @pytest.mark.parametrize("offsets, message", [
        ([0, 0], "offsets must be distinct"),
        ([], "need at least one offset"),
    ])
    def test_one_rule_one_message(self, offsets, message):
        for fn in (zhang.is_admissible, zhang.tuple_singular_series,
                   lambda o: multfun.builtin_spec("nu_over_p", offsets=o),
                   lambda o: multfun.builtin_spec("nu_minus1_over_phi", offsets=o)):
            with pytest.raises(RangeError, match=f"^{message}$"):
                fn(offsets)

    def test_sorted_ints(self):
        assert multfun.check_offsets([6, np.int64(0), 2.0]) == (0, 2, 6)

    def test_inadmissible_series_is_zero_without_an_admissibility_pass(self, monkeypatch):
        # 1 - nu(3)/3 is exactly 0.0, so the Euler product says 0.0 by itself
        def refuse(offsets):
            raise AssertionError("admissibility pass")

        monkeypatch.setattr(zhang, "is_admissible", refuse)
        assert zhang.tuple_singular_series([0, 2, 4]) == 0.0
        assert zhang.tuple_singular_series([0, 1]) == 0.0
