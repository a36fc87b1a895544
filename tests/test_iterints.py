"""Tests for the iterated sieve integrals."""

import math

import numpy as np
import pytest

from sievesum import dde, iterints, quadchev
from sievesum.errors import RangeError, ToleranceError

import oracles


class TestBaryMatrix:
    def test_reproduces_cubic(self):
        nodes = quadchev.cheb_lobatto(0.0, 1.0, 9)
        w = quadchev.lobatto_bary_weights(9)
        q = np.linspace(0.0, 1.0, 17)
        B = quadchev.bary_matrix(nodes, w, q)
        got = B @ nodes ** 3
        assert np.max(np.abs(got - q ** 3)) < 1e-14

    def test_one_hot_at_node(self):
        nodes = quadchev.cheb_lobatto(0.0, 1.0, 7)
        w = quadchev.lobatto_bary_weights(7)
        B = quadchev.bary_matrix(nodes, w, nodes[[2, 5]])
        assert B[0, 2] == 1.0 and abs(B[0].sum() - 1.0) == 0.0
        assert B[1, 5] == 1.0


class TestTRows:
    """iterints._t_rows: reference-panel rows of the piecewise t grid."""

    GRID = iterints._make_tgrid(np.array([0.0, 1 / 3.5, 2 / 3.5, 3 / 3.5, 1.0]), 17)

    def blocks(self, q):
        return list(iterints._t_rows(self.GRID, np.asarray(q, dtype=float)))

    def test_rows_match_the_owning_panel(self):
        # the grid's nodes are the rounded images of the reference nodes, so
        # the two rows differ by that rounding times the rows' slope (up to
        # about n^2): entrywise to about 1e-13, and to a few ulps on smooth data
        grid = self.GRID
        q = np.random.default_rng(5).uniform(0.0, 1.0, 3 * iterints.CHUNK_ROWS + 11)
        q = np.concatenate([q, grid.nodes])
        values = np.cos(3.0 * grid.nodes) * np.exp(grid.nodes)
        blocks = self.blocks(q)
        assert len(blocks) == 4
        assert max(B.shape[0] for _, _, B in blocks) <= iterints.CHUNK_ROWS
        for rows, owner, B in blocks:
            assert B.shape == (q[rows].shape[0], grid.n_per)
            for p in np.unique(owner):
                mine = owner == p
                nodes = grid.nodes[p * grid.n_per : (p + 1) * grid.n_per]
                want = quadchev.bary_matrix(nodes, grid.bw, q[rows][mine])
                assert np.max(np.abs(B[mine] - want)) < 1e-12
                v = values[p * grid.n_per : (p + 1) * grid.n_per]
                assert np.max(np.abs(B[mine] @ v - want @ v)) < 4e-15 * np.max(np.abs(v))

    def test_panel_ends_give_one_hot_rows(self):
        grid = self.GRID
        (rows, owner, B), = self.blocks(grid.breaks)
        # t = 0 is the left end of the first panel; each break j/u is the
        # right end of the panel it closes
        assert owner.tolist() == [0, 0, 1, 2, 3]
        want = np.zeros_like(B)
        want[0, 0] = want[1:, -1] = 1.0
        assert B.tobytes() == want.tobytes()

    def test_block_size_leaves_tables_bit_identical(self, monkeypatch):
        # a two-kernel batch on a split t grid: with 7-row blocks the key of
        # every row must still name its own x-node and t panel
        u = 3.5
        kerns = [iterints.make_kernel(s, 4, u) for s in (2, 3)]
        want = dict(iterints.build_tables(kerns, u, tol=1e-9))
        monkeypatch.setattr(iterints, "CHUNK_ROWS", 7)
        got = dict(iterints.build_tables(kerns, u, tol=1e-9))
        for i in range(len(kerns)):
            assert len(want[i].grid.breaks) == 5
            assert got[i].est_error == want[i].est_error
            assert got[i].log_base.tobytes() == want[i].log_base.tobytes()
            assert [p.tobytes() for p in got[i].panels] == [p.tobytes() for p in want[i].panels]


class TestLogSumExp:
    def test_plus_inf_entry(self):
        assert quadchev.logsumexp([math.inf, 0.0]) == math.inf
        assert quadchev.logsumexp([-math.inf, math.inf]) == math.inf

    def test_nan_entry(self):
        assert math.isnan(quadchev.logsumexp([0.0, math.nan]))
        assert math.isnan(quadchev.logsumexp([math.nan, math.inf]))

    def test_empty_and_zero_sums(self):
        assert quadchev.logsumexp([]) == -math.inf
        assert quadchev.logsumexp([-math.inf, -math.inf]) == -math.inf
        assert quadchev.logsumexp([0.0, 0.0]) == math.log(2.0)

    def test_axis_rows_match_one_dimensional_calls(self):
        rows = np.array([
            [-3.0, 0.5, -700.0, 2.0, 1e-3],
            [-math.inf] * 5,
            [0.0, math.inf, -1.0, -math.inf, 4.0],
            [1.0, math.nan, 2.0, 3.0, 4.0],
            [-math.inf, -1000.0, -1001.5, -999.25, -math.inf],
        ])
        want = np.array([quadchev.logsumexp(r) for r in rows])
        for got in (quadchev.logsumexp(rows, axis=1), quadchev.logsumexp(rows.T, axis=0)):
            assert got.shape == (5,)
            assert got.tobytes() == want.tobytes()
        assert want[1] == -math.inf and want[2] == math.inf and math.isnan(want[3])

    def test_axis_over_empty_rows(self):
        got = quadchev.logsumexp(np.empty((3, 0)), axis=1)
        assert got.shape == (3,) and np.all(got == -math.inf)


class TestBaseClosedForm:
    def test_all_small_orders(self):
        for m in range(2, 13):
            for s in range(1, m):
                kern = iterints.make_kernel(s, m, u=1.0)
                want = float(oracles.i_closed_base(s, m))
                got = iterints.i_base(kern, 1.0)
                assert abs(got - want) / want < 1e-10, (s, m)

    def test_worked_examples(self):
        assert abs(iterints.i_base(iterints.make_kernel(1, 2, 1.0), 1.0) - 4.0 / 3.0) < 1e-12
        assert abs(iterints.i_base(iterints.make_kernel(2, 3, 1.0), 1.0) - 3.0) < 1e-11

    def test_zero_t(self):
        kern = iterints.make_kernel(2, 4, 1.5)
        assert iterints.i_base(kern, 0.0) == 0.0

    def test_scaling_in_t_without_f(self):
        # with u <= 1/t the f factor is 1, so I scales like t^(2(m-s))
        kern = iterints.make_kernel(2, 5, u=1.0)
        base1 = iterints.i_base(kern, 1.0)
        baseh = iterints.i_base(kern, 0.5)
        assert abs(baseh - base1 * 0.5 ** 6 * (
            oracles.phi_base_trapz(kern, 0.5) / oracles.phi_base_trapz(kern, 1.0)
        )) < 1e-8 * base1 or abs(baseh / base1 - 0.5 ** 6) < 1e-10


class TestBaseQuadrature:
    @pytest.mark.parametrize("s,m,u,t", [(2, 4, 2.5, 1.0), (3, 5, 3.0, 0.8), (1, 3, 4.0, 0.6)])
    def test_against_trapezoid(self, s, m, u, t):
        kern = iterints.make_kernel(s, m, u)
        got = np.exp(iterints._log_base_row(kern, np.array([t]))[0])
        want = oracles.phi_base_trapz(kern, t)
        assert abs(got - want) / abs(want) < 1e-7


class TestRefineBase:
    @pytest.mark.parametrize("s,m,u", [(2, 4, 3.5), (61, 70, 9.5)])
    def test_matches_a_fresh_base_row(self, s, m, u):
        # split and single-panel t grids: every rung reuses the last one's
        # base row at the shared nodes, and must get the same bits
        kern = iterints.make_kernel(s, m, u)
        breaks = iterints._t_breaks(kern)
        coarse = iterints._make_tgrid(breaks, 9)
        row = iterints._log_base_row(kern, coarse.nodes)
        for n in (17, 33):
            grid = iterints._make_tgrid(breaks, n)
            row = iterints._refine_base(kern, grid, row)
            assert row.tobytes() == iterints._log_base_row(kern, grid.nodes).tobytes()


class TestTable:
    @pytest.mark.parametrize("s,m,u", [(2, 4, 2.5), (3, 5, 3.0)])
    def test_matches_direct_recursion(self, s, m, u):
        kern = iterints.make_kernel(s, m, u)
        table = iterints.build_table(kern, v_max=u, tol=1e-9)
        rng = np.random.default_rng(700 + s)
        for _ in range(8):
            t = float(rng.uniform(0.05, 1.0))
            v = float(rng.uniform(1.0, u))
            got = iterints.i_eval(table, t, v)
            want = oracles.i_recursive(kern, t, v)
            assert abs(got - want) / max(abs(want), 1e-30) < 1e-8

    def test_continuous_at_regime_boundary(self):
        kern = iterints.make_kernel(2, 4, 2.5)
        table = iterints.build_table(kern, v_max=2.5, tol=1e-9)
        for t in np.linspace(0.1, 1.0, 7):
            a = iterints.i_eval(table, float(t), 1.0)
            b = iterints.i_eval(table, float(t), 1.0 + 1e-9)
            assert abs(a - b) / max(abs(a), 1e-30) < 1e-7

    def test_grid_refinement_stable(self, monkeypatch):
        kern = iterints.make_kernel(2, 4, 2.5)
        monkeypatch.setattr(iterints, "N_PER_START", 17)
        t33 = iterints.build_table(kern, v_max=2.5, tol=1e-9)
        monkeypatch.setattr(iterints, "N_PER_START", 33)
        t65 = iterints.build_table(kern, v_max=2.5, tol=1e-9)
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = float(rng.uniform(0.0, 1.0))
            v = float(rng.uniform(1.0, 2.5))
            a = iterints.i_eval(t33, t, v)
            b = iterints.i_eval(t65, t, v)
            assert abs(a - b) / max(abs(b), 1e-30) < 1e-8

    def test_reported_estimate_small(self):
        kern = iterints.make_kernel(2, 4, 2.5)
        table = iterints.build_table(kern, v_max=2.5, tol=1e-9)
        assert table.est_error <= 1e-9

    def test_values_nonnegative(self):
        kern = iterints.make_kernel(2, 5, 2.0)
        table = iterints.build_table(kern, v_max=2.0, tol=1e-9)
        for t in np.linspace(0.0, 1.0, 9):
            for v in np.linspace(0.25, 2.0, 8):
                assert iterints.i_eval(table, float(t), float(v)) >= 0.0

    def test_decreasing_in_v(self):
        kern = iterints.make_kernel(2, 4, 3.0)
        table = iterints.build_table(kern, v_max=3.0, tol=1e-9)
        vals = [iterints.i_eval(table, 1.0, v) for v in np.linspace(1.0, 3.0, 13)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestBatch:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_mixed_batch_matches_separate_builds(self, reverse):
        # (1, 2) and (2, 4) share the t grid split at j/u and stop at
        # different rungs; (1, 11) and (2, 12) have m - s > 8 and one t panel.
        # A kernel's bits depend neither on its batch nor on its place in it
        u = 2.5
        sms = [(1, 11), (1, 2), (2, 12), (2, 4)]
        kerns = [iterints.make_kernel(s, m, u) for s, m in sms]
        order = kerns[::-1] if reverse else kerns
        done = dict(iterints.build_tables(order, u, tol=1e-9))
        batch = [done[order.index(kern)] for kern in kerns]
        assert [len(t.grid.breaks) for t in batch] == [2, 4, 2, 4]
        assert batch[1].grid.n_per != batch[3].grid.n_per
        for kern, got in zip(kerns, batch):
            want = iterints.build_table(kern, u, tol=1e-9)
            assert got.kernel is kern
            assert got.grid.n_per == want.grid.n_per
            assert got.est_error == want.est_error
            assert got.log_base.tobytes() == want.log_base.tobytes()
            assert len(got.panels) == len(want.panels) == 2
            for a, b in zip(got.panels, want.panels):
                assert isinstance(a, np.ndarray) and a.shape == (iterints.N_V, got.grid.total)
                assert a.tobytes() == b.tobytes()

    def test_enveloped_and_plain_tables_share_a_batch(self, monkeypatch):
        # base rows spanning e^0.2 and e^0.33 are enveloped at this
        # threshold, those spanning e^0.001 are not; the batch of four
        # gives every table the bits of its own build
        monkeypatch.setattr(iterints, "ENVELOPE_LOG", 0.1)
        u = 2.5
        kerns = [iterints.make_kernel(s, m, u) for s, m in [(1, 11), (1, 2), (2, 12), (2, 4)]]
        done = dict(iterints.build_tables(kerns, u, tol=1e-9))
        assert [done[i].enveloped for i in range(4)] == [False, True, False, True]
        for i, kern in enumerate(kerns):
            want = iterints.build_table(kern, u, tol=1e-9)
            assert done[i].est_error == want.est_error
            assert done[i].log_base.tobytes() == want.log_base.tobytes()
            assert [p.tobytes() for p in done[i].panels] == [p.tobytes() for p in want.panels]

    def test_sixteen_log_kernels_march_as_one_batch(self, monkeypatch):
        # orders past the old log-scale switch (s > 60) march in float
        # phi/B like any other, so sixteen of them fill one batch
        calls = []
        ladder = iterints._ladder

        def counting(kernels, *args):
            calls.append(len(kernels))
            return ladder(kernels, *args)

        monkeypatch.setattr(iterints, "_ladder", counting)
        u = 1.5
        kerns = [iterints.make_kernel(s, s + 9, u) for s in range(61, 77)]
        done = dict(iterints.build_tables(kerns, u, tol=1e-6))
        assert calls == [iterints.BATCH_KERNELS] == [16]
        assert sorted(done) == list(range(16))


class TestVQuadrature:
    @pytest.mark.parametrize("large", [False, True])
    def test_march_rule_matches_triple_rule(self, monkeypatch, large):
        # both builds stop on the same t grid, so only the v quadrature
        # differs.  (1, 2) has the roughest integrand: a 4-node rule is off
        # by 1e-10 here, while with m - s > 8 even 4 nodes agree to the bit.
        # (61, 62) is past the old log-scale switch with m - s = 1
        u = 2.5
        kern = iterints.make_kernel(61, 62, u) if large else iterints.make_kernel(1, 2, u)
        table = iterints.build_table(kern, u, tol=1e-8)
        monkeypatch.setattr(iterints, "MARCH_NODES", 3 * iterints.MARCH_NODES)
        fine = iterints.build_table(kern, u, tol=1e-8)
        assert fine.grid.n_per == table.grid.n_per
        for t, v in [(1.0, u), (0.55, u), (1.0, 1.7), (0.3, 2.2)]:
            sa, la = iterints.i_eval_signed_log(table, t, v)
            sb, lb = iterints.i_eval_signed_log(fine, t, v)
            assert sa == sb == 1.0
            assert abs(la - lb) < 5e-12, (t, v)


class TestLogMode:
    """What the removed log-scale tables covered: f taken from its log, and
    I beyond the float range, with the level comparison they brought."""

    def test_matches_float_mode(self):
        # log I_6(t, v) at m = 10, u = 2.5 from the former float-mode
        # tables, which took f from the float solver
        kern = iterints.make_kernel(6, 10, 2.5)
        table = iterints.build_table(kern, v_max=2.5, tol=1e-9)
        float_mode = [
            (0.1, 0.5, -9.154581538490655),
            (0.35, 1.3, 0.8675222093291506),
            (0.6, 2.5, 5.179124003089889),
            (0.85, 1.9, 7.97455288122358),
            (1.0, 2.5, 9.298534080473488),
        ]
        for t, v, want in float_mode:
            sign, got = iterints.i_eval_signed_log(table, t, v)
            assert sign == 1.0
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_base_log_matches_float(self):
        # the base row reads f from its log; the oracle reads the float solver
        kern = iterints.make_kernel(3, 7, 2.0)
        fsol = dde.solve_f(-3, 7, kern.f_sol.U, tol=iterints.F_TOL)
        for t in [0.2, 0.7, 1.0]:
            got = np.exp(iterints._log_base_row(kern, np.array([t]))[0])
            want = oracles.phi_base_trapz(kern, t, f_sol=fsol)
            assert abs(got - want) / want < 1e-7

    def test_gap_reads_levels_far_below_zero(self):
        # every phi near e^-100 (log phi far below zero): the window is
        # taken from the level's own top, so all entries are still compared
        rng = np.random.default_rng(5)
        fine_base = np.exp(-100.0 + rng.uniform(0.0, 1.0, 9))
        fine_panel = np.exp(-100.0 + rng.uniform(0.0, 1.0, (iterints.N_V, 9)))
        coarse_panel = fine_panel.copy()
        coarse_panel[3, 4] *= 1.0 + 2.5e-7
        B = np.eye(9)
        est = iterints._compare_levels(B, (fine_base, [coarse_panel]), (fine_base, [fine_panel]))
        assert est == abs(coarse_panel[3, 4] - fine_panel[3, 4]) / fine_panel[3, 4]

    def test_gap_ignores_entries_far_below_the_top(self):
        fine = np.exp(np.array([[-100.0, -100.5, -150.0]]))
        coarse = fine * (1.0 + np.array([[1e-9, 2e-9, 1e-3]]))
        assert iterints._gap(coarse, fine) == abs(coarse[0, 1] - fine[0, 1]) / fine[0, 1]

    def test_huge_orders_stay_finite(self):
        kern = iterints.make_kernel(200, 260, 1.5)
        sign, lv = iterints.i_base_signed_log(kern, 1.0)
        assert sign == 1.0 and np.isfinite(lv)
        with pytest.raises(RangeError):
            iterints.i_base(kern, 1.0)


class TestEnvelope:
    """Tables whose base row spans more than e^ENVELOPE_LOG store phi over it."""

    @pytest.mark.parametrize("s,m", [(6, 8), (61, 70)])
    def test_enveloped_table_matches_plain_phi(self, monkeypatch, s, m):
        # split and single-panel t grids; both tables meet tol 1e-9
        u = 9.5
        kern = iterints.make_kernel(s, m, u)
        plain = iterints.build_table(kern, u, tol=1e-9)
        monkeypatch.setattr(iterints, "ENVELOPE_LOG", -1.0)
        env = iterints.build_table(kern, u, tol=1e-9)
        assert env.enveloped and not plain.enveloped
        for t, v in [(0.15, 9.5), (0.5, 4.2), (0.8, 1.7), (1.0, 9.5)]:
            sa, la = iterints.i_eval_signed_log(plain, t, v)
            sb, lb = iterints.i_eval_signed_log(env, t, v)
            assert sa == sb == 1.0
            assert abs(la - lb) < 5e-9, (t, v)

    def test_large_u_matches_the_former_log_tables(self):
        # phi at t = 1 is about e^22 times its value at t = 0; float phi
        # itself missed tol here (its rounding at t near 0 reads 3e-7 of
        # those entries), while the former log-scale tables gave log I
        # = 6060.756414046666 with estimate 1.3e-12
        kern = iterints.make_kernel(1000, 1100, 200.0)
        table = iterints.build_table(kern, 200.0, tol=1e-9)
        assert table.enveloped and table.est_error <= 1e-9
        sign, lv = iterints.i_eval_signed_log(table, 1.0, 200.0)
        assert sign == 1.0
        assert abs(lv - 6060.756414046666) < 1e-8

    def test_base_row_stays_finite_where_phi_overflows(self):
        # f grows like u^s: phi at (1000, 1100, t = 1) is past e^709 from
        # u between 1100 and 1200
        kern = iterints.make_kernel(1000, 1100, 1500.0)
        lb = iterints._log_base_row(kern, np.array([0.0, 0.5, 1.0]))
        assert np.isfinite(lb).all() and lb[2] > 709.0
        sign, lv = iterints.i_base_signed_log(kern, 1.0)
        assert sign == 1.0 and lv == kern.L + lb[2]
        with pytest.raises(RangeError):
            iterints.i_base(kern, 1.0)


class TestLevelComparison:
    def test_gap_is_relative_per_entry(self):
        # an entry 1e-6 of the top, off by 1e-4 of itself: a gap scaled by
        # the top entry would read 1e-10, the per-entry gap reads 1e-4
        fine = np.array([1.0, 1e-6, 0.5])
        coarse = fine * np.array([1.0, 1.0 + 1e-4, 1.0])
        assert iterints._gap(coarse, fine) == pytest.approx(1e-4, rel=1e-9)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_fail_the_comparison(self, bad):
        fine = np.array([[1.0, 0.5], [0.25, 0.125]])
        coarse = fine.copy()
        coarse[1, 0] = bad
        B = np.eye(2)
        est = iterints._compare_levels(B, (fine[0], [coarse]), (fine[0], [fine]))
        assert not est <= 1.0
        coarse[1, 0], fine[1, 0] = fine[1, 0], bad
        est = iterints._compare_levels(B, (fine[0], [coarse]), (fine[0], [fine]))
        assert not est <= 1.0

    def test_base_row_is_one_at_t_zero(self):
        # phi/B at t = 0 is the beta integral over itself, whatever the order
        for s, m in [(1, 2), (6, 8), (1000, 1100)]:
            kern = iterints.make_kernel(s, m, 9.5)
            assert abs(iterints._log_base_row(kern, np.array([0.0]))[0]) < 1e-12

    def test_non_finite_level_stops_the_ladder_at_once(self, monkeypatch):
        marches = []
        real_march = iterints._march
        monkeypatch.setattr(iterints, "_march", lambda *a: marches.append(1) or real_march(*a))
        monkeypatch.setattr(iterints, "_compare_levels", lambda *a: math.nan)
        with pytest.raises(RangeError, match="not finite"):
            iterints.build_table(iterints.make_kernel(1, 2, 1.5), 1.5)
        assert len(marches) == 2

    def test_f_gate_uses_the_table_tolerance(self, monkeypatch):
        monkeypatch.setattr(iterints, "F_TOL", 1e-16)
        with pytest.raises(ToleranceError) as exc:
            iterints.make_kernel(61, 62, 9.5)
        assert 1e-16 < exc.value.achieved <= 1e-10


class TestValidation:
    def test_bad_orders(self):
        with pytest.raises(RangeError):
            iterints.make_kernel(0, 3, 1.0)
        with pytest.raises(RangeError):
            iterints.make_kernel(3, 3, 1.0)
        with pytest.raises(RangeError):
            iterints.make_kernel(1, 2, 0.0)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_bad_tol(self, tol):
        kern = iterints.make_kernel(1, 2, 1.5)
        with pytest.raises(RangeError):
            iterints.build_table(kern, 1.5, tol=tol)

    def test_t_out_of_range(self):
        kern = iterints.make_kernel(1, 2, 1.0)
        with pytest.raises(RangeError):
            iterints.i_base(kern, 1.2)
        with pytest.raises(RangeError):
            iterints.i_base(kern, -0.1)

    def test_v_out_of_range(self):
        kern = iterints.make_kernel(1, 2, 2.0)
        table = iterints.build_table(kern, v_max=2.0, tol=1e-8)
        with pytest.raises(RangeError):
            iterints.i_eval(table, 0.5, 2.7)
        with pytest.raises(RangeError):
            iterints.i_eval(table, 0.5, 0.0)

    def test_bad_v_max(self):
        kern = iterints.make_kernel(1, 2, 2.0)
        for v_max in (0.0, 1e9, math.inf, math.nan):
            with pytest.raises(RangeError):
                iterints.build_table(kern, v_max=v_max)

    @pytest.mark.parametrize("u", [math.inf, 1e299, iterints.MAX_PANELS + 2.0])
    def test_u_beyond_the_panel_cap(self, u):
        # rejected before f is solved out to u
        with pytest.raises(RangeError):
            iterints.make_kernel(1, 2, u)

    def test_unreachable_tol_reports_estimate(self):
        kern = iterints.make_kernel(2, 4, 1.8)
        with pytest.raises(ToleranceError) as exc:
            iterints.build_table(kern, v_max=1.8, tol=1e-16)
        assert exc.value.achieved is not None and exc.value.achieved > 1e-16
