"""Tests for the iterated sieve integrals."""

import math
from fractions import Fraction

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

    def test_out_buffer_gives_the_same_rows(self):
        # the march builds every block of t rows in one buffer, larger
        # than the block and holding the last block's rows
        nodes = quadchev.cheb_lobatto(-1.0, 1.0, 9)
        w = quadchev.lobatto_bary_weights(9)
        q = np.append(np.linspace(-1.0, 1.0, 13), nodes[3])
        work = np.full(9 * 20, np.nan)
        B = quadchev.bary_matrix(nodes, w, q, out=work)
        assert np.shares_memory(B, work)
        assert B.tobytes() == quadchev.bary_matrix(nodes, w, q).tobytes()

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

    def test_closed_form_unit_is_exact(self):
        assert iterints.closed_form_unit(1, 2) == Fraction(4, 3)
        assert iterints.closed_form_unit(2, 3) == Fraction(3)
        for m in range(2, 13):
            for s in range(1, m):
                assert iterints.closed_form_unit(s, m) == oracles.i_closed_base(s, m), (s, m)

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


def t_at_product(u, target):
    """A t with u * t == target in floats."""
    t = target / u
    for _ in range(16):
        if u * t == target:
            return t
        t = np.nextafter(t, math.inf if u * t < target else -math.inf)
    raise AssertionError(f"no t gives u t = {target} at u = {u}")


class TestBaseRowInY:
    """_log_base_row sums in y = u t x on unit y-panels; oracles.log_phi_base_x
    is the x-space rule split at j/(u t), with the same halving."""

    KERNELS = [(1, 2, 9.5), (2, 10, 9.5), (61, 70, 9.5), (1000, 1100, 9.5), (1000, 1100, 200.0)]

    @pytest.mark.parametrize("s,m", [(1, 2), (6, 8), (1000, 1100)])
    def test_exactly_zero_where_f_is_one(self, s, m):
        # u t <= 1: the integrand is the beta weight over B, so phi is 1
        u = 9.5
        row = iterints._log_base_row(iterints.make_kernel(s, m, u), np.linspace(0.0, 1.0 / u, 9))
        assert row.tolist() == [0.0] * 9

    @pytest.mark.parametrize("s,m,u", KERNELS)
    def test_against_the_x_space_rule(self, s, m, u):
        kern = iterints.make_kernel(s, m, u)
        ts = [0.0, t_at_product(u, 1.0), t_at_product(u, 2.0), t_at_product(u, 5.0),
              3.0 * (1.0 + 1e-14) / u, 1.0]
        assert u * ts[4] > 3.0
        got = iterints._log_base_row(kern, np.array(ts))
        # both rules sum logs of the size of log B, so each rounds to its ulps
        tol = max(1e-13, 2.0 * np.spacing(abs(iterints._log_beta(s, m))))
        for t, g in zip(ts, got):
            assert abs(g - oracles.log_phi_base_x(kern, t)) <= tol, (t, g)

    def test_t_past_one_is_rejected(self):
        # the kernel holds log f on the whole y-panels below u only
        kern = iterints.make_kernel(2, 4, 3.0)
        with pytest.raises(RangeError):
            iterints._log_base_row(kern, np.array([0.5, np.nextafter(1.0, 2.0)]))

    def test_split_and_enveloped_kernel(self):
        # 16 pieces per unit y-panel, and a row past the envelope
        kern = iterints.make_kernel(1000, 1100, 200.0)
        assert len(kern.base[0]) == 16 * iterints.GL_NODES
        assert iterints._enveloped(iterints._log_base_row(kern, np.array([0.0, 1.0])))

    @pytest.mark.parametrize("s,m,u", [(2, 4, 3.5), (1000, 1100, 200.0)])
    def test_node_alone_matches_its_row(self, s, m, u):
        # a split t grid whose row goes in one block, and the 16-way split,
        # whose nodes share blocks near t = 0 and go alone near t = 1
        kern = iterints.make_kernel(s, m, u)
        nodes = iterints._make_tgrid(iterints._t_breaks(kern), 17).nodes
        row = iterints._log_base_row(kern, nodes)
        for i, t in enumerate(nodes):
            assert iterints._log_base_row(kern, np.array([t])).tobytes() == row[i:i + 1].tobytes()


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


class TestRegion:
    """Tables marched only on the cone t >= slope * v that their reader needs."""

    BREAKS = np.asarray(sorted({0.0, 1.0, *(j / 9.5 for j in range(1, 10))}))

    @staticmethod
    def cone_points(slope, v_max):
        for v in np.linspace(1.05, v_max, 9):
            if slope * v < 1.0:
                for t in slope * v + (1.0 - slope * v) * np.linspace(0.0, 1.0, 6):
                    yield float(t), float(v)

    def test_first_tpanels(self):
        # on the breaks j/u with slope 1/u, v-panel r starts at t panel r;
        # at v_max 2.5 the cone t >= 0.4 v starts at t panels 3 and 7
        assert iterints._first_tpanels(self.BREAKS, 9.5, 1 / 9.5).tolist() == list(range(1, 10))
        assert iterints._first_tpanels(self.BREAKS, 2.5, 0.4).tolist() == [3, 7]
        assert iterints._first_tpanels(self.BREAKS, 9.5, 0.0).tolist() == [0] * 9
        assert iterints._first_tpanels(np.array([0.0, 1.0]), 9.5, 1 / 9.5).tolist() == [0] * 9

    @pytest.mark.parametrize("v_max,slopes", [(9.5, [1 / 9.5, 0.0316, 0.0526, 0.2]),
                                              (2.5, [0.4, 0.1])])
    def test_cone_agrees_with_the_whole_table(self, v_max, slopes):
        tol = 1e-8
        kern = iterints.make_kernel(2, 3, 9.5)
        whole = iterints.build_table(kern, v_max, tol=tol)
        assert whole.lo == (0,) * len(whole.panels)
        for slope in slopes:
            cone = iterints.build_table(kern, v_max, tol=tol, slope=slope)
            lo = iterints._first_tpanels(whole.grid.breaks, v_max, slope)
            assert cone.lo == tuple(lo.tolist()) and max(lo) > 0
            n = cone.grid.n_per
            for p, a in zip(cone.panels, lo):
                assert p.shape == (iterints.N_V, cone.grid.total - a * n) and np.isfinite(p).all()
            for t, v in self.cone_points(slope, v_max):
                sa, la = iterints.i_eval_signed_log(cone, t, v)
                sb, lb = iterints.i_eval_signed_log(whole, t, v)
                assert sa == sb == 1.0
                assert abs(la - lb) <= tol, (slope, t, v)

    def test_enveloped_cone_agrees_with_the_whole_table(self, monkeypatch):
        monkeypatch.setattr(iterints, "ENVELOPE_LOG", 0.1)
        u, tol = 9.5, 1e-8
        kern = iterints.make_kernel(2, 4, u)
        whole = iterints.build_table(kern, u, tol=tol)
        cone = iterints.build_table(kern, u, tol=tol, slope=1 / u)
        assert whole.enveloped and cone.enveloped
        assert cone.lo == tuple(range(1, 10))
        for t, v in self.cone_points(1 / u, u):
            sa, la = iterints.i_eval_signed_log(cone, t, v)
            sb, lb = iterints.i_eval_signed_log(whole, t, v)
            assert sa == sb == 1.0
            assert abs(la - lb) <= tol, (t, v)

    def test_mixed_batch_matches_separate_builds(self):
        u = 9.5
        kerns = [iterints.make_kernel(s, m, u) for s, m in [(1, 11), (1, 2), (2, 12), (2, 4)]]
        done = dict(iterints.build_tables(kerns, u, tol=1e-9, slope=1 / u))
        assert [done[i].lo[-1] for i in range(4)] == [0, 9, 0, 9]
        for i, kern in enumerate(kerns):
            want = iterints.build_table(kern, u, tol=1e-9, slope=1 / u)
            assert (done[i].x_nodes, done[i].x_gap) == (want.x_nodes, want.x_gap)
            assert done[i].grid.n_per == want.grid.n_per
            assert done[i].est_error == want.est_error
            assert done[i].log_base.tobytes() == want.log_base.tobytes()
            assert [p.tobytes() for p in done[i].panels] == [p.tobytes() for p in want.panels]

    def test_march_raises_on_a_read_outside_the_region(self, monkeypatch):
        # v-panel 2, marched from t panel 3, reads v-panel 1 near t = 1.5/u,
        # on t panel 1, which a region starting at t panel 3 has not marched
        monkeypatch.setattr(iterints, "_first_tpanels",
                            lambda breaks, v_max, slope: np.full(iterints._panel_count(v_max), 3))
        with pytest.raises(RangeError, match="reads t panel"):
            iterints.build_table(iterints.make_kernel(1, 2, 9.5), 9.5, tol=1e-6)

    def test_eval_raises_outside_the_region(self):
        u = 9.5
        table = iterints.build_table(iterints.make_kernel(1, 2, u), u, tol=1e-9, slope=1 / u)
        assert table.grid.n_per == 33 and table.est_error <= 1e-9
        assert iterints.i_eval_signed_log(table, 1.0, u)[0] == 1.0
        assert iterints.i_eval_signed_log(table, 0.12, 1.0)[0] == 1.0  # the whole base row
        with pytest.raises(RangeError, match="outside the table's region"):
            iterints.i_eval_signed_log(table, 0.12, u)

    @pytest.mark.parametrize("slope", [-0.1, math.nan, math.inf])
    def test_bad_slope(self, slope):
        with pytest.raises(RangeError, match="slope"):
            iterints.build_table(iterints.make_kernel(1, 2, 1.5), 1.5, slope=slope)


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



class TestXRule:
    """Each table takes its x-rule node count from a nested check on the first rung."""

    @staticmethod
    def forced(monkeypatch):
        monkeypatch.setattr(iterints, "_x_candidates", lambda: ())

    def test_failing_kernel_matches_the_forced_rule(self, monkeypatch):
        # (1, 2) at u = 9.5 is the roughest integrand: 8 nodes miss the
        # 16-node table by more than tol / X_SHARE, so it keeps MARCH_NODES
        kern = iterints.make_kernel(1, 2, 9.5)
        table = iterints.build_table(kern, 9.5, tol=1e-8)
        assert table.x_nodes == iterints.MARCH_NODES == 16
        assert table.x_gap > 1e-8 / iterints.X_SHARE
        self.forced(monkeypatch)
        want = iterints.build_table(kern, 9.5, tol=1e-8)
        assert want.x_nodes == 16 and math.isnan(want.x_gap)
        assert table.grid.n_per == want.grid.n_per
        assert table.est_error == want.est_error
        assert table.log_base.tobytes() == want.log_base.tobytes()
        assert [p.tobytes() for p in table.panels] == [p.tobytes() for p in want.panels]

    def test_smooth_kernel_takes_four_nodes(self, monkeypatch):
        tol = 1e-6
        kern = iterints.make_kernel(2, 3, 9.5)
        table = iterints.build_table(kern, 9.5, tol=tol)
        assert table.x_nodes == 4
        assert table.x_gap <= tol / iterints.X_SHARE
        self.forced(monkeypatch)
        want = iterints.build_table(kern, 9.5, tol=tol)
        assert want.x_nodes == 16 and want.grid.n_per == table.grid.n_per
        sa, la = iterints.i_eval_signed_log(table, 1.0, 9.5)
        sb, lb = iterints.i_eval_signed_log(want, 1.0, 9.5)
        assert sa == sb == 1.0
        assert abs(la - lb) <= tol / iterints.X_SHARE

    def test_mixed_counts_in_one_batch(self):
        # at tol 1e-8 the kernels sharing the j/u breaks take 8, 4 and 16
        # nodes; (1, 10) has one t panel and its own batch
        u, tol = 9.5, 1e-8
        kerns = [iterints.make_kernel(s, m, u) for s, m in [(1, 3), (1, 4), (2, 3), (1, 10)]]
        done = dict(iterints.build_tables(kerns, u, tol=tol))
        assert [done[i].x_nodes for i in range(4)] == [8, 4, 16, 4]
        for i, kern in enumerate(kerns):
            want = iterints.build_table(kern, u, tol=tol)
            assert (done[i].x_nodes, done[i].x_gap) == (want.x_nodes, want.x_gap)
            assert done[i].est_error == want.est_error
            assert done[i].log_base.tobytes() == want.log_base.tobytes()
            assert [p.tobytes() for p in done[i].panels] == [p.tobytes() for p in want.panels]

    def test_one_march_per_rung_for_one_count(self, monkeypatch):
        # each march takes one rule: the first rung marches 4 nodes, then 8,
        # and 16 only for a kernel that 4 nodes fail; later rungs march the
        # chosen count alone.  (2, 3) at 1e-6 takes 4 nodes; (1, 2) at 1e-8
        # misses with 4 and with 8, and keeps 16
        calls = []
        march = iterints._march
        monkeypatch.setattr(iterints, "_march", lambda *a: calls.append(a[-1]) or march(*a))
        for s, m, tol, want, n_per in [(2, 3, 1e-6, [4, 8, 4, 4], 33),
                                       (1, 2, 1e-8, [4, 8, *[16] * 5], 129)]:
            calls.clear()
            table = iterints.build_table(iterints.make_kernel(s, m, 9.5), 9.5, tol=tol)
            assert calls == want
            assert table.grid.n_per == n_per

    def test_nan_gap_after_a_finite_one_fails(self, monkeypatch):
        # every panel past the first reads a NaN gap: the check must fail
        # each candidate, where Python's max would drop the NaNs after the
        # first panel's 0.0 and pass 4 nodes with a gap of 0.0
        kern = iterints.make_kernel(2, 3, 9.5)
        grid = iterints._make_tgrid(iterints._t_breaks(kern), (iterints.N_PER_START + 1) // 2)
        lo = iterints._first_tpanels(grid.breaks, 9.5, 0.0)
        logs = [iterints._log_base_row(kern, grid.nodes)]
        calls = []

        def gap(coarse, fine):
            calls.append(None)
            return 0.0 if len(calls) % len(lo) == 1 else math.nan

        monkeypatch.setattr(iterints, "_gap", gap)
        ((rule, _),) = iterints._x_rule([kern], lo, grid, logs, 1e-6)
        assert rule[0] == iterints.MARCH_NODES and math.isnan(rule[1])
        assert len(lo) > 1 and len(calls) == 2 * len(lo)

    def test_candidates_tried_first_leave_the_table_alone(self, monkeypatch):
        # (1, 3) at 1e-8 takes 8 nodes after 4 fail; with 8 the first
        # candidate, the table it takes is the same, bit for bit
        kern = iterints.make_kernel(1, 3, 9.5)
        want = iterints.build_table(kern, 9.5, tol=1e-8)
        monkeypatch.setattr(iterints, "_x_candidates", lambda: (8,))
        got = iterints.build_table(kern, 9.5, tol=1e-8)
        assert want.x_nodes == got.x_nodes == 8
        assert got.x_gap == want.x_gap and got.est_error == want.est_error
        assert got.grid.n_per == want.grid.n_per
        assert got.log_base.tobytes() == want.log_base.tobytes()
        assert [p.tobytes() for p in got.panels] == [p.tobytes() for p in want.panels]

    def test_step_size_leaves_tables_bit_identical(self, monkeypatch):
        # one v-node interval per step, and a whole panel per step, give the
        # bits of the default steps.  (1, 3), (1, 4) and (2, 3) take 8, 4 and
        # 16 nodes; at this threshold (6, 8), whose base row spans e^3.8,
        # is enveloped and the other three (e^3.0 at most) are not
        monkeypatch.setattr(iterints, "ENVELOPE_LOG", 3.5)
        u, tol = 9.5, 1e-8
        kerns = [iterints.make_kernel(s, m, u) for s, m in [(1, 3), (1, 4), (2, 3), (6, 8)]]
        want = dict(iterints.build_tables(kerns, u, tol=tol))
        assert [want[i].x_nodes for i in range(3)] == [8, 4, 16]
        assert [want[i].enveloped for i in range(4)] == [False, False, False, True]
        for rows in (1, 16 * iterints.MARCH_NODES * max(t.grid.total for t in want.values())):
            monkeypatch.setattr(iterints, "STEP_ROWS", rows)
            got = dict(iterints.build_tables(kerns, u, tol=tol))
            for i in range(len(kerns)):
                assert (got[i].x_nodes, got[i].x_gap) == (want[i].x_nodes, want[i].x_gap)
                assert got[i].est_error == want[i].est_error
                assert got[i].log_base.tobytes() == want[i].log_base.tobytes()
                assert [p.tobytes() for p in got[i].panels] == [p.tobytes() for p in want[i].panels]


class TestVInterpolation:
    def test_nine_v_nodes_stay_near_seventeen(self, monkeypatch):
        # ROADMAP item 5 measured 2.5e-10 between 9 and 17 Lobatto v nodes
        # per panel at (2, 3, 9.5); the x rule of each build is its own
        kern = iterints.make_kernel(2, 3, 9.5)
        table = iterints.build_table(kern, 9.5, tol=1e-6)
        sa, la = iterints.i_eval_signed_log(table, 1.0, 9.5)
        monkeypatch.setattr(iterints, "N_V", 9)  # i_eval reads N_V too
        coarse = iterints.build_table(kern, 9.5, tol=1e-6)
        assert coarse.panels[0].shape[0] == 9 and coarse.grid.n_per == table.grid.n_per
        sb, lb = iterints.i_eval_signed_log(coarse, 1.0, 9.5)
        assert sa == sb == 1.0
        assert abs(lb - la) <= 1e-9

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

    def test_float_edge_is_the_float_range(self):
        # log I = 709.4 lies past 709 but below log(float max) = 709.78:
        # the value is a finite float
        kern = iterints.make_kernel(200, 230, 9.5)
        t = 0.042689569384520176
        _, lv = iterints.i_base_signed_log(kern, t)
        assert 709.0 < lv < math.log(np.finfo(float).max)
        assert 1.22e308 < iterints.i_base(kern, t) < 1.23e308

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
        assert len(marches) == 3  # 4 and 8 nodes on the first rung, then the second rung

    def test_f_gate_uses_the_table_tolerance(self, monkeypatch):
        monkeypatch.setattr(iterints, "F_TOL", 1e-16)
        with pytest.raises(ToleranceError) as exc:
            iterints.make_kernel(61, 62, 9.5)
        assert 1e-16 < exc.value.achieved <= 1e-10


class TestReferenceComparison:
    """The level comparison applies one reference-panel matrix to every t panel."""

    BREAKS = np.array([0.0, 0.2, 0.45, 0.7, 1.0])

    def test_matches_the_dense_coarse_to_fine_matrix(self):
        prev_grid = iterints._make_tgrid(self.BREAKS, 9)
        grid = iterints._make_tgrid(self.BREAKS, 17)
        n = prev_grid.n_per
        dense = np.zeros((grid.total, prev_grid.total))  # the coarse grid at the fine nodes
        for rows, owner, C in iterints._t_rows(prev_grid, grid.nodes):
            np.put_along_axis(dense[rows], owner[:, None] * n + np.arange(n), C, 1)
        rng = np.random.default_rng(11)
        a, b = rng.uniform(0.5, 2.0, (2, iterints.N_V, 1))
        coarse_base = 2.0 + np.sin(3.0 * prev_grid.nodes)
        coarse_panel = 2.0 + np.cos(b * 4.0 * prev_grid.nodes) * np.exp(-a * prev_grid.nodes)
        coarse = (coarse_base, [coarse_panel])
        fine = (dense @ coarse_base, [coarse_panel @ dense.T])
        R = quadchev.bary_matrix(prev_grid.ref, prev_grid.bw, grid.ref)
        assert R.shape == (grid.n_per, prev_grid.n_per)
        assert iterints._compare_levels(R, coarse, fine) <= 1e-13
        fine[1][0][5, 40] *= 1.0 + 1e-6
        assert iterints._compare_levels(R, coarse, fine) == pytest.approx(1e-6, rel=1e-5)

    def test_ladder_compares_through_the_reference_panel(self, monkeypatch):
        # (1, 2) at u = 3.5 has four t panels; each rung's matrix is
        # n_per x n_prev, not (4 n_per) x (4 n_prev)
        shapes = []
        compare = iterints._compare_levels
        monkeypatch.setattr(iterints, "_compare_levels",
                            lambda R, *a: shapes.append(R.shape) or compare(R, *a))
        table = iterints.build_table(iterints.make_kernel(1, 2, 3.5), 3.5, tol=1e-6)
        assert len(table.grid.breaks) == 5
        assert shapes[-1] == (table.grid.n_per, (table.grid.n_per + 1) // 2)
        assert all(r == 2 * c - 1 for r, c in shapes)


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
