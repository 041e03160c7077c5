"""Rate-equation kernel checks.

The load-bearing oracles here are closed-form: the single-pair stimulated
emission magnitude, the detailed-balance fixed point N = n/(1-2n) evaluated
at the thermal population (equal to the Planck occupation exactly), and the
excitation count whose interaction part cancels because g_p = N_j * g_a.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photherm import atoms, kinetics, steady
from photherm.integrate import integrate
from photherm.params import PhysicalParams, preset

# Planck occupation at Omega = 9.43e13 rad/s, T = 400 K (hand-checked value)
BE_EDGE_400K = 0.19786447249418188


def pair_tables(omega=9.43e13, conf=0.76, **overrides) -> kinetics.CouplingTables:
    """One mode, one resonant atom frequency."""
    p = preset("eq-strong", **overrides)
    return kinetics.build_tables(
        np.array([omega]), np.array([conf]), np.array([omega]), p
    )


def overlap(t: kinetics.CouplingTables) -> np.ndarray:
    """Lorentzian overlap L_nk recovered from W by removing the mode weights."""
    return t.W / (t.omega_modes * t.gamma_conf)


class TestBuildTables:
    def test_resonance_weight_is_one(self):
        t = pair_tables()
        assert overlap(t)[0, 0] == 1.0

    def test_half_weight_at_one_linewidth(self):
        p = PhysicalParams()
        t = kinetics.build_tables(
            np.array([2.0e14]),
            np.array([0.5]),
            np.array([2.0e14 + p.dephasing_rate]),
            p,
        )
        assert overlap(t)[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_weights_in_unit_interval_and_detuning_symmetric(self, reduced_tables):
        L = overlap(reduced_tables)
        assert np.all(L > 0.0) and np.all(L <= 1.0)
        om_a = reduced_tables.omega_atoms
        om_m = reduced_tables.omega_modes
        # same |detuning| -> same weight, regardless of sign
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(0, om_a.size)
            k = rng.integers(0, om_m.size)
            d = om_a[n] - om_m[k]
            mirrored = 1.0 / (1.0 + (d / 1e14) ** 2)
            assert L[n, k] == pytest.approx(mirrored, rel=1e-14)

    def test_mid_band_column_sums(self, reduced_tables, reduced_params):
        # Riemann sum of the Lorentzian over the covered atom window: the
        # infinite-integral estimate pi*gamma/delta overshoots by ~25% here
        # because gamma/omega_max = 0.2 leaves that much mass in the cut
        # tails, so the window-corrected arctan form is the tight oracle
        gamma = reduced_params.dephasing_rate
        delta = reduced_params.omega_max / (reduced_params.n_atom_freqs + 1)
        om_a = reduced_tables.omega_atoms
        mid = (reduced_tables.omega_modes > 2.0e14) & (
            reduced_tables.omega_modes < 3.0e14
        )
        om_mid = reduced_tables.omega_modes[mid]
        sums = np.einsum("nk->k", overlap(reduced_tables), optimize=False)[mid]
        windowed = (gamma / delta) * (
            np.arctan((om_a[-1] - om_mid) / gamma)
            + np.arctan((om_mid - om_a[0]) / gamma)
        )
        assert np.all(np.abs(sums / windowed - 1.0) < 0.03)
        coarse = np.pi * gamma / delta
        assert np.all(np.abs(sums / coarse - 1.0) < 0.3)

    def test_w_is_confinement_weighted(self, reduced_tables, reduced_params):
        t = reduced_tables
        detune = (t.omega_atoms[:, None] - t.omega_modes[None, :]) / (
            reduced_params.dephasing_rate
        )
        lorentzian = 1.0 / (1.0 + detune**2)
        expect = lorentzian * (t.omega_modes * t.gamma_conf)
        assert np.array_equal(t.W, expect)

    @pytest.mark.parametrize(
        "change",
        [
            {"atom_density": 5e22},
            {"photon_loss_rate": 5e12},
            {"relaxation_rate": 1e10},
            {"pump_amplitude": 3e12},
        ],
    )
    def test_new_rates_share_the_basis(self, reduced_table, reduced_tables, change):
        # rates live in params alone, and Q and B depend only on the atom
        # grid, the modes and dephasing_rate: replacing the params of built
        # tables gives the tables a fresh build gives, bit for bit
        p2 = reduced_tables.params.replace(**change)
        got = dataclasses.replace(reduced_tables, params=p2)
        want = kinetics.build_tables(
            reduced_table.omega, reduced_table.gamma_conf, atoms.build_grid(p2), p2
        )
        arrays = [k for k, v in vars(want).items() if isinstance(v, np.ndarray)]
        assert {"Q", "B", "fermi", "pump", "W_colsum", "a0", "a1", "b0", "b1"} <= set(arrays)
        for name in arrays:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.w_max == want.w_max and got.params == p2
        # and the new rate reaches the rhs constants
        assert not np.array_equal(
            np.concatenate([got.a0, got.b0, got.b1]),
            np.concatenate([reduced_tables.a0, reduced_tables.b0, reduced_tables.b1]),
        )

    @pytest.mark.parametrize("factor", [0.5, 1.0 + 1e-6, 1.0 - 1e-6])
    def test_basis_of_another_dephasing_rate_rejected(self, reduced_tables, factor):
        # Q and B are the basis of one Lorentzian: params with another
        # dephasing_rate cannot take them over
        p2 = reduced_tables.params.replace(
            dephasing_rate=factor * reduced_tables.params.dephasing_rate
        )
        with pytest.raises(ValueError, match="another dephasing_rate"):
            dataclasses.replace(reduced_tables, params=p2)

    def test_empty_inputs_rejected(self):
        p = PhysicalParams()
        empty = np.array([])
        with pytest.raises(ValueError):
            kinetics.build_tables(empty, empty, np.array([1e14]), p)
        with pytest.raises(ValueError):
            kinetics.build_tables(np.array([1e14]), np.array([0.5]), empty, p)

    def test_descending_atom_grid_rejected(self):
        # the interpolation interval and the column peaks read the grid in order
        p = preset("eq-strong")
        with pytest.raises(ValueError, match="not ascending"):
            kinetics.build_tables(np.array([1e14]), np.array([0.5]), np.array([2e14, 1e14]), p)


class TestRhs:
    def test_zero_state_spontaneous_only(self, reduced_table, reduced_params):
        p = reduced_params.replace(pump_amplitude=0.0)
        t = kinetics.build_tables(
            reduced_table.omega, reduced_table.gamma_conf, atoms.build_grid(p), p
        )
        r = kinetics.rhs(np.zeros(t.n_freqs + t.n_modes), t)
        dn, dN = t.split(r)
        assert np.array_equal(dN, np.zeros(t.n_modes))
        assert np.array_equal(dn, p.relaxation_rate * t.fermi)
        assert np.all(dn > 0.0)

    def test_single_pair_stimulated_magnitude(self):
        p = PhysicalParams()
        t = kinetics.build_tables(
            np.array([2.0e14]), np.array([0.5]), np.array([2.0e14]), p
        )
        t = dataclasses.replace(
            t, params=p.replace(relaxation_rate=0.0, photon_loss_rate=0.0, pump_amplitude=0.0)
        )
        assert np.array_equal(t.pump, np.zeros(1))
        r = kinetics.rhs(np.array([0.25, 0.0]), t)
        assert r[1] == pytest.approx(p.g_photon * 2.0e14 * 0.5 * 0.25, rel=1e-14)

    def test_detailed_balance_fixed_point(self):
        # resonant pair at thermal population and Planck photon number:
        # stimulated absorption/emission and spontaneous emission cancel
        t = pair_tables(photon_loss_rate=0.0, pump_amplitude=0.0)
        y = np.concatenate([t.fermi, [BE_EDGE_400K]])
        r = kinetics.rhs(y, t)
        scale = t.params.g_photon * t.W[0, 0]
        assert abs(r[0]) <= 1e-12 * t.params.g_atom * t.W[0, 0]
        assert abs(r[1]) <= 1e-12 * scale

    def test_rejects_non_finite_state(self, reduced_tables):
        y = np.zeros(reduced_tables.n_freqs + reduced_tables.n_modes)
        y[0] = np.nan
        with pytest.raises(FloatingPointError):
            kinetics.rhs(y, reduced_tables)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conservation_of_interaction_terms(self, seed):
        # with every bath channel off, N_j * sum(dn) + sum(dN) cancels exactly
        rng = np.random.default_rng(seed)
        p = preset(
            "eq-strong",
            relaxation_rate=0.0,
            photon_loss_rate=0.0,
            pump_amplitude=0.0,
        )
        om_m = np.sort(rng.uniform(1e13, 4.9e14, 7))
        om_a = np.sort(rng.uniform(1e13, 4.9e14, 5))
        conf = rng.uniform(1e-5, 1.0, om_m.size)
        t = kinetics.build_tables(om_m, conf, om_a, p)
        y = np.concatenate(
            [rng.uniform(0, 1, om_a.size), rng.uniform(0, 10, om_m.size)]
        )
        r = kinetics.rhs(y, t)
        dn, dN = t.split(r)
        e_dot = p.atoms_per_site * np.sum(dn) + np.sum(dN)
        scale = p.atoms_per_site * np.sum(np.abs(dn)) + np.sum(np.abs(dN))
        assert abs(e_dot) <= 1e-12 * max(scale, 1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_simplex_boundary_flow(self, seed):
        rng = np.random.default_rng(seed)
        p = preset("eq-strong", pump_amplitude=0.0)
        om_m = np.sort(rng.uniform(1e13, 4.9e14, 6))
        om_a = np.sort(rng.uniform(1e13, 4.9e14, 4))
        t = kinetics.build_tables(om_m, rng.uniform(0.0, 1.0, 6), om_a, p)
        photons = rng.uniform(0, 5, 6)

        low = kinetics.rhs(t.pack(np.zeros(4), photons), t)
        assert np.all(low[:4] >= 0.0)

        high = kinetics.rhs(t.pack(np.ones(4), photons), t)
        assert np.all(high[:4] <= 0.0)

        dark = kinetics.rhs(t.pack(rng.uniform(0, 1, 4), np.zeros(6)), t)
        assert np.all(dark[4:] >= 0.0)

    def test_affine_in_each_photon_number(self, reduced_tables):
        t = reduced_tables
        rng = np.random.default_rng(11)
        y = np.concatenate(
            [rng.uniform(0, 0.5, t.n_freqs), rng.uniform(0, 2, t.n_modes)]
        )
        base = kinetics.rhs(y, t)
        k = t.n_freqs + 137
        for delta in (0.5, 1.0, 2.0):
            bumped = y.copy()
            bumped[k] += delta
            slope = (kinetics.rhs(bumped, t) - base) / delta
            if delta == 0.5:
                ref = slope
            else:
                scale = np.max(np.abs(ref)) or 1.0
                assert np.max(np.abs(slope - ref)) <= 1e-12 * scale


def rate_terms(y: np.ndarray, t: kinetics.CouplingTables):
    """Every term of the module docstring's two rate equations, summed directly."""
    n, N = t.split(y)
    W, p = t.W, t.params
    emit = (2.0 * n - 1.0) * np.sum(W * N, axis=1) + n * np.sum(W, axis=1)
    electron = (-p.g_atom * emit, -p.relaxation_rate * (n - t.fermi), t.pump * (1.0 - n))
    gain = N * np.sum(W * (2.0 * n - 1.0)[:, None], axis=0)
    photon = (
        p.g_photon * gain,
        p.g_photon * np.sum(W * n[:, None], axis=0),
        -p.photon_loss_rate * N,
    )
    return electron, photon


class TestAffineCoefficients:
    def test_rhs_matches_term_by_term_equations(self, reduced_tables):
        t = reduced_tables
        rng = np.random.default_rng(5)
        y = np.concatenate(
            [rng.uniform(0, 1, t.n_freqs), rng.uniform(0, 3, t.n_modes)]
        )
        electron, photon = rate_terms(y, t)
        ref = np.concatenate([sum(electron), sum(photon)])
        scale = np.concatenate(
            [sum(np.abs(x) for x in electron), sum(np.abs(x) for x in photon)]
        )
        r = kinetics.rhs(y, t)
        assert np.max(np.abs(r - ref) / scale) < 1e-12
        a, b = kinetics.affine_coefficients(y, t)
        assert np.array_equal(a * y + b, r)

    def test_diagonal_matches_finite_difference(self, reduced_tables):
        t = reduced_tables
        rng = np.random.default_rng(9)
        y = np.concatenate(
            [rng.uniform(0.1, 0.4, t.n_freqs), rng.uniform(0.1, 2, t.n_modes)]
        )
        diag = kinetics.affine_coefficients(y, t)[0]
        for i in (0, t.n_freqs - 1, t.n_freqs, t.n_freqs + t.n_modes - 1):
            h = 1e-6 * max(abs(y[i]), 1.0)
            up = y.copy()
            up[i] += h
            fd = (kinetics.rhs(up, t)[i] - kinetics.rhs(y, t)[i]) / h
            assert fd == pytest.approx(diag[i], rel=1e-5, abs=1e-3)


def dense_jacobian(y: np.ndarray, t: kinetics.CouplingTables) -> np.ndarray:
    """The Jacobian of rhs written out from the rate equations, entry by entry
    off the diagonal; the diagonal is affine_coefficients' a (checked above
    against finite differences)."""
    n, N = t.split(y)
    J = np.diag(kinetics.affine_coefficients(y, t)[0])
    J[: t.n_freqs, t.n_freqs :] = -t.params.g_atom * t.W * (2.0 * n - 1.0)[:, None]
    J[t.n_freqs :, : t.n_freqs] = t.params.g_photon * t.W.T * (2.0 * N + 1.0)[:, None]
    return J


def shifted_lu_state(kind: str, t: kinetics.CouplingTables) -> np.ndarray:
    rng = np.random.default_rng(17)
    if kind == "thermal":
        return t.pack(t.fermi, kinetics.quasi_steady_photon(t.fermi, t))
    n_e = np.full(t.n_freqs, 0.9)
    if kind == "half-inverted":
        n_e[::2] = t.fermi[::2]
    return t.pack(n_e, rng.uniform(0.0, 10.0, t.n_modes))


@pytest.fixture(scope="module")
def full_rank_tables(reduced_table, reduced_params):
    """Reduced tables with Lorentzians narrower than the atom-grid spacing:
    W has full rank, so the range basis is exact."""
    p = reduced_params.replace(dephasing_rate=1e12)
    return kinetics.build_tables(
        reduced_table.omega, reduced_table.gamma_conf, atoms.build_grid(p), p
    )


@pytest.fixture(scope="module")
def mid_rank_tables(reduced_table, reduced_params):
    """Reduced tables on a 200-point atom grid with narrower Lorentzians:
    the first rank tried fails the error check and the doubled one passes."""
    p = reduced_params.replace(n_atom_freqs=200, dephasing_rate=5e13)
    return kinetics.build_tables(
        reduced_table.omega, reduced_table.gamma_conf, atoms.build_grid(p), p
    )


@pytest.fixture(scope="module")
def full_tables(full_table, full_params):
    grid = atoms.build_grid(full_params)
    return kinetics.build_tables(full_table.omega, full_table.gamma_conf, grid, full_params)


class TestRangeBasis:
    @pytest.mark.parametrize("name", ["reduced_tables", "full_tables"])
    def test_rank_64_basis_reproduces_w(self, name, request):
        # the Lorentzian spans ~100 atom-grid spacings: the first rank tried
        # is certified at both scales
        self.check_basis(request.getfixturevalue(name), 64)

    def test_doubled_rank_basis_reproduces_w(self, mid_rank_tables):
        self.check_basis(mid_rank_tables, 128)

    @staticmethod
    def check_basis(t, rank):
        assert t.Q.shape == (t.n_freqs, rank) and t.B.shape == (rank, t.n_modes)
        assert np.abs(t.Q.T @ t.Q - np.eye(rank)).max() <= 1e-14
        # B = (Q^T P) L_x diag(Omega Gamma), with L = P L_x the interpolant
        P, Lx, _ = kinetics._core(t.omega_atoms, t.omega_modes, t.params.dephasing_rate)
        assert np.array_equal(t.B, ((t.Q.T @ P) @ Lx) * (t.omega_modes * t.gamma_conf))
        err = np.linalg.norm(t.W - t.Q @ t.B)
        assert err <= kinetics.RANGE_RTOL * np.linalg.norm(t.W)

    def test_basis_is_reproducible(self, reduced_table, reduced_params):
        grid = atoms.build_grid(reduced_params)
        a, b = (
            kinetics.build_tables(
                reduced_table.omega, reduced_table.gamma_conf, grid, reduced_params
            )
            for _ in range(2)
        )
        assert np.array_equal(a.Q, b.Q) and np.array_equal(a.B, b.B)

    def test_full_rank_w_gets_exact_basis(self, full_rank_tables):
        t = full_rank_tables
        assert np.array_equal(t.Q, np.eye(t.n_freqs)) and np.array_equal(t.B, t.W)
        assert t.n_freqs == 100

    def test_columns_accurate_at_full_scale(self, full_tables):
        # the basis is found on the unscaled Lorentzian, so the weakly
        # confined modes (small Omega Gamma) keep their relative accuracy
        t = full_tables
        err = np.linalg.norm(t.Q @ t.B - t.W, axis=0)
        assert np.all(err <= 1e-13 * np.linalg.norm(t.W, axis=0))

    def test_full_scale_build_never_streams_l(self, full_table, full_params, monkeypatch):
        # every Lorentzian evaluation goes through _lorentzian: at full scale
        # the build sees the node table and single columns, never L itself
        shapes = []
        lorentzian = kinetics._lorentzian
        monkeypatch.setattr(
            kinetics, "_lorentzian", lambda d, g: shapes.append(d.shape) or lorentzian(d, g)
        )
        grid = atoms.build_grid(full_params)
        t = kinetics.build_tables(full_table.omega, full_table.gamma_conf, grid, full_params)
        assert (t.range_nodes, t.n_modes) in shapes
        assert (t.n_freqs, t.n_modes) not in shapes
        assert t.Q.shape == (500, 64) and t.range_nodes == 108

    @pytest.mark.parametrize("name", ["reduced_tables", "full_tables"])
    def test_row_slices_stack_to_w(self, name, request):
        t = request.getfixturevalue(name)
        starts = range(0, t.n_freqs, kinetics.BLOCK_ROWS)
        blocks = [t.w_rows(slice(i, i + kinetics.BLOCK_ROWS)) for i in starts]
        assert np.array_equal(np.vstack(blocks), t.W)

    def test_small_grid_core_is_w(self, reduced_tables):
        # on the reduced grid the nodes are the atoms: L_x is W without the weights
        t = reduced_tables
        P, Lx, nodes = kinetics._core(t.omega_atoms, t.omega_modes, t.params.dephasing_rate)
        assert nodes == 0 and np.array_equal(P, np.eye(t.n_freqs))
        assert np.array_equal(Lx * (t.omega_modes * t.gamma_conf), t.W)

    def test_exact_rhs_holds_one_block(self, full_tables):
        t = full_tables
        y = shifted_lu_state("inverted", t)
        tracemalloc.start()
        try:
            kinetics.exact_rhs(y, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * kinetics.BLOCK_ROWS * t.n_modes * 8

    @pytest.mark.parametrize("dephasing_rate", [3e13, 1e14, 3e14])
    def test_interpolated_basis_over_linewidths(self, dephasing_rate):
        # synthetic modes spread uniformly over the atom band, confinement
        # weights over five decades; narrower lines need more nodes and rank
        rng = np.random.default_rng(5)
        p = preset("eq-strong", dephasing_rate=dephasing_rate)
        om_m = np.sort(rng.uniform(0.0, p.omega_max, 2000))
        t = kinetics.build_tables(
            om_m, 10.0 ** rng.uniform(-5.0, 0.0, om_m.size), atoms.build_grid(p), p
        )
        assert t.n_freqs == 500 and 0 < t.range_nodes < 500
        err = np.linalg.norm(t.Q @ t.B - t.W, axis=0)
        assert np.all(err <= 1e-13 * np.linalg.norm(t.W, axis=0))
        assert np.linalg.norm(t.Q @ t.B - t.W) <= kinetics.RANGE_RTOL * np.linalg.norm(t.W)
        assert t.w_max == t.W.max()

    def test_blocks_assemble_whole_table_w(self, full_tables, full_params):
        t = full_tables
        W = np.subtract.outer(t.omega_atoms, t.omega_modes)
        W /= full_params.dephasing_rate
        np.square(W, out=W)
        W += 1.0
        np.divide(1.0, W, out=W)
        W *= t.omega_modes * t.gamma_conf
        assert np.array_equal(t.W, W)
        assert t.w_max == W.max()

    def test_build_holds_no_dense_table(self, full_table, full_params):
        grid = atoms.build_grid(full_params)
        tracemalloc.start()
        try:
            t = kinetics.build_tables(
                full_table.omega, full_table.gamma_conf, grid, full_params
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * t.n_freqs * t.n_modes * 8

    def test_kernels_never_build_w(self, reduced_table, reduced_params):
        grid = atoms.build_grid(reduced_params)
        t = kinetics.build_tables(
            reduced_table.omega, reduced_table.gamma_conf, grid, reduced_params
        )
        result = steady.solve_steady(steady.seed_guess(t), t)
        assert steady.exact_residual(result.state, t) < 1e-10
        assert "W" not in vars(t)
        integrate(np.zeros(t.n_freqs + t.n_modes), 1e-14, t, rtol=1e-3)
        assert "W" not in vars(t)

    @pytest.mark.parametrize("name", ["reduced_tables", "full_tables"])
    def test_exact_rhs_uses_dense_w(self, name, request):
        t = request.getfixturevalue(name)
        exact = dataclasses.replace(t, Q=np.eye(t.n_freqs), B=t.W)
        y = shifted_lu_state("inverted", t)
        ref = kinetics.rhs(y, exact)
        err = np.abs(kinetics.exact_rhs(y, t) - ref).max()
        assert err <= 1e-13 * np.abs(ref).max()


class TestShiftedLU:
    @pytest.mark.parametrize("kind", ["thermal", "inverted", "half-inverted"])
    @pytest.mark.parametrize("sigma, c", [(0.0, -1.0), (1.0, 1e-12), (1.0, 1e-9)])
    def test_solve_matches_dense(self, reduced_tables, kind, sigma, c):
        t = reduced_tables
        y = shifted_lu_state(kind, t)
        lu = kinetics.ShiftedLU(y, t, sigma, c, kinetics.affine_coefficients(y, t)[0])
        # the states give the r x r core B diag(g) B^T a g of either sign or
        # of mixed signs; the dense reference uses the exact W
        if kind == "thermal":
            assert np.all(lu.g >= 0.0)
        elif kind == "inverted" and (sigma, c) == (1.0, 1e-9):
            assert np.all(lu.g < 0.0)
        elif kind == "half-inverted":
            assert np.any(lu.g < 0.0) and np.any(lu.g > 0.0)
        r = np.random.default_rng(3).standard_normal(y.size)
        M = sigma * np.eye(y.size) - c * dense_jacobian(y, t)
        ref = np.linalg.solve(M, r)
        assert np.linalg.norm(lu.solve(r) - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind", ["thermal", "inverted", "half-inverted"])
    @pytest.mark.parametrize("sigma, c", [(0.0, -1.0), (1.0, 1e-12), (1.0, 1e-9)])
    def test_exact_basis_solve_matches_dense(self, full_rank_tables, kind, sigma, c):
        self.test_solve_matches_dense(full_rank_tables, kind, sigma, c)

    @pytest.mark.parametrize("kind", ["thermal", "inverted", "half-inverted"])
    @pytest.mark.parametrize("sigma, c", [(0.0, -1.0), (1.0, 1e-12), (1.0, 1e-9)])
    def test_mid_rank_solve_matches_dense(self, mid_rank_tables, kind, sigma, c):
        self.test_solve_matches_dense(mid_rank_tables, kind, sigma, c)

    @pytest.fixture(scope="class")
    def noneq_steady(self, full_tables):
        t = dataclasses.replace(full_tables, params=preset("noneq"))
        result = steady.solve_steady(steady.seed_guess(t), t)
        assert result.converged and t.split(result.state)[0].max() > 0.49
        return t, result.state

    @pytest.mark.parametrize("sigma, c", [(0.0, -1.0), (1.0, 1e-10), (1.0, 1e-8)])
    def test_full_scale_solve_at_noneq_steady_state(self, noneq_steady, sigma, c):
        # near the gain threshold at full scale; M x is applied through Q B
        # from the rate equations, so the 6874 x 6874 J is never formed
        t, y = noneq_steady
        a = kinetics.affine_coefficients(y, t)[0]
        r = np.random.default_rng(3).standard_normal(y.size)
        x = kinetics.ShiftedLU(y, t, sigma, c, a).solve(r)
        (n, N), (x_e, x_p) = t.split(y), t.split(x)
        Jx = a * x + t.pack(
            -t.params.g_atom * (2.0 * n - 1.0) * (t.Q @ (t.B @ x_p)),
            t.params.g_photon * (2.0 * N + 1.0) * ((x_e @ t.Q) @ t.B),
        )
        assert np.linalg.norm(sigma * x - c * Jx - r) <= 1e-9 * np.linalg.norm(r)


class TestTotalExcitation:
    def test_zero_state(self, reduced_tables):
        y = np.zeros(reduced_tables.n_freqs + reduced_tables.n_modes)
        assert kinetics.total_excitation(y, reduced_tables) == 0.0

    def test_full_inversion(self, reduced_tables):
        t = reduced_tables
        y = np.concatenate([np.ones(t.n_freqs), np.zeros(t.n_modes)])
        assert kinetics.total_excitation(y, t) == t.params.atoms_per_site * t.n_freqs


class TestQuasiSteadyPhoton:
    def test_thermal_population_gives_planck(self):
        t = pair_tables(photon_loss_rate=0.0, pump_amplitude=0.0)
        N = kinetics.quasi_steady_photon(t.fermi, t)
        assert N[0] == pytest.approx(BE_EDGE_400K, rel=1e-12)
        # the spread-out printed value
        assert N[0] == pytest.approx(0.1979, rel=1e-3)

    def test_zero_population_gives_zero(self):
        t = pair_tables(photon_loss_rate=0.0, pump_amplitude=0.0)
        assert kinetics.quasi_steady_photon(np.zeros(1), t)[0] == 0.0

    def test_inversion_threshold_raises(self):
        t = pair_tables(photon_loss_rate=0.0, pump_amplitude=0.0)
        with pytest.raises(ValueError):
            kinetics.quasi_steady_photon(np.array([0.5]), t)

    def test_loss_lowers_fixed_point(self):
        t = pair_tables(pump_amplitude=0.0)
        lossless = kinetics.quasi_steady_photon(
            t.fermi, dataclasses.replace(t, params=t.params.replace(photon_loss_rate=0.0))
        )
        lossy = kinetics.quasi_steady_photon(
            t.fermi, dataclasses.replace(t, params=t.params.replace(photon_loss_rate=1e15))
        )
        assert lossy[0] < lossless[0]
