"""Fixed-point solver checks.

The single-resonant-pair system with lossless photons has a closed-form
fixed point: with the photon number at its conditional equilibrium
N = n/(1-2n) the interaction terms cancel identically, leaving
n* = (gamma_r f + pump)/(gamma_r + pump).  That exact point, the
consistency of converged photons with quasi_steady_photon, and agreement
with long time integration anchor the solver.
"""

import warnings

import numpy as np
import pytest

from photherm import atoms, kinetics, steady
from photherm.integrate import integrate
from photherm.params import apply_scale, preset

TOL = 1e-10


@pytest.fixture(scope="module")
def pair():
    p = apply_scale(preset("eq-strong", photon_loss_rate=0.0), "reduced")
    w0 = 9.43e13
    t = kinetics.build_tables(np.array([w0]), np.array([0.76]), np.array([w0]), p)
    f = t.fermi[0]
    n_star = (t.gamma_r * f + t.pump[0]) / (t.gamma_r + t.pump[0])
    return t, np.array([n_star, n_star / (1.0 - 2.0 * n_star)])


@pytest.fixture(scope="module")
def reduced_solves(reduced_tables):
    """Trajectory-seeded and analytic-seeded solves of the strong-damping
    reduced system, shared across the cross-method tests."""
    y0 = np.zeros(reduced_tables.n_freqs + reduced_tables.n_modes)
    traj = integrate(y0, 1e-5, reduced_tables, rtol=1e-4)
    from_traj = steady.solve_steady(traj.final, reduced_tables, tol=TOL)
    from_seed = steady.solve_steady(
        steady.seed_guess(reduced_tables), reduced_tables, tol=TOL
    )
    return traj, from_traj, from_seed


class TestSolveSteady:
    def test_single_pair_closed_form(self, pair):
        t, fixed = pair
        res = steady.solve_steady(np.array([0.3, 0.05]), t, tol=1e-12)
        assert res.converged
        assert np.max(np.abs(res.state / fixed - 1.0)) < 1e-12

    def test_photons_at_conditional_fixed_point(self, pair):
        t, _ = pair
        res = steady.solve_steady(np.array([0.3, 0.05]), t, tol=1e-12)
        oracle = kinetics.quasi_steady_photon(res.state[:1], t)
        assert abs(res.state[1] / oracle[0] - 1.0) < 1e-12

    def test_exact_guess_converges_immediately(self, pair):
        t, fixed = pair
        res = steady.solve_steady(fixed, t, tol=TOL)
        assert res.converged
        assert res.iterations["newton"] <= 1

    def test_newton_budget_flags_unconverged(self, reduced_tables):
        # the single pair converges in one exact step; the strong-damping
        # reduced system needs three from the analytic seed
        res = steady.solve_steady(
            steady.seed_guess(reduced_tables), reduced_tables, tol=TOL, max_newton=1
        )
        assert not res.converged
        assert np.all(np.isfinite(res.state))
        assert len(res.history) == 2
        assert res.iterations["newton"] == 1

    def test_validation(self, pair):
        t, _ = pair
        with pytest.raises(ValueError):
            steady.solve_steady(np.zeros(5), t)
        with pytest.raises(ValueError):
            steady.solve_steady(np.array([np.nan, 0.0]), t)
        with pytest.raises(ValueError):
            steady.solve_steady(np.array([0.3, 0.05]), t, tol=0.0)

    def test_matches_long_integration(self, reduced_solves):
        traj, from_traj, _ = reduced_solves
        assert from_traj.converged
        rel = np.max(
            np.abs(from_traj.state - traj.final) / (1e-30 + np.abs(traj.final))
        )
        assert rel < 1e-3

    def test_residual_history_decreases(self, reduced_solves):
        _, _, from_seed = reduced_solves
        assert from_seed.converged
        h = np.array(from_seed.history)
        assert h.size >= 2
        assert np.all(np.diff(h) < 0.0)

    def test_guess_independence(self, reduced_solves, reduced_tables):
        _, from_traj, from_seed = reduced_solves
        assert from_traj.converged and from_seed.converged
        for res in (from_traj, from_seed):
            assert steady.scaled_residual(res.state, reduced_tables) < TOL
        # in the norm of scaled_residual: a per-component relative difference
        # is dominated by photon numbers many decades below the state's norm
        agree = np.linalg.norm(from_traj.state - from_seed.state) / np.linalg.norm(
            from_seed.state
        )
        # uniqueness is a probe, not a theorem: disagreement is surfaced as
        # a warning rather than a hard failure
        if agree > 10.0 * TOL:
            warnings.warn(
                f"seed-dependent fixed points differ by {agree:.3e}", stacklevel=1
            )


# Newton steps from seed_guess at TOL; the Newton matrix couples through the
# rank-64 range basis of W, and its step counts are those of the exact W
FULL_STEPS = {"eq-strong": 3, "eq-weak": 2, "eq-lossy": 3, "noneq": 10}
REDUCED_STEPS = {"eq-strong": 3, "eq-weak": 2, "eq-lossy": 3, "noneq": 9}


@pytest.mark.parametrize("name", REDUCED_STEPS)
def test_reduced_scale_newton_steps(name, reduced_table):
    p = apply_scale(preset(name), "reduced")
    t = kinetics.build_tables(
        reduced_table.omega, reduced_table.gamma_conf, atoms.build_grid(p), p
    )
    res = steady.solve_steady(steady.seed_guess(t), t, tol=TOL)
    assert res.converged and res.iterations["newton"] == REDUCED_STEPS[name]


@pytest.mark.parametrize("name", FULL_STEPS)
def test_full_scale_converges_from_seed(name, full_table):
    p = preset(name)
    t = kinetics.build_tables(
        full_table.omega, full_table.gamma_conf, atoms.build_grid(p), p
    )
    res = steady.solve_steady(steady.seed_guess(t), t, tol=TOL)
    assert res.converged
    assert res.iterations["newton"] == FULL_STEPS[name]
    assert steady.scaled_residual(res.state, t) < TOL
    n_e, photons = t.split(res.state)
    assert np.all(np.isfinite(res.state))
    assert np.all((n_e >= 0.0) & (n_e <= 1.0))
    assert np.all(photons >= 0.0)


class TestSeedGuess:
    def test_no_pump_is_thermal(self, reduced_table, reduced_params):
        p = apply_scale(preset("eq-strong", pump_amplitude=0.0), "reduced")
        t = kinetics.build_tables(
            reduced_table.omega, reduced_table.gamma_conf, atoms.build_grid(p), p
        )
        g = steady.seed_guess(t)
        assert np.array_equal(g[: t.n_freqs], t.fermi)

    def test_strong_relaxation_stays_near_thermal(self, reduced_tables):
        g = steady.seed_guess(reduced_tables)
        nf = reduced_tables.n_freqs
        # relative deviation saturates at (pump/relaxation)*exp(hw0/kT) ~ 2.1%
        # in the high-frequency tail; absolute deviation stays below 1e-3
        assert np.max(np.abs(g[:nf] - reduced_tables.fermi)) < 1e-2
        assert np.max(np.abs(g[:nf] / reduced_tables.fermi - 1.0)) < 3e-2

    def test_balanced_pump_hits_cap(self):
        p = apply_scale(preset("eq-strong", pump_amplitude=1e13), "reduced")
        w0 = p.pump_center
        t = kinetics.build_tables(
            np.array([9.43e13]), np.array([0.76]), np.array([w0]), p
        )
        g = steady.seed_guess(t)
        # pump equals relaxation at the pump center: f + (1-f)/2 > 0.499
        assert g[0] == steady.ELECTRON_GUESS_CAP

    def test_saturating_pump_capped_everywhere_below_center(self, reduced_table):
        p = apply_scale(preset("noneq"), "reduced")
        t = kinetics.build_tables(
            reduced_table.omega, reduced_table.gamma_conf, atoms.build_grid(p), p
        )
        g = steady.seed_guess(t)
        assert np.max(g[: t.n_freqs]) == steady.ELECTRON_GUESS_CAP
