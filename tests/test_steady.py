"""Fixed-point solver checks.

The single-resonant-pair system with lossless photons has a closed-form
fixed point: with the photon number at its conditional equilibrium
N = n/(1-2n) the interaction terms cancel identically, leaving
n* = (gamma_r f + pump)/(gamma_r + pump).  That exact point, the
consistency of converged photons with quasi_steady_photon, and agreement
with long time integration anchor the solver.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photherm import atoms, bands, kinetics, steady
from photherm.integrate import integrate
from photherm.params import apply_scale, preset

TOL = 1e-10


@pytest.fixture(scope="module")
def pair():
    p = apply_scale(preset("eq-strong", photon_loss_rate=0.0), "reduced")
    w0 = 9.43e13
    t = kinetics.build_tables(np.array([w0]), np.array([0.76]), np.array([w0]), p)
    f = t.fermi[0]
    gr = t.params.relaxation_rate
    n_star = (gr * f + t.pump[0]) / (gr + t.pump[0])
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

    def test_newton_budget_flags_unconverged(self, reduced_tables, monkeypatch):
        # the single pair converges in one exact step; the strong-damping
        # reduced system needs three from the analytic seed
        monkeypatch.setattr(steady, "MAX_NEWTON_STEPS", 1)
        res = steady.solve_steady(steady.seed_guess(reduced_tables), reduced_tables, tol=TOL)
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


def test_abstract_steady_trends(reduced_table, reduced_bands):
    """The abstract: band-gap suppression of thermal emission is more
    pronounced with weaker light-matter interaction or larger photon decay.
    Over atom_density and photon_loss_rate from eq-strong, the in-gap probe's
    photon number over Bose-Einstein rises strictly with coupling and falls
    strictly with loss.  The out-of-gap median is printed, not asserted:
    the Planckian magnitudes are criteria c07 and c08."""
    p = apply_scale(preset("eq-strong"), "reduced")
    base = kinetics.build_tables(
        reduced_table.omega, reduced_table.gamma_conf, atoms.build_grid(p), p
    )
    probe = bands.representatives(reduced_table, reduced_bands)["in_gap"]
    outside = ~bands.in_gap_mask(reduced_table, reduced_bands)
    be = atoms.bose_einstein(reduced_table.omega, p.temperature)
    sweeps = {
        "atom_density": [5e22, 1.6e23, 5e23, 1.6e24, 5e24],
        "photon_loss_rate": [1e9, 1e10, 1e11, 1e12, 5e12, 2e13],
    }
    probe_ratio = {}
    for name, values in sweeps.items():
        probe_ratio[name] = []
        for value in values:
            # the range basis depends on neither rate: one build serves all
            t = dataclasses.replace(base, params=p.replace(**{name: value}))
            res = steady.solve_steady(steady.seed_guess(t), t)
            assert res.converged and steady.exact_residual(res.state, t) < 1e-10
            ratio = t.split(res.state)[1] / be
            probe_ratio[name].append(ratio[probe])
            print(f"{name}={value:.3g}: in-gap N/BE {ratio[probe]:.4g}, "
                  f"out-of-gap median {np.median(ratio[outside]):.4g}")
    assert np.all(np.diff(probe_ratio["atom_density"]) > 0.0)
    assert np.all(np.diff(probe_ratio["photon_loss_rate"]) < 0.0)


def decades(lo: float, hi: float, zero: bool = False):
    """10**e for e uniform in [lo, hi], and 0 too when zero is set."""
    powers = st.floats(lo, hi).map(lambda e: 10.0**e)
    return st.just(0.0) | powers if zero else powers


@given(
    relaxation_rate=decades(8.0, 15.0),
    pump_amplitude=decades(6.0, 14.0, zero=True),
    atom_density=decades(20.0, 26.0),
    photon_loss_rate=decades(6.0, 14.0, zero=True),
)
@settings(max_examples=30, deadline=None)
def test_solver_converges_or_says_so(reduced_tables, **rates):
    """Away from the presets the solve either converges, with the exact
    residual below tol too, or says it did not and keeps a finite state;
    a ValueError is the only exception it may raise."""
    t = dataclasses.replace(reduced_tables, params=reduced_tables.params.replace(**rates))
    try:
        res = steady.solve_steady(steady.seed_guess(t), t)
    except ValueError:
        return
    assert np.all(np.isfinite(res.state)) and np.isfinite(res.residual_norm)
    if res.converged:
        assert steady.exact_residual(res.state, t) < steady.TOL


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
