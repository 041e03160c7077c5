"""Time-integrator checks against closed-form trajectories.

Oracles: the decoupled electron relaxes as f(1 - e^{-gamma_r t}) exactly, an
uncoupled photon decays as e^{-gamma_c t} exactly, the loss-free system
conserves the excitation count, and a single resonant pair started on its
detailed-balance fixed point must stay there. An independent scipy BDF
solve with the analytic Jacobian is the reference for the stepper on the
coupled system, and halving the tolerance must converge.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from photherm import atoms, kinetics
from photherm.integrate import (
    Trajectory,
    _affine_step,
    _clamp_simplex,
    detect_saturation,
    integrate,
    log_times,
)
from photherm.params import apply_scale, preset

RT = 1e-8


def tables_for(preset_name: str, reduced_table, **overrides):
    p = apply_scale(preset(preset_name, **overrides), "reduced")
    grid = atoms.build_grid(p)
    return p, kinetics.build_tables(
        reduced_table.omega, reduced_table.gamma_conf, grid, p
    )


class TestLogTimes:
    def test_grid_shape(self):
        t = log_times(1e-5)
        assert t[0] == 0.0
        assert t[-1] == 1e-5
        assert np.all(np.diff(t) > 0.0)

    def test_points_per_decade(self):
        t = log_times(1e-6, points_per_decade=10)
        # 10 decades from the 1e-16 floor, 10 points each, plus t=0
        inside = t[(t > 0) & (t <= 1e-6)]
        assert 95 <= inside.size <= 105

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            log_times(1e-17)

    @pytest.mark.parametrize("ppd", [0, -5])
    def test_bad_points_per_decade(self, ppd):
        with pytest.raises(ValueError, match=f"points_per_decade must be at least 1, got {ppd}"):
            log_times(1e-6, points_per_decade=ppd)


class TestStepHelpers:
    def test_affine_step_matches_closed_form(self):
        h = 1e-9
        z = np.array([-50.0, -1e-3, -1e-13, 1e-13])
        a = z / h
        y = np.array([0.3, 0.7, 0.2, 0.9])
        b = np.array([2e8, -4e8, 1e9, 3e8])
        ref = y * np.exp(z) + b * np.expm1(z) / a
        # phi1 = 1 for |z| <= 1e-12 is off by at most |z|/2 relative
        assert np.allclose(_affine_step(y, h, a, b), ref, rtol=1e-12, atol=0.0)

    def test_affine_step_is_euler_at_zero_rate(self):
        h = 1e-9
        y = np.array([0.3, 0.7])
        b = np.array([2e8, -4e8])
        assert np.array_equal(_affine_step(y, h, np.zeros(2), b), y + b * h)

    def test_clamp_simplex_projects_small_excursions_in_place(self):
        y = np.array([-1e-9, 1.0 + 1e-9, 0.5, -1e-9, 2.0])
        out = _clamp_simplex(y, 3, rtol=1e-6, atol=1e-14)
        assert out is y
        assert np.array_equal(y, [0.0, 1.0, 0.5, 0.0, 2.0])

    # rtol 1e-6, atol 0: slack 1e-5 for occupations, 2e-5 for photons (max N = 2)
    @pytest.mark.parametrize("index, edge", [(0, -1e-5), (1, 1.0 + 1e-5), (3, -2e-5)])
    def test_clamp_simplex_raises_just_beyond_slack(self, index, edge):
        y = np.array([0.5, 0.5, 0.5, 0.5, 2.0])
        y[index] = edge * (1.0 - 1e-9)
        _clamp_simplex(y, 3, rtol=1e-6, atol=0.0)
        y[index] = edge * (1.0 + 1e-9)
        with pytest.raises(RuntimeError):
            _clamp_simplex(y, 3, rtol=1e-6, atol=0.0)


class TestValidation:
    def test_bad_horizon_and_tolerances(self, reduced_tables):
        y0 = np.zeros(reduced_tables.n_freqs + reduced_tables.n_modes)
        with pytest.raises(ValueError):
            integrate(y0, 0.0, reduced_tables)
        with pytest.raises(ValueError):
            integrate(y0, 1e-12, reduced_tables, rtol=0.0)

    def test_times_past_the_horizon(self, reduced_tables):
        y0 = np.zeros(reduced_tables.n_freqs + reduced_tables.n_modes)
        with pytest.raises(ValueError, match="end at t_end"):
            integrate(y0, 1e-14, reduced_tables, times=[1e-15, 1e-14, 1e-13, 1e-12])

    @pytest.mark.parametrize("times", [[1e-13, 1e-14], [1e-14, 1e-14], [-1e-15, 1e-14]])
    def test_times_not_increasing(self, reduced_tables, times):
        y0 = np.zeros(reduced_tables.n_freqs + reduced_tables.n_modes)
        with pytest.raises(ValueError, match="strictly increasing"):
            integrate(y0, times[-1], reduced_tables, times=times)

    def test_wrong_state_length(self, reduced_tables):
        with pytest.raises(ValueError):
            integrate(np.zeros(3), 1e-12, reduced_tables)

    def test_initial_state_outside_simplex(self, reduced_tables):
        y0 = np.zeros(reduced_tables.n_freqs + reduced_tables.n_modes)
        y0[0] = 1.5  # far beyond any clamp slack
        with pytest.raises(RuntimeError):
            integrate(y0, 1e-12, reduced_tables, rtol=1e-6)

    def test_step_budget(self, reduced_tables):
        y0 = np.zeros(reduced_tables.n_freqs + reduced_tables.n_modes)
        with pytest.raises(RuntimeError):
            integrate(y0, 1e-6, reduced_tables, max_steps=3)


class TestClosedFormLimits:
    def test_decoupled_electron_relaxation(self, reduced_table):
        # coupling off: dn/dt = -gamma_r (n - f) + Lambda (1 - n), with the
        # pump turned far down so n(t) = f (1 - e^{-gamma_r t}) within 1%
        p, t = tables_for(
            "eq-strong", reduced_table, dipole_moment=0.0, pump_amplitude=1e8
        )
        gr = p.relaxation_rate
        probes = np.array([0.1, 1.0, 10.0]) / gr
        y0 = np.zeros(t.n_freqs + t.n_modes)
        traj = integrate(y0, probes[-1], t, rtol=RT, times=probes)
        assert traj.times[0] == 0.0
        assert np.array_equal(traj.times[1:], probes)
        worst = 0.0
        for i, tp in enumerate(probes):
            target = t.fermi * -np.expm1(-gr * tp)
            ne = traj.states[1 + i, : t.n_freqs]
            worst = max(worst, float(np.max(np.abs(ne / target - 1.0))))
        assert worst < 1e-2

    def test_pure_photon_decay(self, reduced_table):
        p, t = tables_for("eq-lossy", reduced_table, dipole_moment=0.0)
        gc = p.photon_loss_rate
        y0 = np.zeros(t.n_freqs + t.n_modes)
        y0[t.n_freqs :] = 1.0
        traj = integrate(y0, 60.0 / gc, t, rtol=RT)
        decay = traj.photon(3)
        assert np.max(np.abs(decay - np.exp(-gc * traj.times))) < RT

    def test_single_pair_fixed_point_is_preserved(self):
        p0 = apply_scale(
            preset("eq-strong", photon_loss_rate=0.0, pump_amplitude=0.0), "reduced"
        )
        w0 = 9.43e13
        t = kinetics.build_tables(
            np.array([w0]), np.array([0.76]), np.array([w0]), p0
        )
        yfix = np.concatenate([t.fermi, kinetics.quasi_steady_photon(t.fermi, t)])
        traj = integrate(yfix, 1e-8, t, rtol=1e-6)
        assert np.max(np.abs(traj.final / yfix - 1.0)) < 1e-12


class TestSaturation:
    def test_pure_decay_saturation_time(self, reduced_table):
        p, t = tables_for("eq-lossy", reduced_table, dipole_moment=0.0)
        gc = p.photon_loss_rate
        y0 = np.zeros(t.n_freqs + t.n_modes)
        y0[t.n_freqs :] = 1.0
        traj = integrate(y0, 60.0 / gc, t, rtol=RT)
        t_sat = detect_saturation(traj, t.n_freqs + 3, threshold=0.1)
        # e^{-gc t} enters the 10% band of 0 at t = ln(10)/gc
        assert t_sat == pytest.approx(np.log(10.0) / gc, rel=0.05)

    def test_constant_trajectory(self):
        times = np.concatenate([[0.0], np.geomspace(1e-12, 1e-6, 50)])
        states = np.full((times.size, 2), 3.0)
        traj = Trajectory(times=times, states=states, n_freqs=1, metadata={})
        assert detect_saturation(traj, 1) == times[0]

    def test_unsaturated_ramp_raises(self):
        times = np.concatenate([[0.0], np.geomspace(1e-12, 1e-6, 50)])
        states = np.linspace(0.0, 1.0, times.size)[:, None] * np.ones((1, 2))
        traj = Trajectory(times=times, states=states, n_freqs=1, metadata={})
        with pytest.raises(RuntimeError):
            detect_saturation(traj, 1)


class TestConservation:
    def test_loss_free_drift(self, reduced_table):
        p, t = tables_for(
            "eq-strong",
            reduced_table,
            relaxation_rate=0.0,
            photon_loss_rate=0.0,
            pump_amplitude=0.0,
        )
        y0 = np.zeros(t.n_freqs + t.n_modes)
        y0[: t.n_freqs] = 0.2
        y0[t.n_freqs :] = 0.1
        traj = integrate(y0, 1e-10, t, rtol=1e-6)
        assert traj.metadata["conservative_projection"] is True
        e = np.array([kinetics.total_excitation(s, t) for s in traj.states])
        assert np.max(np.abs(e / e[0] - 1.0)) < 1e-8

    def test_projection_not_applied_with_losses(self, reduced_table):
        _, t = tables_for("eq-strong", reduced_table)
        y0 = np.zeros(t.n_freqs + t.n_modes)
        traj = integrate(y0, 1e-14, t, rtol=1e-4)
        assert traj.metadata["conservative_projection"] is False


@pytest.fixture(scope="module")
def short_runs(reduced_tables):
    y0 = np.zeros(reduced_tables.n_freqs + reduced_tables.n_modes)
    return {rt: integrate(y0, 1e-13, reduced_tables, rtol=rt) for rt in (1e-5, 5e-6)}


def bdf_reference(tables, times):
    """States at `times` from scipy BDF with the analytic Jacobian, from the dark state.

    rhs = a y + b with a = a0 + a1 s, b = b0 + b1 s and s = M y, where
    M = [[0, W], [W^T, 0]], so J = diag(a) + (a1 y + b1) M.
    """
    nf = tables.n_freqs
    coupling = np.zeros((nf + tables.n_modes,) * 2)
    coupling[:nf, nf:] = tables.W
    coupling[nf:, :nf] = tables.WT

    def fun(_, y):
        a, b = kinetics.affine_coefficients(y, tables)
        return a * y + b

    def jac(_, y):
        a, _ = kinetics.affine_coefficients(y, tables)
        return np.diag(a) + (tables.a1 * y + tables.b1)[:, None] * coupling

    sol = solve_ivp(fun, (0.0, float(times[-1])), np.zeros(coupling.shape[0]),
                    method="BDF", t_eval=times, jac=jac, rtol=1e-9, atol=1e-14)
    assert sol.success, sol.message
    return sol.y.T


def floor_scaled_error(states, ref):
    """Worst |y - ref| / max(|ref|, 1e-3 max|ref|) over snapshots (zero rows exact)."""
    worst = 0.0
    for y, r in zip(states, ref):
        scale = np.maximum(np.abs(r), 1e-3 * float(np.max(np.abs(r))))
        scale = np.where(scale > 0.0, scale, 1.0)
        worst = max(worst, float(np.max(np.abs(y - r) / scale)))
    return worst


class TestMethodAgreement:
    @staticmethod
    def _rel(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.max(np.abs(a - b) / (1e-12 + np.abs(b))))

    def test_methods_agree_within_five_rtol(self, short_runs, reduced_tables):
        traj = short_runs[1e-5]
        ref = bdf_reference(reduced_tables, traj.times)
        assert floor_scaled_error(traj.states, ref) < 5.0 * 1e-5

    def test_halving_rtol_converges(self, short_runs):
        shift = self._rel(short_runs[1e-5].final, short_runs[5e-6].final)
        assert shift < 1e-5  # within the coarser run's error target

    def test_snapshots_stay_on_simplex(self, short_runs, reduced_tables):
        nf = reduced_tables.n_freqs
        for traj in short_runs.values():
            assert np.all(traj.states[:, :nf] >= 0.0)
            assert np.all(traj.states[:, :nf] <= 1.0)
            assert np.all(traj.states[:, nf:] >= 0.0)

    def test_metadata_records_solver(self, short_runs):
        md = short_runs[1e-5].metadata
        assert md["method"] == "exponential-diagonal"
        assert md["rtol"] == 1e-5
        assert md["accepted_steps"] > 0
        assert 0.0 < md["min_step"] <= md["max_step"] <= 1e-13


class TestTrajectoryAccessors:
    def test_views_match_states(self, reduced_tables):
        y0 = np.zeros(reduced_tables.n_freqs + reduced_tables.n_modes)
        traj = integrate(y0, 1e-14, reduced_tables, rtol=1e-4)
        nf = reduced_tables.n_freqs
        assert np.array_equal(traj.electron(0), traj.states[:, 0])
        assert np.array_equal(traj.photon(5), traj.states[:, nf + 5])
        assert np.array_equal(traj.final, traj.states[-1])
        assert traj.times.size == traj.states.shape[0]
