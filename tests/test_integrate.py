"""Time-integrator checks against closed-form trajectories.

Oracles: the decoupled electron relaxes as f(1 - e^{-gamma_r t}) exactly, an
uncoupled photon decays as e^{-gamma_c t} exactly, the loss-free system
conserves the excitation count, and a single resonant pair started on its
detailed-balance fixed point must stay there. An independent scipy Radau
solve with the analytic Jacobian is the reference for the integrator on the
coupled system, and halving the tolerance must converge. A guard pins the
private scipy BDF attributes the integrator hooks into.
"""

import importlib

import numpy as np
import pytest
from scipy.integrate import BDF, solve_ivp

from photherm import atoms, kinetics
from photherm.integrate import (
    Trajectory,
    _clamp_simplex,
    _schur_bdf,
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

    def test_step_budget(self, reduced_tables, monkeypatch):
        module = importlib.import_module("photherm.integrate")
        monkeypatch.setattr(module, "MAX_STEP_ATTEMPTS", 3)
        y0 = np.zeros(reduced_tables.n_freqs + reduced_tables.n_modes)
        with pytest.raises(RuntimeError, match="step budget"):
            integrate(y0, 1e-6, reduced_tables)


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
        e = np.array([kinetics.total_excitation(s, t) for s in traj.states])
        assert np.max(np.abs(e / e[0] - 1.0)) < 1e-8


@pytest.fixture(scope="module")
def short_runs(reduced_tables):
    y0 = np.zeros(reduced_tables.n_freqs + reduced_tables.n_modes)
    return {rt: integrate(y0, 1e-13, reduced_tables, rtol=rt) for rt in (1e-5, 5e-6)}


def radau_reference(tables, times):
    """States at `times` from scipy Radau with the analytic Jacobian, from the dark state.

    rhs = a y + b with a = a0 + a1 s, b = b0 + b1 s and s = M y, where
    M = [[0, W], [W^T, 0]], so J = diag(a) + (a1 y + b1) M.
    """
    nf = tables.n_freqs
    coupling = np.zeros((nf + tables.n_modes,) * 2)
    coupling[:nf, nf:] = tables.W
    coupling[nf:, :nf] = tables.W.T

    def fun(_, y):
        a, b = kinetics.affine_coefficients(y, tables)
        return a * y + b

    def jac(_, y):
        a, _ = kinetics.affine_coefficients(y, tables)
        return np.diag(a) + (tables.a1 * y + tables.b1)[:, None] * coupling

    sol = solve_ivp(fun, (0.0, float(times[-1])), np.zeros(coupling.shape[0]),
                    method="Radau", t_eval=times, jac=jac, rtol=1e-9, atol=1e-14)
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
        ref = radau_reference(reduced_tables, traj.times)
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
        assert md["method"] == "bdf"
        assert md["rtol"] == 1e-5
        assert md["accepted_steps"] > 0 and md["rejected_steps"] >= 0
        assert 0.0 < md["min_step"] <= md["max_step"] <= 1e-13
        assert md["nfev"] >= md["accepted_steps"]
        assert 1 <= md["njev"] <= md["nlu"] <= md["nfev"]


class TestSchurHook:
    """The integrator replaces private attributes of scipy's BDF; if scipy
    renames or drops them, these tests fail and name them."""

    def test_bdf_attributes_still_exist(self):
        assert hasattr(BDF, "_validate_jac"), "scipy BDF no longer has _validate_jac"
        solver = BDF(lambda t, y: -y, 0.0, np.ones(2), 1.0, jac=-np.eye(2))
        missing = [a for a in ("J", "I", "lu", "solve_lu") if not hasattr(solver, a)]
        assert not missing, f"scipy BDF instances no longer set {missing}"

    def test_lu_hook_runs_once_per_factorization(self, reduced_tables, monkeypatch):
        factored = []

        class CountingLU(kinetics.ShiftedLU):
            def __init__(self, y, tables, sigma, c, a):
                factored.append((sigma, c))
                # the Jacobian diagonal comes from BDF's Jacobian, not recomputed
                assert np.array_equal(a, kinetics.affine_coefficients(y, tables)[0])
                super().__init__(y, tables, sigma, c, a)

        # the package re-exports the integrate function under the module's name
        module = importlib.import_module("photherm.integrate")
        monkeypatch.setattr(module, "ShiftedLU", CountingLU)
        t = reduced_tables

        def fun(_, y):
            a, b = kinetics.affine_coefficients(y, t)
            return a * y + b

        solver = _schur_bdf()(fun, 0.0, np.zeros(t.n_freqs + t.n_modes), 1e-13, t,
                              rtol=1e-5, atol=1e-14)
        while solver.status == "running":
            solver.step()
        assert solver.status == "finished"
        assert solver.nlu > 0
        assert len(factored) == solver.nlu
        # BDF's matrix I - cJ arrives as sigma = 1 and the step's c
        assert all(sigma == 1.0 and c > 0.0 for sigma, c in factored)


class TestTrajectoryAccessors:
    def test_views_match_states(self, reduced_tables):
        y0 = np.zeros(reduced_tables.n_freqs + reduced_tables.n_modes)
        traj = integrate(y0, 1e-14, reduced_tables, rtol=1e-4)
        nf = reduced_tables.n_freqs
        assert np.array_equal(traj.electron(0), traj.states[:, 0])
        assert np.array_equal(traj.photon(5), traj.states[:, nf + 5])
        assert np.array_equal(traj.final, traj.states[-1])
        assert traj.times.size == traj.states.shape[0]
