"""Acceptance suite: one test per numbered criterion, one pass/fail line each
(run with ``pytest tests/test_acceptance.py -v``).

Each criterion is asserted at its stated tolerance against an independent
anchor: hand-derived closed forms (counting formula, detailed balance,
relaxation transient), published reference values (coupling strength,
confinement quartet), or cross-method consistency (fixed-point solver vs
long integration).  Criteria 7 and 8 are asserted exactly as stated even
though the implemented kinetics — the literal printed rate equations with
the Lorentzian line shape at its stated width — cannot satisfy them; they
fail honestly, and the analysis lives in the project notes:
the single-linewidth Lorentzian spans ~1.9 kT/hbar at 400 K, so every
mode couples to a wide thermal average of atomic occupations and the
steady photon numbers land far from the per-frequency Bose-Einstein
values those criteria require.
"""

import time

import numpy as np
import pytest

from photherm import atoms, bands, kinetics, modes, spectra, steady
from photherm.constants import BOLTZMANN, HBAR
from photherm.integrate import detect_saturation, integrate
from photherm.params import PhysicalParams, apply_scale, preset

PRESET_NAMES = ("eq-strong", "eq-weak", "eq-lossy", "noneq")
T_END = 1e-5
RTOL = 1e-4
STEADY_TOL = 1e-12


def bose_einstein(omega, temperature):
    return 1.0 / np.expm1(HBAR * omega / (BOLTZMANN * temperature))


@pytest.fixture(scope="module")
def runs(reduced_table):
    """Reduced-scale trajectory and fixed point for every damping/pumping
    preset; the geometry (hence mode table) is shared.  The fixed point is
    solved from the analytic seed, not from the trajectory, whose final
    state is already a fixed point within STEADY_TOL."""
    out = {}
    for name in PRESET_NAMES:
        p = apply_scale(preset(name), "reduced")
        tables = kinetics.build_tables(
            reduced_table.omega, reduced_table.gamma_conf, atoms.build_grid(p), p
        )
        y0 = np.zeros(tables.n_freqs + tables.n_modes)
        start = time.perf_counter()
        traj = integrate(y0, T_END, tables, rtol=RTOL)
        fixed = steady.solve_steady(steady.seed_guess(tables), tables, tol=STEADY_TOL)
        out[name] = {
            "params": p,
            "tables": tables,
            "traj": traj,
            "steady": fixed,
            "wall": time.perf_counter() - start,
        }
    return out


def test_c01_pump_coupling_strength():
    params = PhysicalParams()
    assert params.atom_density == 5e24
    g_photon = params.g_photon
    print(f"criterion 1: collective coupling {g_photon:.6f} (target 4.65 +- 1%)")
    assert g_photon == pytest.approx(4.65, rel=0.01)


def test_c02_mode_census(full_table, full_params):
    start = time.perf_counter()
    n_planes = int(full_table.n_modes)
    empty = full_params.replace(plane_strength=0.0)
    n_empty = int(modes.count_below(np.array([full_params.omega_max]), empty)[0])
    print(
        f"criterion 2: census {n_planes} with planes (window [6000, 7500]), "
        f"{n_empty} empty (exact 6366); {time.perf_counter() - start:.1f}s"
    )
    assert 6000 <= n_planes <= 7500
    assert n_empty == 6366


def test_c03_confinement_quartet(full_table):
    targets = [
        (9.43e13, 0.76, 0.10),
        (1.02e14, 4.8e-3, 0.10),
        (1.09e14, 0.61, 0.10),
        (1.17e14, 4.9e-5, 1.0),  # factor of 2: tiny confinement is tolerance-sensitive
    ]
    for omega_t, gamma_t, gamma_tol in targets:
        window = np.abs(full_table.omega / omega_t - 1.0) < 0.005
        assert window.any(), f"no mode within 0.5% of {omega_t:g}"
        gammas = full_table.gamma_conf[window]
        best = gammas[np.argmin(np.abs(gammas / gamma_t - 1.0))]
        print(
            f"criterion 3: near {omega_t:.3g} best confinement {best:.4g} "
            f"(target {gamma_t:g})"
        )
        if gamma_tol >= 1.0:
            assert 0.5 * gamma_t <= best <= 2.0 * gamma_t
        else:
            assert best == pytest.approx(gamma_t, rel=gamma_tol)


def test_c04_mode_normalization(full_table, full_params, reduced_params):
    worst = float(np.max(np.abs(modes.norm_residuals(full_table.omega, full_params))))
    for eta in (1e-6, 2.1e-5, 1e-4):
        p = reduced_params.replace(plane_strength=eta)
        table = modes.solve_modes(p)
        r = float(np.max(np.abs(modes.norm_residuals(table.omega, p))))
        worst = max(worst, r)
    print(f"criterion 4: worst normalization residual {worst:.3e} (< 1e-10)")
    assert worst < 1e-10


def test_c05_detailed_balance():
    p = preset("eq-strong", photon_loss_rate=0.0)
    omega = 9.43e13
    tables = kinetics.build_tables(
        np.array([omega]), np.array([0.76]), np.array([omega]), p
    )
    n_photon = kinetics.quasi_steady_photon(tables.fermi, tables)[0]
    target = bose_einstein(omega, p.temperature)
    print(f"criterion 5: clamped-electron photon number {n_photon:.6f} vs "
          f"thermal {target:.6f}")
    assert n_photon == pytest.approx(target, rel=1e-12)
    assert n_photon == pytest.approx(0.1979, rel=1e-3)


def test_c06_excitation_conservation(reduced_table):
    p = apply_scale(
        preset(
            "eq-strong",
            relaxation_rate=0.0,
            photon_loss_rate=0.0,
            pump_amplitude=0.0,
        ),
        "reduced",
    )
    tables = kinetics.build_tables(
        reduced_table.omega, reduced_table.gamma_conf, atoms.build_grid(p), p
    )
    y0 = np.zeros(tables.n_freqs + tables.n_modes)
    y0[: tables.n_freqs] = 0.2
    y0[tables.n_freqs :] = 0.1
    start = time.perf_counter()
    traj = integrate(y0, 1e-10, tables, rtol=1e-6)
    totals = np.array([kinetics.total_excitation(s, tables) for s in traj.states])
    drift = float(np.max(np.abs(totals / totals[0] - 1.0)))
    print(f"criterion 6: excitation drift {drift:.3e} (< 1e-8); "
          f"{time.perf_counter() - start:.1f}s")
    assert drift < 1e-8


def test_c07_equilibrium_planck_limit(runs, reduced_table, reduced_bands):
    run = runs["eq-strong"]
    assert run["steady"].converged
    photons = run["steady"].state[run["tables"].n_freqs :]
    ratio = photons / bose_einstein(reduced_table.omega, run["params"].temperature)
    strong = reduced_table.gamma_conf > 0.3
    gap = bands.in_gap_mask(reduced_table, reduced_bands)
    print(
        "criterion 7: steady/thermal ratio "
        f"confined>0.3 [{ratio[strong].min():.3f}, {ratio[strong].max():.3f}] "
        f"(required within 5%), "
        f"in-gap [{ratio[gap].min():.3f}, {ratio[gap].max():.3f}] "
        f"(required within 10%)"
    )
    assert np.all(np.abs(ratio[strong] - 1.0) < 0.05), (
        "strongly confined modes are not Planckian: ratio range "
        f"[{ratio[strong].min():.3f}, {ratio[strong].max():.3f}]"
    )
    assert np.all(np.abs(ratio[gap] - 1.0) < 0.10), (
        f"in-gap modes are not Planckian: ratio range "
        f"[{ratio[gap].min():.3f}, {ratio[gap].max():.3f}]"
    )


def test_c08_gap_suppression(runs, reduced_table, reduced_bands):
    reps = bands.representatives(reduced_table, reduced_bands)
    edge, gap = reps["band_edge"], reps["in_gap"]
    for name in ("eq-weak", "eq-lossy"):
        run = runs[name]
        assert run["steady"].converged
        photons = run["steady"].state[run["tables"].n_freqs :]
        be = bose_einstein(reduced_table.omega, run["params"].temperature)
        r_edge = photons[edge] / be[edge]
        r_gap = photons[gap] / be[gap]
        print(
            f"criterion 8 [{name}]: edge ratio {r_edge:.4f} (required within "
            f"10% of 1), in-gap ratio {r_gap:.4f} (required <= 0.5)"
        )
        assert r_gap <= 0.5, (
            f"{name}: in-gap photon number is {r_gap:.3f}x thermal, "
            "not suppressed 2x below it"
        )
        assert abs(r_edge - 1.0) < 0.10, (
            f"{name}: band-edge photon number is {r_edge:.3f}x thermal, "
            "not within 10%"
        )


def test_c09_saturation_ordering(runs, reduced_table, reduced_bands):
    run = runs["eq-strong"]
    reps = bands.representatives(reduced_table, reduced_bands)
    nf = run["tables"].n_freqs
    t_edge = detect_saturation(run["traj"], nf + reps["band_edge"])
    t_gap = detect_saturation(run["traj"], nf + reps["in_gap"])
    ratio = t_gap / t_edge
    print(
        f"criterion 9: saturation {t_gap:.3e}s in-gap vs {t_edge:.3e}s "
        f"band-edge, ratio {ratio:.1f} (window [10, 1000])"
    )
    assert 10.0 <= ratio <= 1000.0


def test_c09_full_scale_saturation_ordering(full_table, full_bands):
    p = preset("eq-strong")
    tables = kinetics.build_tables(
        full_table.omega, full_table.gamma_conf, atoms.build_grid(p), p
    )
    reps = bands.representatives(full_table, full_bands)
    start = time.perf_counter()
    y0 = np.zeros(tables.n_freqs + tables.n_modes)
    traj = integrate(y0, T_END, tables, rtol=RTOL)
    nf = tables.n_freqs
    t_edge = detect_saturation(traj, nf + reps["band_edge"])
    t_gap = detect_saturation(traj, nf + reps["in_gap"])
    ratio = t_gap / t_edge
    print(
        f"criterion 9 [full scale]: saturation {t_gap:.3e}s in-gap vs "
        f"{t_edge:.3e}s band-edge, ratio {ratio:.1f} (window [10, 1000]); "
        f"{time.perf_counter() - start:.1f}s"
    )
    assert 10.0 <= ratio <= 1000.0


def test_c10_nonequilibrium_super_planckian(runs, reduced_table, reduced_bands):
    run = runs["noneq"]
    assert run["steady"].converged
    tables = run["tables"]
    n_e, photons = tables.split(run["steady"].state)
    max_n = float(n_e.max())
    samples = np.linspace(2e13, 4.8e14, 25)
    det = spectra.emission_detector(
        photons, reduced_table, samples, gamma_d=run["params"].detector_width
    )
    bb = spectra.blackbody_1d(samples, run["params"].temperature)
    ratio = spectra.spectral_ratio(det, bb).value
    in_band = np.array(
        [
            not np.any(
                (reduced_bands.gaps[:, 0] < w) & (w < reduced_bands.gaps[:, 1])
            )
            for w in samples
        ]
    )
    floor = float(ratio[in_band].min())
    print(
        f"criterion 10: max electron occupation {max_n:.6f} (< 0.5); "
        f"emission/blackbody >= {floor:.1f} at band frequencies (> 10)"
    )
    assert max_n < 0.5
    assert np.all(ratio[in_band] > 10.0)


def test_c11_cross_solver_consistency(runs):
    start = time.perf_counter()
    for name in PRESET_NAMES:
        run = runs[name]
        assert run["steady"].converged, name
        final = run["traj"].final
        rel = float(
            np.max(np.abs(run["steady"].state - final) / (1e-30 + np.abs(final)))
        )
        print(
            f"criterion 11 [{name}]: solver vs integration {rel:.2e} "
            f"(<= 1e-3); trajectory {run['wall']:.0f}s"
        )
        assert rel <= 1e-3, name
    print(f"criterion 11: total {time.perf_counter() - start:.1f}s")


def test_c12_relaxation_closed_form(reduced_table):
    p = apply_scale(
        preset("eq-strong", dipole_moment=0.0, pump_amplitude=0.0), "reduced"
    )
    tables = kinetics.build_tables(
        reduced_table.omega, reduced_table.gamma_conf, atoms.build_grid(p), p
    )
    gr = p.relaxation_rate
    probes = np.array([0.1, 1.0, 10.0]) / gr
    y0 = np.zeros(tables.n_freqs + tables.n_modes)
    traj = integrate(y0, probes[-1], tables, rtol=1e-8, times=probes)
    worst = 0.0
    for i, tp in enumerate(probes):
        target = tables.fermi * -np.expm1(-gr * tp)
        worst = max(
            worst,
            float(np.max(np.abs(traj.states[1 + i, : tables.n_freqs] / target - 1.0))),
        )
    print(f"criterion 12: worst relative deviation {worst:.3e} (< 1e-2)")
    assert worst < 1e-2
