"""Spectral transform checks.

Raw emission is an exact per-mode product, so most oracles are closed-form:
Lorentzian peak/half-width values, the 1-D Planck curve at hand-computed
points, and the Lorentzian area sum rule for the detector convolution.
"""

import numpy as np
import pytest

from photherm import spectra, steady
from photherm.constants import BOLTZMANN, HBAR
from photherm.modes import ModeTable

KT_OVER_HBAR_400 = BOLTZMANN * 400.0 / HBAR


def toy(omega, gamma):
    omega = np.asarray(omega, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    n = omega.size
    return ModeTable(
        omega=omega,
        gamma_conf=gamma,
        m_peak=np.arange(n),
        plane_strength=0.0,
        cavity_length=1.0,
        crystal_length=0.1,
        plane_spacing=0.01,
        n_planes=12,
        omega_max=float(omega[-1] * 1.1) if n else 1.0,
    )


class TestSpectrumType:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            spectra.Spectrum(np.array([1.0]), np.array([1.0]), "psd")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            spectra.Spectrum(np.array([1.0, 2.0]), np.array([1.0]), "raw")

    def test_decreasing_omega(self):
        with pytest.raises(ValueError):
            spectra.Spectrum(np.array([2.0, 1.0]), np.array([0.0, 0.0]), "raw")

    def test_degenerate_omega_allowed(self):
        s = spectra.Spectrum(np.array([1.0, 1.0, 2.0]), np.zeros(3), "raw")
        assert s.omega.size == 3

    def test_negative_values_rejected_except_ratio(self):
        with pytest.raises(ValueError):
            spectra.Spectrum(np.array([1.0]), np.array([-0.1]), "detector")
        s = spectra.Spectrum(np.array([1.0]), np.array([-0.1]), "ratio")
        assert s.kind == "ratio"


class TestEmissionRaw:
    def test_zero_photons(self):
        t = toy([1e14, 2e14], [0.3, 0.6])
        s = spectra.emission_raw(np.zeros(2), t)
        assert s.kind == "raw"
        assert np.array_equal(s.omega, t.omega)
        assert np.all(s.value == 0.0)

    def test_fully_confined_mode_emits_nothing(self):
        t = toy([1e14], [1.0])
        s = spectra.emission_raw(np.array([7.3]), t)
        assert s.value[0] == 0.0

    def test_product_value(self):
        t = toy([9.43e13], [0.76])
        s = spectra.emission_raw(np.array([0.198]), t)
        assert s.value[0] == pytest.approx(9.43e13 * 0.198 * 0.24, rel=1e-14)
        assert s.value[0] == pytest.approx(4.48e12, rel=1e-3)

    def test_dimension_mismatch(self):
        t = toy([1e14, 2e14], [0.3, 0.6])
        with pytest.raises(ValueError):
            spectra.emission_raw(np.zeros(3), t)


class TestEmissionDetector:
    def test_center_and_half_width(self):
        t = toy([2e14], [0.25])
        n = np.array([0.4])
        w = 2e14 * 0.4 * 0.75
        gd = 5e11
        s = spectra.emission_detector(
            n, t, np.array([2e14 - gd, 2e14, 2e14 + gd]), gamma_d=gd
        )
        assert s.kind == "detector"
        assert s.value[1] == pytest.approx(w, rel=1e-14)
        assert s.value[0] == pytest.approx(0.5 * w, rel=1e-14)
        assert s.value[2] == pytest.approx(0.5 * w, rel=1e-14)

    def test_zero_photons_zero_everywhere(self):
        t = toy([1e14, 3e14], [0.2, 0.9])
        s = spectra.emission_detector(np.zeros(2), t, np.linspace(1e13, 4e14, 64))
        assert np.all(s.value == 0.0)

    def test_narrow_detector_recovers_raw(self):
        t = toy([1e14, 2e14, 3e14], [0.1, 0.5, 0.9])
        n = np.array([0.4, 0.2, 0.1])
        det = spectra.emission_detector(n, t, t.omega, gamma_d=1e-2)
        raw = spectra.emission_raw(n, t)
        assert np.max(np.abs(det.value / raw.value - 1.0)) < 1e-12

    def test_linear_in_photon_numbers(self):
        t = toy([1e14, 2e14, 3e14], [0.1, 0.5, 0.9])
        grid = np.linspace(5e13, 3.5e14, 31)
        n1 = np.array([0.4, 0.2, 0.1])
        n2 = np.array([0.05, 0.7, 0.3])
        lhs = spectra.emission_detector(2.0 * n1 + 3.0 * n2, t, grid)
        rhs = (
            2.0 * spectra.emission_detector(n1, t, grid).value
            + 3.0 * spectra.emission_detector(n2, t, grid).value
        )
        assert np.max(np.abs(lhs.value - rhs)) <= 1e-12 * np.max(rhs)

    def test_lorentzian_area_sum_rule(self):
        # one well-resolved mode mid-window: Riemann sum of the detector
        # spectrum equals pi * gamma_d * (raw total) up to edge-tail loss
        t = toy([2.5e14], [0.2])
        n = np.array([0.7])
        gd = 5e11
        samples = np.linspace(5e14 / 20000, 5e14, 20000)
        det = spectra.emission_detector(n, t, samples, gamma_d=gd)
        lhs = det.value.sum() * (samples[1] - samples[0])
        rhs = np.pi * gd * spectra.emission_raw(n, t).value.sum()
        assert lhs == pytest.approx(rhs, rel=0.1)

    def test_default_grid(self):
        t = toy([1e14, 4e14], [0.2, 0.3])
        s = spectra.emission_detector(np.array([0.1, 0.2]), t)
        assert s.omega.size == spectra.DEFAULT_N_SAMPLES
        assert s.omega[0] > 0.0
        assert s.omega[-1] == pytest.approx(4e14)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_bad_sample_count(self, n_samples):
        with pytest.raises(ValueError, match=f"n_samples must be at least 1, got {n_samples}"):
            spectra.default_samples(4e14, n_samples)

    def test_bad_width(self):
        t = toy([1e14], [0.2])
        with pytest.raises(ValueError):
            spectra.emission_detector(np.array([0.1]), t, gamma_d=0.0)


class TestBlackbody:
    def test_low_frequency_limit(self):
        s = spectra.blackbody_1d(np.array([1.0]), 400.0)
        assert s.value[0] == pytest.approx(KT_OVER_HBAR_400, rel=1e-6)
        assert s.value[0] == pytest.approx(5.237e13, rel=1e-3)

    def test_thermal_crossover_point(self):
        w = KT_OVER_HBAR_400
        s = spectra.blackbody_1d(np.array([w]), 400.0)
        assert s.value[0] == pytest.approx(w / (np.e - 1.0), rel=1e-12)
        assert s.value[0] == pytest.approx(3.048e13, rel=1e-3)

    def test_high_temperature_approaches_classical_limit_from_below(self):
        w = np.array([1e14])
        prev = 0.0
        for temp in (400.0, 4000.0, 40000.0, 400000.0):
            v = spectra.blackbody_1d(w, temp).value[0]
            classical = BOLTZMANN * temp / HBAR
            assert prev < v < classical
            prev = v

    def test_validation(self):
        with pytest.raises(ValueError):
            spectra.blackbody_1d(np.array([1e14]), 0.0)
        with pytest.raises(ValueError):
            spectra.blackbody_1d(np.array([0.0]), 400.0)


class TestSpectralRatio:
    def test_identity(self):
        s = spectra.Spectrum(np.array([1.0, 2.0]), np.array([3.0, 4.0]), "detector")
        r = spectra.spectral_ratio(s, s)
        assert r.kind == "ratio"
        assert np.array_equal(r.value, np.ones(2))

    def test_zero_numerator(self):
        w = np.array([1.0, 2.0])
        num = spectra.Spectrum(w, np.zeros(2), "detector")
        den = spectra.Spectrum(w, np.array([3.0, 4.0]), "blackbody")
        assert np.array_equal(spectra.spectral_ratio(num, den).value, np.zeros(2))

    def test_mismatched_grids(self):
        a = spectra.Spectrum(np.array([1.0]), np.array([1.0]), "detector")
        b = spectra.Spectrum(np.array([2.0]), np.array([1.0]), "blackbody")
        with pytest.raises(ValueError):
            spectra.spectral_ratio(a, b)

    def test_zero_reference(self):
        w = np.array([1.0, 2.0])
        num = spectra.Spectrum(w, np.array([1.0, 1.0]), "detector")
        den = spectra.Spectrum(w, np.array([1.0, 0.0]), "blackbody")
        with pytest.raises(ValueError):
            spectra.spectral_ratio(num, den)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the atomic linewidth (1e14 rad/s ~ 1.9 kT/hbar) Lorentzian-averages "
        "the thermal occupation across the whole spectrum, so the strongly "
        "damped steady state is not blackbody-like at the band edges: "
        "measured detector/blackbody edge ratios run from 1.3 to 1.3e3 "
        "instead of staying within 10% of unity"
    ),
)
def test_equilibrium_band_edge_emission_tracks_blackbody(
    reduced_tables, reduced_table, reduced_bands, reduced_params
):
    res = steady.solve_steady(steady.seed_guess(reduced_tables), reduced_tables)
    assert res.converged
    photons = res.state[reduced_tables.n_freqs :]
    edges = np.array(sorted(e for gap in reduced_bands.gaps for e in gap))
    edges = edges[(edges > 0.0) & (edges < reduced_params.omega_max)]
    det = spectra.emission_detector(
        photons, reduced_table, edges, gamma_d=reduced_params.detector_width
    )
    bb = spectra.blackbody_1d(edges, reduced_params.temperature)
    ratio = spectra.spectral_ratio(det, bb)
    assert np.all((ratio.value > 0.9) & (ratio.value < 1.1))
