"""Spectral transform checks.

Raw emission is an exact per-mode product, so most oracles are closed-form:
Lorentzian peak/half-width values, the 1-D Planck curve at hand-computed
points, and the Lorentzian area sum rule for the detector convolution. The
detector's proxy-mode summation is checked per sample against the dense
Lorentzian sum over every (sample, mode) pair.
"""

import numpy as np
import pytest

from photherm import atoms, kinetics, spectra, steady
from photherm.constants import BOLTZMANN, HBAR
from photherm.modes import ModeTable
from photherm.params import PhysicalParams

KT_OVER_HBAR_400 = BOLTZMANN * 400.0 / HBAR


def toy(omega, gamma):
    omega = np.asarray(omega, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    n = omega.size
    geometry = PhysicalParams(
        plane_strength=0.0,
        cavity_length=1.0,
        plane_spacing=0.01,
        n_planes=12,
        omega_max=float(omega[-1] * 1.1) if n else 1.0,
    )
    return ModeTable(omega=omega, gamma_conf=gamma, m_peak=np.arange(n), params=geometry)


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


PROXY_RTOL = 1e-13
GAMMAS = [1e-2, 1e9, 5e11, 1e13, 1e15]


def dense_detector(photons, table, samples, gamma_d):
    """The detector spectrum summed over every (sample, mode) pair."""
    weights = spectra.outside_weights(photons, table)
    blocks = np.array_split(samples, max(1, samples.size // 100))
    kernel = lambda s: 1.0 / (1.0 + ((s[:, None] - table.omega) / gamma_d) ** 2)
    return np.concatenate([kernel(block) @ weights for block in blocks])


def assert_matches_dense(photons, table, samples, gamma_d):
    got = spectra.emission_detector(photons, table, samples, gamma_d=gamma_d)
    want = dense_detector(photons, table, samples, gamma_d)
    assert np.array_equal(got.omega, samples)
    assert np.max(np.abs(got.value - want) / want) <= PROXY_RTOL


def random_toy(n, seed, lo=1e14, hi=2e14):
    rng = np.random.default_rng(seed)
    omega = np.sort(rng.uniform(lo, hi, n))
    return toy(omega, rng.uniform(0.0, 0.9, n)), rng.random(n)


class TestProxyDetector:
    """Clustered modes summed through Chebyshev proxies, per sample to 1e-13."""

    @pytest.fixture(scope="class")
    def full_photons(self, full_table, full_params):
        grid = atoms.build_grid(full_params)
        tables = kinetics.build_tables(
            full_table.omega, full_table.gamma_conf, grid, full_params
        )
        res = steady.solve_steady(steady.seed_guess(tables), tables)
        assert res.converged
        rng = np.random.default_rng(11)
        return {
            "steady": tables.split(res.state)[1],
            "random": rng.random(full_table.n_modes),
            "spiky": rng.random(full_table.n_modes) ** 20,
        }

    @pytest.mark.parametrize("gamma_d", GAMMAS)
    @pytest.mark.parametrize("kind", ["steady", "random", "spiky"])
    def test_full_census_matches_dense_sum(self, full_table, full_photons, kind, gamma_d):
        samples = spectra.default_samples(full_table.params.omega_max)
        assert_matches_dense(full_photons[kind], full_table, samples, gamma_d)

    def test_zero_photons_give_exact_zero(self, full_table):
        s = spectra.emission_detector(np.zeros(full_table.n_modes), full_table)
        assert np.all(s.value == 0.0)

    @pytest.mark.parametrize("gamma_d", GAMMAS)
    def test_samples_beyond_the_modes(self, gamma_d):
        t, n = random_toy(600, 1)
        samples = np.concatenate(
            [np.geomspace(1e10, 9.99e13, 150), np.linspace(1e14, 2e14, 100),
             np.geomspace(2.001e14, 1e17, 150)]
        )
        assert_matches_dense(n, t, samples, gamma_d)

    @pytest.mark.parametrize("gamma_d", GAMMAS)
    def test_duplicate_frequencies(self, gamma_d):
        # one cluster of a single frequency, then repeated pairs
        rng = np.random.default_rng(2)
        pairs = np.repeat(np.sort(rng.uniform(1.6e14, 2e14, 200)), 2)
        omega = np.concatenate([np.full(300, 1.5e14), pairs])
        t = toy(omega, rng.uniform(0.0, 0.9, omega.size))
        samples = np.sort(np.concatenate([np.linspace(1e14, 2.5e14, 300), omega[::7]]))
        assert_matches_dense(rng.random(omega.size), t, samples, gamma_d)

    @pytest.mark.parametrize("gamma_d", GAMMAS)
    def test_unsorted_table(self, gamma_d):
        t, n = random_toy(700, 3)
        perm = np.random.default_rng(4).permutation(t.n_modes)
        shuffled = toy(t.omega[perm], t.gamma_conf[perm])
        samples = np.linspace(5e13, 2.5e14, 400)
        assert_matches_dense(n[perm], shuffled, samples, gamma_d)
        ordered = spectra.emission_detector(n, t, samples, gamma_d=gamma_d).value
        got = spectra.emission_detector(n[perm], shuffled, samples, gamma_d=gamma_d).value
        assert np.max(np.abs(got / ordered - 1.0)) <= PROXY_RTOL

    @pytest.mark.parametrize("gamma_d", GAMMAS)
    @pytest.mark.parametrize("n_modes", [1, 255, 256, 257])
    def test_cluster_size_boundaries(self, n_modes, gamma_d):
        assert spectra._CLUSTER == 256
        t, n = random_toy(n_modes, 5)
        samples = np.linspace(5e13, 2.5e14, 300)
        assert_matches_dense(n, t, samples, gamma_d)


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
