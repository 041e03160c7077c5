"""Atom grid, occupation laws, pumping, and coupling-constant checks.

Closed-form oracles: the grid is pinned by its defining formula, the
occupation laws by hand-evaluated special points (x = 0, x = 1), and the
coupling constants by direct evaluation of 2 mu^2 n_atom / (hbar eps0 gamma).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from photherm import atoms
from photherm.constants import BOLTZMANN, HBAR
from photherm.params import PhysicalParams

# angular frequency whose photon energy equals k_B T at 400 K
OMEGA_KT_400 = BOLTZMANN * 400.0 / HBAR  # 5.2363e13 rad/s
# Relative drop above which two values of a decreasing law must differ in
# float64. Each value carries about 2|x| + 4 ulps of rounding from its
# exponent x (|x| < 10 on the tested range), so both together stay below this.
STRICT_DROP = 64.0 * np.finfo(float).eps


def assert_decreasing(f_lo, f_hi, rel_drop):
    """f_hi <= f_lo always; strictly when the exact relative drop is resolvable."""
    assert f_hi <= f_lo
    if rel_drop > STRICT_DROP:
        assert f_hi < f_lo


class TestGrid:
    def test_default_grid_formula(self, full_params):
        grid = atoms.build_grid(full_params)
        delta = 5.0e14 / 501.0
        assert grid.size == 500
        assert grid[0] == pytest.approx(delta, rel=1e-15)
        assert grid[0] == pytest.approx(9.980e11, rel=1e-3)
        assert grid[-1] == pytest.approx(500.0 * delta, rel=1e-15)
        assert grid[-1] == pytest.approx(4.990e14, rel=1e-3)
        assert np.allclose(np.diff(grid), delta, rtol=1e-13)

    def test_single_frequency_is_midpoint(self):
        p = PhysicalParams(n_atom_freqs=1)
        grid = atoms.build_grid(p)
        assert grid.size == 1
        assert grid[0] == pytest.approx(p.omega_max / 2.0, rel=1e-15)

    def test_endpoints_excluded(self, full_params, reduced_params):
        for p in (full_params, reduced_params):
            grid = atoms.build_grid(p)
            assert grid[0] > 0.0
            assert grid[-1] < p.omega_max

    def test_reduced_grid_size(self, reduced_params):
        assert atoms.build_grid(reduced_params).size == 100


class TestFermiDirac:
    def test_zero_frequency_is_half(self):
        assert atoms.fermi_dirac(0.0, 400.0) == pytest.approx(0.5, abs=1e-15)

    def test_thermal_energy_point(self):
        # hbar*omega = k_B T  ->  1/(1+e)
        val = atoms.fermi_dirac(OMEGA_KT_400, 400.0)
        assert val == pytest.approx(1.0 / (1.0 + math.e), rel=1e-12)
        assert val == pytest.approx(0.26894, rel=1e-4)

    def test_large_argument_underflows_smoothly(self):
        om = 1000.0 * BOLTZMANN * 400.0 / HBAR
        val = atoms.fermi_dirac(om, 400.0)
        assert np.isfinite(val)
        assert 0.0 <= val < 1e-300

    def test_reflection_identity(self, full_params):
        grid = atoms.build_grid(full_params)
        total = atoms.fermi_dirac(grid, 400.0) + atoms.fermi_dirac(-grid, 400.0)
        assert np.max(np.abs(total - 1.0)) < 1e-14

    @given(st.floats(min_value=1e10, max_value=4.9e14),
           st.floats(min_value=1e10, max_value=4.9e14))
    @settings(max_examples=50, deadline=None)
    @example(1e10, 1e10 + 0.00390625)  # exact drop ~1e-16 relative: not resolvable
    def test_strictly_decreasing(self, w1, w2):
        lo, hi = sorted((w1, w2))
        f_hi = atoms.fermi_dirac(hi, 400.0)
        # 1 - f(hi)/f(lo) = (1 - f(hi)) (1 - exp(-hbar (hi - lo)/kT)), exactly
        rel_drop = -(1.0 - f_hi) * math.expm1(-(hi - lo) / OMEGA_KT_400)
        assert_decreasing(atoms.fermi_dirac(lo, 400.0), f_hi, rel_drop)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            atoms.fermi_dirac(1e14, 0.0)


class TestPumpRate:
    def test_at_center_equals_amplitude(self, full_params):
        val = atoms.pump_rate(full_params.pump_center, full_params)
        assert val == pytest.approx(full_params.pump_amplitude, rel=1e-14)

    def test_one_thermal_energy_above_center(self, full_params):
        om = full_params.pump_center + OMEGA_KT_400
        val = atoms.pump_rate(om, full_params)
        assert val == pytest.approx(full_params.pump_amplitude / math.e, rel=1e-12)

    def test_zero_amplitude(self, full_params):
        p = full_params.replace(pump_amplitude=0.0)
        grid = atoms.build_grid(p)
        assert np.all(atoms.pump_rate(grid, p) == 0.0)

    def test_far_below_center_saturates_without_overflow(self, full_params):
        val = atoms.pump_rate(1.0, full_params)
        assert np.isfinite(val)

    @given(st.floats(min_value=1e10, max_value=4.9e14),
           st.floats(min_value=1e10, max_value=4.9e14))
    @settings(max_examples=50, deadline=None)
    @example(1e10, 1e10 + 0.015625)  # exact drop ~3e-16 relative: not resolvable
    def test_strictly_decreasing(self, w1, w2):
        p = PhysicalParams()
        lo, hi = sorted((w1, w2))
        rel_drop = -math.expm1(-(hi - lo) / OMEGA_KT_400)
        assert_decreasing(atoms.pump_rate(lo, p), atoms.pump_rate(hi, p), rel_drop)

    def test_temperature_comes_from_params(self, full_params):
        # one thermal energy at 800 K is two at 400 K
        hot = full_params.replace(temperature=800.0)
        val = atoms.pump_rate(full_params.pump_center + 2.0 * OMEGA_KT_400, hot)
        assert val == pytest.approx(full_params.pump_amplitude / math.e, rel=1e-12)


class TestBoseEinstein:
    def test_matches_fermi_identity(self, full_params):
        # n/(1-2n) at n = fermi equals the Planck occupation, pairwise
        grid = atoms.build_grid(full_params)
        f = atoms.fermi_dirac(grid, 400.0)
        be = atoms.bose_einstein(grid, 400.0)
        assert np.max(np.abs(f / (1.0 - 2.0 * f) / be - 1.0)) < 1e-12

    def test_thermal_energy_point(self):
        val = atoms.bose_einstein(OMEGA_KT_400, 400.0)
        assert val == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)


@pytest.mark.parametrize(
    "law",
    [
        lambda w: atoms.fermi_dirac(w, 400.0),
        lambda w: atoms.bose_einstein(w, 400.0),
        lambda w: atoms.pump_rate(w, PhysicalParams()),
    ],
    ids=["fermi_dirac", "bose_einstein", "pump_rate"],
)
def test_scalar_in_float_out(law):
    grid = np.array([1e13, 1e14, 3e14])
    values = law(grid)
    assert values.shape == grid.shape
    for w, value in zip(grid, values):
        assert type(law(float(w))) is float
        assert law(float(w)) == value


class TestCouplingConstants:
    def test_strong_coupling_value(self):
        p = PhysicalParams(atom_density=5.0e24)
        g_a, g_p = p.g_atom, p.g_photon
        assert g_p == pytest.approx(4.65, rel=0.01)
        assert g_a == pytest.approx(g_p / 600.0, rel=1e-14)

    def test_weak_coupling_value(self):
        p = PhysicalParams(atom_density=5.0e22)
        g_p = p.g_photon
        assert g_p == pytest.approx(0.0465, rel=0.01)

    def test_zero_density(self):
        p = PhysicalParams(atom_density=0.0)
        g_a, g_p = p.g_atom, p.g_photon
        assert g_a == 0.0 and g_p == 0.0

    def test_ratio_is_atoms_per_site(self):
        for n_j in (1, 17, 600):
            p = PhysicalParams(atoms_per_site=n_j)
            g_a, g_p = p.g_atom, p.g_photon
            assert g_p == pytest.approx(n_j * g_a, rel=1e-14)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_linear_in_density(self, factor):
        base = PhysicalParams()
        scaled = base.replace(atom_density=base.atom_density * factor)
        assert scaled.g_photon == pytest.approx(base.g_photon * factor, rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_inverse_linear_in_dephasing(self, factor):
        base = PhysicalParams()
        scaled = base.replace(dephasing_rate=base.dephasing_rate * factor)
        assert scaled.g_photon == pytest.approx(base.g_photon / factor, rel=1e-12)
