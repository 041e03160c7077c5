"""Band-structure and gap-interval checks.

The infinite-crystal half-trace T = cos(theta) - (q eta/2) sin(theta) is an
independent closed form: |T| > 1 exactly in the gaps. Finite-cavity gap
intervals must agree with it, contain no crystal-class mode, and beat the
minimum-width rule.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photherm import bands, modes
from photherm.constants import SPEED_OF_LIGHT as C
from photherm.params import PhysicalParams


class TestDispersion:
    def test_trace_reduces_to_cosine_without_planes(self):
        om = np.linspace(1e12, 5e14, 101)
        T = bands.dispersion_trace(om, 0.0, 1e-5)
        assert np.allclose(T, np.cos(om / C * 1e-5), rtol=0, atol=1e-15)

    def test_no_gaps_without_planes(self):
        gaps, passes = bands.analytic_gaps(0.0, 1e-5, 5e14)
        assert gaps.shape == (0, 2)
        assert passes == 0

    def test_first_gap_edges(self):
        gaps, _ = bands.analytic_gaps(2.1e-5, 1e-5, 5e14)
        # edges satisfy |T| = 1 by construction; verify independently
        for lo, hi in gaps:
            assert abs(abs(bands.dispersion_trace(lo, 2.1e-5, 1e-5)) - 1.0) < 1e-9
            mid = 0.5 * (lo + hi)
            assert abs(bands.dispersion_trace(mid, 2.1e-5, 1e-5)) > 1.0
        # first gap brackets the known band-edge pair
        assert gaps[0][0] < 9.43e13 * 0.995 < 9.43e13 * 1.005 < gaps[1][0]
        assert gaps[0][0] == pytest.approx(3.836e13, rel=1e-3)
        assert gaps[0][1] == pytest.approx(9.418e13, rel=1e-3)
        # every gap ends at its Bragg frequency m pi c / l_p, the last at the cutoff
        bragg = math.pi * C / 1e-5 * np.arange(1, gaps.shape[0] + 1)
        assert gaps[:, 1] == pytest.approx(np.minimum(bragg, 5e14), rel=1e-15)

    def test_narrow_gaps_all_found(self):
        # the m-th gap of a weak comb is m pi eta c / l_p^2 wide, far below
        # any practical grid cell at eta = 1e-11
        eta, l_p = 1e-11, 1e-5
        gaps, _ = bands.analytic_gaps(eta, l_p, 5e14)
        m = np.arange(1, 6)
        assert gaps.shape == (5, 2)
        assert gaps[:, 1] - gaps[:, 0] == pytest.approx(
            m * math.pi * eta * C / l_p**2, rel=3e-5
        )

    @settings(max_examples=40, deadline=None)
    @given(
        log_eta=st.floats(min_value=math.log(1e-9), max_value=math.log(1e-2)),
        omega_max=st.floats(min_value=1e14, max_value=1e15),
    )
    def test_gap_properties(self, log_eta, omega_max):
        eta, l_p = math.exp(log_eta), 1e-5
        gaps, _ = bands.analytic_gaps(eta, l_p, omega_max)
        lo, hi = gaps[:, 0], gaps[:, 1]
        assert gaps.shape[0] >= 1
        assert np.all(lo < hi) and np.all(lo[1:] > hi[:-1])
        # upper edges: the Bragg frequencies, the last one possibly clipped
        m = np.round(hi * l_p / (math.pi * C))
        bragg = np.abs(hi / (m * math.pi * C / l_p) - 1.0) <= 1e-15
        assert np.all(bragg | (hi == omega_max))
        T = lambda om: np.abs(bands.dispersion_trace(om, eta, l_p))
        assert np.all(T(lo - 2e-12 * hi) <= 1.0)
        assert np.all(T(0.5 * (lo + hi)) > 1.0)
        # every grid point in a gap lies in exactly one reported interval, and
        # each run of consecutive such points in the same one; a gap opening
        # within the bisection tolerance of omega_max is not reported
        grid = np.linspace(omega_max / 200_000, omega_max, 200_000)
        inside = (grid[:, None] >= lo - 2e-12 * hi) & (grid[:, None] <= hi * (1 + 1e-12))
        hit = (T(grid) > 1.0) & (grid < omega_max * (1.0 - 2e-12))
        assert np.all(inside[hit].sum(axis=1) == 1)
        which = np.argmax(inside, axis=1)
        i = np.nonzero(hit[1:] & hit[:-1])[0]
        k, k_next = which[i], which[i + 1]
        # high allowed bands can be narrower than the grid step: two neighbouring
        # in-gap points may then lie in consecutive intervals, but only with the
        # reported allowed band between them, and that band must be allowed
        step = k_next != k
        assert np.all(k_next[step] == k[step] + 1)
        band_lo, band_hi = hi[k[step]], lo[k_next[step]]
        assert np.all(grid[i[step]] <= band_lo * (1 + 1e-12))
        assert np.all(band_hi - 2e-12 * hi[k_next[step]] <= grid[i[step] + 1])
        assert np.all(T(0.5 * (band_lo + band_hi)) <= 1.0)

    def test_gap_count_below_cutoff(self):
        gaps, passes = bands.analytic_gaps(2.1e-5, 1e-5, 5e14)
        assert gaps.shape[0] == 6
        assert passes > 0


class TestGapIntervals:
    def test_no_gaps_for_empty_cavity(self):
        p = PhysicalParams(plane_strength=0.0, cavity_length=1.2e-3)
        bs = bands.band_structure(modes.solve_modes(p))
        assert bs.n_gaps == 0
        assert bs.passes == 0

    def test_quartet_frequencies_straddle_first_gap(self, full_table, full_bands):
        in_gap = lambda om: any(lo < om < hi for lo, hi in full_bands.gaps)
        assert in_gap(1.17e14)
        assert not in_gap(1.02e14)

    def test_no_crystal_modes_inside_gaps(self, full_table, full_bands):
        omega_cc = full_table.omega[full_table.is_crystal]
        for lo, hi in full_bands.gaps:
            assert not np.any((omega_cc > lo) & (omega_cc < hi))

    def test_gaps_beat_spacing_rule(self, full_table, full_bands):
        spacing = math.pi * C / full_table.params.cavity_length
        widths = full_bands.gaps[:, 1] - full_bands.gaps[:, 0]
        assert np.all(widths > bands.MIN_GAP_SPACING_FACTOR * spacing)

    def test_weaker_planes_give_smaller_gap_measure(self, full_bands):
        p = PhysicalParams(plane_strength=2.6e-6)
        weak = bands.band_structure(modes.solve_modes(p))
        assert weak.total_gap_measure() < full_bands.total_gap_measure()

    def test_trailing_gap_clipped_at_cutoff(self, full_bands):
        assert full_bands.gaps[-1, 1] == pytest.approx(5e14)


class TestRepresentatives:
    def test_band_edge_is_strongly_confined(self, reduced_table, reduced_bands):
        rep = bands.representatives(reduced_table, reduced_bands)
        assert reduced_table.gamma_conf[rep["band_edge"]] > 0.3

    def test_in_gap_is_weakly_confined(self, reduced_table, reduced_bands):
        rep = bands.representatives(reduced_table, reduced_bands)
        ratio = reduced_table.params.crystal_length / reduced_table.params.cavity_length
        assert reduced_table.gamma_conf[rep["in_gap"]] < ratio / 10.0

    def test_in_gap_lies_inside_a_gap(self, reduced_table, reduced_bands):
        rep = bands.representatives(reduced_table, reduced_bands)
        om = reduced_table.omega[rep["in_gap"]]
        assert any(lo < om < hi for lo, hi in reduced_bands.gaps)

    def test_gap_mask_matches_intervals(self, reduced_table, reduced_bands):
        mask = bands.in_gap_mask(reduced_table, reduced_bands)
        for i in np.nonzero(mask)[0][::7]:
            om = reduced_table.omega[i]
            assert any(lo < om < hi for lo, hi in reduced_bands.gaps)
        assert 0 < mask.sum() < reduced_table.n_modes
