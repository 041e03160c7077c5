"""Band-structure and gap-interval checks.

The infinite-crystal half-trace T = cos(theta) - (q eta/2) sin(theta) is an
independent closed form: |T| > 1 exactly in the gaps. Finite-cavity gap
intervals must agree with it, contain no crystal-class mode, and beat the
minimum-width rule.
"""

import math

import numpy as np
import pytest

from photherm import bands, modes
from photherm.constants import SPEED_OF_LIGHT as C
from photherm.params import PhysicalParams


class TestDispersion:
    def test_trace_reduces_to_cosine_without_planes(self):
        om = np.linspace(1e12, 5e14, 101)
        T = bands.dispersion_trace(om, 0.0, 1e-5)
        assert np.allclose(T, np.cos(om / C * 1e-5), rtol=0, atol=1e-15)

    def test_no_gaps_without_planes(self):
        assert bands.analytic_gaps(0.0, 1e-5, 5e14).shape == (0, 2)

    def test_first_gap_edges(self):
        gaps = bands.analytic_gaps(2.1e-5, 1e-5, 5e14)
        # edges satisfy |T| = 1 by construction; verify independently
        for lo, hi in gaps:
            assert abs(abs(bands.dispersion_trace(lo, 2.1e-5, 1e-5)) - 1.0) < 1e-9
            mid = 0.5 * (lo + hi)
            assert abs(bands.dispersion_trace(mid, 2.1e-5, 1e-5)) > 1.0
        # first gap brackets the known band-edge pair
        assert gaps[0][0] < 9.43e13 * 0.995 < 9.43e13 * 1.005 < gaps[1][0]
        assert gaps[0][0] == pytest.approx(3.836e13, rel=1e-3)
        assert gaps[0][1] == pytest.approx(9.418e13, rel=1e-3)

    def test_gap_count_below_cutoff(self):
        assert bands.analytic_gaps(2.1e-5, 1e-5, 5e14).shape[0] == 6


class TestGapIntervals:
    def test_no_gaps_for_empty_cavity(self):
        p = PhysicalParams(plane_strength=0.0, cavity_length=1.2e-3)
        bs = bands.band_structure(modes.solve_modes(p))
        assert bs.n_gaps == 0

    def test_quartet_frequencies_straddle_first_gap(self, full_table, full_bands):
        in_gap = lambda om: any(lo < om < hi for lo, hi in full_bands.gaps)
        assert in_gap(1.17e14)
        assert not in_gap(1.02e14)

    def test_no_crystal_modes_inside_gaps(self, full_table, full_bands):
        omega_cc = full_table.omega[full_table.is_crystal]
        for lo, hi in full_bands.gaps:
            assert not np.any((omega_cc > lo) & (omega_cc < hi))

    def test_gaps_beat_spacing_rule(self, full_table, full_bands):
        spacing = math.pi * C / full_table.cavity_length
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
        ratio = reduced_table.crystal_length / reduced_table.cavity_length
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
