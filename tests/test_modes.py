"""Mode solver checks against closed-form empty-cavity results.

With no planes the eigenproblem is u'' + q^2 u = 0, u(0) = u(L) = 0, whose
solutions are known exactly: Omega_n = n pi c / L, u_n = sqrt(2/L) sin(n pi
z/L), confinement L_c/L - sin(2 pi n L_c/L)/(2 pi n). Every solver path is
validated against these before the planes are switched on. With planes, the
closed-form normalization is checked against an independent reference that
propagates the field pair (u, w) itself.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photherm import modes, pipeline
from photherm.constants import SPEED_OF_LIGHT as C
from photherm.params import PhysicalParams, apply_scale

FULL_EMPTY_COUNT = 6366  # floor(omega_max L / (pi c)) at defaults
REDUCED_EMPTY_COUNT = 636
# relative offset from a root at which the oscillation count is well defined
EPS = 1e-12


@pytest.fixture(scope="module")
def empty_full():
    return PhysicalParams(plane_strength=0.0)


@pytest.fixture(scope="module")
def empty_roots(empty_full):
    return modes.scan_eigenfrequencies(empty_full)


def empty_gamma(n: np.ndarray, ratio: float) -> np.ndarray:
    return ratio - np.sin(2.0 * math.pi * n * ratio) / (2.0 * math.pi * n)


def reference_region_states(omega, p):
    """Propagate (u, w) = (u, u'/q) from (0, 1) at z = 0 through every region.

    Returns (z_edges, U, W): z_edges is (0, z_1, ..., z_n, L), and U, W of
    shape (n_modes, n_regions) hold the unnormalized state at each region's
    left edge. Free flight rotates the pair by q*d; a plane shears w by
    -q*eta*u.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    q = omega / C
    z_edges = np.concatenate(([0.0], p.plane_positions, [p.cavity_length]))
    n_regions = z_edges.size - 1
    U = np.empty((omega.size, n_regions))
    W = np.empty((omega.size, n_regions))
    u, w = np.zeros_like(q), np.ones_like(q)
    for r in range(n_regions):
        U[:, r], W[:, r] = u, w
        phi = q * (z_edges[r + 1] - z_edges[r])
        cp, sp = np.cos(phi), np.sin(phi)
        u, w = u * cp + w * sp, -u * sp + w * cp
        if r + 1 < n_regions:  # interior edge: a plane
            w = w - q * p.plane_strength * u
    return z_edges, U, W


def reference_normalization(omega, p):
    """(u^2 at the planes, u^2 integral per region), normalized, from the pair.

    For u(s) = u0 cos(q s) + w0 sin(q s) on [0, d]:
    int u^2 ds = d (u0^2 + w0^2)/2 + sin(2qd) (u0^2 - w0^2)/(4q)
                 + u0 w0 (1 - cos(2qd))/(2q)
    """
    z_edges, U, W = reference_region_states(omega, p)
    q = (np.atleast_1d(omega) / C)[:, None]
    d = np.diff(z_edges)[None, :]
    seg = (
        0.5 * d * (U**2 + W**2)
        + np.sin(2.0 * q * d) / (4.0 * q) * (U**2 - W**2)
        + U * W * (1.0 - np.cos(2.0 * q * d)) / (2.0 * q)
    )
    u2 = U[:, 1:] ** 2  # u at plane i enters region i + 1
    total = seg.sum(axis=1) + p.plane_strength * u2.sum(axis=1)
    return u2 / total[:, None], seg / total[:, None]


def sampled_peak_count(omega, p, per_wavelength=400, chunk=128):
    """Positive maxima of the field in (0, L_c), counted on a dense grid.

    Each region between planes inside the stack is sampled at both ends, so
    the slope w = u'/q is seen on both sides of every plane and just left of
    L_c. A positive maximum is a step where w falls from > 0 to <= 0 while
    u > 0; this catches maxima at the planes' kinks too.
    """
    k = math.ceil(per_wavelength * p.plane_spacing * np.max(omega) / (2.0 * math.pi * C))
    s = np.linspace(0.0, p.plane_spacing, k + 1)
    counts = np.empty(omega.size, dtype=np.int64)
    for a in range(0, omega.size, chunk):
        om = omega[a : a + chunk]
        _, U, W = reference_region_states(om, p)
        U, W = U[:, : p.n_planes, None], W[:, : p.n_planes, None]
        phase = (om / C)[:, None, None] * s
        c, sn = np.cos(phase), np.sin(phase)
        u = (U * c + W * sn).reshape(om.size, -1)
        w = (W * c - U * sn).reshape(om.size, -1)
        counts[a : a + chunk] = np.count_nonzero(
            (w[:, :-1] > 0.0) & (w[:, 1:] <= 0.0) & (u[:, 1:] > 0.0), axis=1
        )
    return counts


class TestEmptyCavity:
    def test_census_count(self, empty_roots):
        assert empty_roots.size == FULL_EMPTY_COUNT

    def test_roots_match_analytic(self, empty_full, empty_roots):
        n = np.arange(1, empty_roots.size + 1)
        exact = n * math.pi * C / empty_full.cavity_length
        assert np.max(np.abs(empty_roots / exact - 1.0)) < 1e-11

    def test_subinterval_completeness(self, empty_full, empty_roots):
        scale = empty_full.cavity_length / (math.pi * C)
        for lo, hi in [(1e14, 2e14), (3.7e13, 3.9e13), (4.9e14, 5e14)]:
            found = np.count_nonzero((empty_roots > lo) & (empty_roots <= hi))
            assert found == math.floor(hi * scale) - math.floor(lo * scale)

    def test_reduced_census_count(self, empty_full):
        p = empty_full.replace(cavity_length=empty_full.cavity_length / 10.0)
        assert modes.scan_eigenfrequencies(p).size == REDUCED_EMPTY_COUNT

    def test_count_steps_at_eigenfrequencies(self, empty_full):
        for n in (1, 7, 100, 6000):
            om = n * math.pi * C / empty_full.cavity_length
            counts = modes.count_below([om * (1.0 - EPS), om * (1.0 + EPS)], empty_full)
            assert counts.tolist() == [n - 1, n]

    def test_count_between_roots(self, empty_full):
        n = np.arange(1, 8)
        om = (n + 0.5) * math.pi * C / empty_full.cavity_length
        assert np.array_equal(modes.count_below(om, empty_full), n)

    def test_gamma_closed_form(self, empty_full):
        table = modes.solve_modes(empty_full)
        assert table.n_modes == FULL_EMPTY_COUNT
        n = np.arange(1, table.n_modes + 1)
        ratio = empty_full.crystal_length / empty_full.cavity_length
        assert np.max(np.abs(table.gamma_conf - empty_gamma(n, ratio))) < 1e-12

    def test_peak_count_tracks_wavelength(self, empty_full, empty_roots):
        # sin(q z) has its positive maxima at q z = pi/2 + 2 pi j; count those
        # inside (0, L_c)
        q = empty_roots / C
        expected = np.maximum(
            0, np.ceil((q * empty_full.crystal_length - 0.5 * math.pi) / (2.0 * math.pi))
        )
        assert np.array_equal(modes.count_peaks(empty_roots, empty_full), expected)


class TestScanRange:
    def test_empty_below_fundamental(self):
        p = PhysicalParams()
        roots = modes.scan_eigenfrequencies(
            p, omega_max=0.99 * math.pi * C / (2.0 * p.cavity_length)
        )
        assert roots.size == 0

    def test_plane_census_within_band(self, full_table):
        assert 6000 <= full_table.n_modes <= 7500


class TestNormalization:
    @settings(max_examples=15, deadline=None)
    @given(
        eta=st.floats(min_value=0.0, max_value=1e-4),
        omega_hi=st.floats(min_value=2e13, max_value=6e13),
    )
    def test_norm_includes_delta_terms(self, eta, omega_hi):
        p = PhysicalParams(plane_strength=eta, cavity_length=1.2e-3)
        omega = modes.scan_eigenfrequencies(p, omega_max=omega_hi)
        assert omega.size > 0
        assert np.max(modes.norm_residuals(omega, p)) < 1e-10

    def test_norm_residual_full_scale(self, full_params, full_table):
        res = modes.norm_residuals(full_table.omega[::29], full_params)
        assert np.max(res) < 1e-10

    @pytest.mark.parametrize("scale", ["full", "reduced"])
    @pytest.mark.parametrize("factor", [0.25, 1.0, 4.0])
    def test_closed_form_matches_propagated_pair(self, full_params, scale, factor):
        p = apply_scale(
            full_params.replace(plane_strength=full_params.plane_strength * factor), scale
        )
        table = modes.solve_modes(p)
        u2_ref, seg_ref = reference_normalization(table.omega, p)
        gamma_ref = seg_ref[:, : p.n_planes].sum(axis=1) / seg_ref.sum(axis=1)
        assert np.max(np.abs(table.gamma_conf / gamma_ref - 1.0)) < 1e-10
        # shares of the norm: the delta-plane terms eta*u(z_i)^2 and the
        # plain integral of each region
        u2, seg = modes.normalize_modes(table.omega, p)
        assert np.max(p.plane_strength * np.abs(u2 - u2_ref)) < 1e-10
        assert np.max(np.abs(seg - seg_ref)) < 1e-10


class TestWithPlanes:
    def test_root_continuity_under_eta_perturbation(self, full_params, full_table):
        p2 = full_params.replace(plane_strength=full_params.plane_strength * 1.001)
        om2 = modes.scan_eigenfrequencies(p2)
        assert om2.size == full_table.n_modes  # no swaps or losses
        assert np.max(np.abs(om2 / full_table.omega - 1.0)) < 1e-2

    def test_band_edge_peak_count(self, full_table):
        # lower edge of the second band: one hump per lattice period
        lo_edge = 9.43e13
        sel = np.abs(full_table.omega - lo_edge) / lo_edge < 0.005
        idx = np.nonzero(sel)[0]
        best = idx[np.argmax(full_table.gamma_conf[idx])]
        assert full_table.m_peak[best] == 6
        assert full_table.k_assigned[best] == pytest.approx(
            math.pi / full_table.plane_spacing
        )

    @pytest.mark.parametrize("factor", [0.25, 1.0, 4.0])
    def test_peak_count_matches_dense_sampling(self, full_params, full_table, factor):
        p = full_params.replace(plane_strength=full_params.plane_strength * factor)
        table = full_table if factor == 1.0 else modes.solve_modes(p)
        assert np.array_equal(table.m_peak, sampled_peak_count(table.omega, p))

    def test_gamma_bounds(self, full_table):
        assert np.all(full_table.gamma_conf > 0.0)
        assert np.all(full_table.gamma_conf < 1.0)


@pytest.mark.parametrize("scale", ["full", "reduced"])
@pytest.mark.parametrize("factor", [0.25, 1.0, 4.0])
def test_census_is_the_sturm_spectrum(full_params, scale, factor):
    """The census is simple, and the k-th frequency is where the count steps to k+1.

    At reduced scale the Bragg frequencies m*pi*c/l_p fall on multiples of
    the empty-cavity spacing, where a census can list a root twice and miss
    its neighbour.
    """
    p = apply_scale(
        full_params.replace(plane_strength=full_params.plane_strength * factor), scale
    )
    omega = modes.scan_eigenfrequencies(p)
    k = np.arange(omega.size)
    assert np.all(np.diff(omega) > 0.0)
    assert np.array_equal(modes.count_below(omega * (1.0 - EPS), p), k)
    assert np.array_equal(modes.count_below(omega * (1.0 + EPS), p), k + 1)


class TestModeTable:
    def test_save_load_roundtrip(self, reduced_table, tmp_path):
        path = tmp_path / "table.npz"
        reduced_table.save(path)
        back = modes.ModeTable.load(path)
        assert np.array_equal(back.omega, reduced_table.omega)
        assert np.array_equal(back.gamma_conf, reduced_table.gamma_conf)
        assert np.array_equal(back.m_peak, reduced_table.m_peak)
        assert back.plane_strength == reduced_table.plane_strength
        assert back.n_planes == reduced_table.n_planes
        assert back.census_version == modes.CENSUS_VERSION

    def test_matches_params(self, reduced_table, reduced_params, full_params):
        assert reduced_table.matches(reduced_params)
        assert not reduced_table.matches(full_params)
        stale = dataclasses.replace(reduced_table, census_version=modes.CENSUS_VERSION - 1)
        assert not stale.matches(reduced_params)

    def test_old_layout_cache_is_solved_again(self, reduced_table, reduced_params, tmp_path):
        # censuses saved by earlier formats, each with a wrong m_peak standing
        # in for its stale values: unversioned with init_slope, and version 2
        # with the derived k_assigned and is_crystal columns stored
        path = tmp_path / "cache" / f"modes-{reduced_params.mode_cache_key()}.npz"
        path.parent.mkdir()
        t = reduced_table
        geometry = np.array(
            [
                t.plane_strength,
                t.cavity_length,
                t.crystal_length,
                t.plane_spacing,
                float(t.n_planes),
                t.omega_max,
            ]
        )
        columns = dict(
            omega=t.omega,
            gamma_conf=t.gamma_conf,
            m_peak=t.m_peak - 1,
            k_assigned=t.k_assigned,
            is_crystal=t.is_crystal,
            geometry=geometry,
        )
        for extra in (dict(init_slope=np.ones(t.n_modes)), dict(census_version=2)):
            np.savez_compressed(path, **columns, **extra)
            assert not modes.ModeTable.load(path).matches(reduced_params)
            table, from_cache = pipeline.load_or_solve_modes(reduced_params, tmp_path)
            assert not from_cache
            assert np.array_equal(table.m_peak, t.m_peak)
            assert modes.ModeTable.load(path).matches(reduced_params)
