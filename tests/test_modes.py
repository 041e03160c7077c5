"""Mode solver checks against closed-form empty-cavity results.

With no planes the eigenproblem is u'' + q^2 u = 0, u(0) = u(L) = 0, whose
solutions are known exactly: Omega_n = n pi c / L, u_n = sqrt(2/L) sin(n pi
z/L), confinement L_c/L - sin(2 pi n L_c/L)/(2 pi n). Every solver path is
validated against these before the planes are switched on. With planes, the
closed-form normalization is checked against an independent reference that
propagates the field pair (u, w) itself.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photherm import bands, modes, pipeline
from photherm.constants import SPEED_OF_LIGHT as C
from photherm.params import PRESETS, PhysicalParams, apply_scale, preset

FULL_EMPTY_COUNT = 6366  # floor(omega_max L / (pi c)) at defaults
REDUCED_EMPTY_COUNT = 636
# relative offset from a root at which the oscillation count is well defined
EPS = 1e-12


@pytest.fixture(scope="module")
def empty_full():
    return PhysicalParams(plane_strength=0.0)


@pytest.fixture(scope="module")
def empty_roots(empty_full):
    return modes.scan_eigenfrequencies(empty_full)[0]


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
        assert modes.scan_eigenfrequencies(p)[0].size == REDUCED_EMPTY_COUNT

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

    @pytest.mark.parametrize("scale", ["full", "reduced"])
    def test_crystal_class_closed_form(self, empty_full, scale):
        # Gamma beats L_c/L iff sin(2 pi n L_c/L) < 0; where 2n L_c/L is an
        # integer Gamma equals L_c/L exactly and the mode is cavity class
        p = apply_scale(empty_full, scale)
        table = modes.solve_modes(p)
        x = 2.0 * np.arange(1, table.n_modes + 1) * p.crystal_length / p.cavity_length
        tie = np.abs(x - np.round(x)) < 1e-9
        assert np.count_nonzero(tie) == 127
        assert np.array_equal(table.is_crystal, (np.sin(math.pi * x) < 0.0) & ~tie)

    def test_phase_continuous_at_multiples_of_pi(self, empty_full):
        # Theta(L) = q L crosses n pi at the empty-cavity roots; points a few
        # ulps either side must read Theta - n pi near 0, never near +-pi
        n = np.arange(1, 400)
        root = n * math.pi * C / empty_full.cavity_length
        steps = np.arange(-8, 9) * np.finfo(float).eps
        om = (root[:, None] * (1.0 + steps)).ravel()
        m, rho, _ = modes._pruefer_phase(om / C, empty_full, empty_full.cavity_length)
        theta = (m - np.repeat(n, steps.size)) * math.pi + rho
        assert np.max(np.abs(theta)) < 1e-9

    def test_peak_count_tracks_wavelength(self, empty_full):
        # the k-th mode sin(k pi z / L) has its positive maxima at
        # k pi z / L = pi/2 + 2 pi j; with L_c/L = a/b those inside (0, L_c)
        # are the j >= 0 with b (1 + 4j) < 2 k a, counted in integers so that
        # a maximum exactly on L_c (b (1 + 4j) = 2 k a) is left out
        for scale in ("full", "reduced"):
            p = apply_scale(empty_full, scale)
            table = modes.solve_modes(p)
            ratio = Fraction(p.crystal_length / p.cavity_length).limit_denominator(1000)
            a, b = ratio.as_integer_ratio()
            k = np.arange(1, table.n_modes + 1)
            expected = (2 * k * a + 3 * b - 1) // (4 * b)
            assert np.count_nonzero(2 * k * a % (4 * b) == b) == 32
            assert np.array_equal(table.m_peak, expected), scale


class TestScanRange:
    def test_empty_below_fundamental(self):
        p = PhysicalParams()
        roots, passes = modes.scan_eigenfrequencies(
            p.replace(omega_max=0.99 * math.pi * C / (2.0 * p.cavity_length))
        )
        assert roots.size == 0 and passes == 0

    def test_one_point_scan_grid(self):
        # omega_max + step rounds to step: the grid holds omega_max alone
        roots, passes = modes.scan_eigenfrequencies(PhysicalParams(omega_max=1e-300))
        assert roots.size == 0 and passes == 0

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
        omega, _ = modes.scan_eigenfrequencies(p.replace(omega_max=omega_hi))
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
        om2, _ = modes.scan_eigenfrequencies(p2)
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
            math.pi / full_table.params.plane_spacing
        )

    @pytest.mark.parametrize("factor", [0.25, 1.0, 4.0])
    def test_peak_count_matches_dense_sampling(self, full_params, full_table, factor):
        p = full_params.replace(plane_strength=full_params.plane_strength * factor)
        table = full_table if factor == 1.0 else modes.solve_modes(p)
        assert np.array_equal(table.m_peak, sampled_peak_count(table.omega, p))

    @pytest.mark.parametrize("scale", ["full", "reduced"])
    @pytest.mark.parametrize("factor", [0.25, 1.0, 4.0])
    def test_bragg_modes_are_cavity_class(self, scale, factor):
        # at a Bragg frequency m pi c / l_p that is an eigenfrequency every
        # plane sits on a node of sin(q z), so Gamma is exactly L_c/L
        p = apply_scale(PhysicalParams(), scale)
        p = p.replace(plane_strength=factor * p.plane_strength)
        table = modes.solve_modes(p)
        period = math.pi * C / p.plane_spacing
        m = np.round(table.omega / period)
        bragg = (m > 0) & (np.abs(table.omega - m * period) < 1e-9 * table.omega)
        assert np.count_nonzero(bragg) == 5
        even = p.crystal_length / p.cavity_length
        assert np.all(np.abs(table.gamma_conf[bragg] / even - 1.0) < modes.CLASS_RTOL)
        assert not np.any(table.is_crystal[bragg])

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
    omega, _ = modes.scan_eigenfrequencies(p)
    k = np.arange(omega.size)
    assert np.all(np.diff(omega) > 0.0)
    assert np.array_equal(modes.count_below(omega * (1.0 - EPS), p), k)
    assert np.array_equal(modes.count_below(omega * (1.0 + EPS), p), k + 1)


@pytest.mark.parametrize("eta", [0.0, *np.logspace(-9, -3, 7)])
def test_sturm_spectrum_over_plane_strength(reduced_params, eta):
    """The Sturm invariants hold from the empty cavity to planes 50x the default."""
    p = reduced_params.replace(plane_strength=eta)
    omega, passes = modes.scan_eigenfrequencies(p)
    k = np.arange(omega.size)
    assert omega.size >= REDUCED_EMPTY_COUNT and passes > 0
    assert np.all(np.diff(omega) > 0.0)
    assert np.array_equal(modes.count_below(omega * (1.0 - EPS), p), k)
    assert np.array_equal(modes.count_below(omega * (1.0 + EPS), p), k + 1)


def bisection_passes(lo, hi, at_or_below):
    """Passes of plain bisection to the stop rule of modes.refine_roots."""
    lo, hi = lo.copy(), hi.copy()
    passes = 0
    while np.any(wide := hi - lo > modes.ROOT_RTOL * hi):
        mid = 0.5 * (lo + hi)
        below = wide & at_or_below(mid)
        hi[below], lo[wide & ~below] = mid[below], mid[wide & ~below]
        passes += 1
    return passes


def refine_random_brackets(shape, seed=7):
    """refine_roots on 300 random brackets of f(x, i) = shape(x, root_i), with
    the end values given and unknown. Checks the stop rule and returns the
    pass counts and the passes plain bisection takes."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.5, 1.5, 300)
    hi = lo + rng.uniform(1e-6, 2.0, lo.size)
    root = lo + rng.uniform(0.0, 1.0, lo.size) * (hi - lo)
    f = lambda x, i=slice(None): shape(x, root[i])
    # |found - root| <= ROOT_RTOL * hi / 2 for the final hi, which is at
    # most root / (1 - ROOT_RTOL)
    bound = 0.5 * modes.ROOT_RTOL * root / (1.0 - modes.ROOT_RTOL)
    passes = []
    for ends in [(f(lo), f(hi)), ()]:
        found, n = modes.refine_roots(lo, hi, f, *ends)
        assert np.all(np.abs(found - root) <= bound)
        passes.append(n)
    return passes, bisection_passes(lo, hi, lambda x: f(x) >= 0.0)


class TestRefineRoots:
    @pytest.mark.parametrize("width", [1e-14, 1e-10, 1e-6, 1e-2, 1.0])
    @pytest.mark.parametrize("cubic", [0.0, 1.0, 1e3])
    def test_steep_step_plus_cubic(self, width, cubic):
        """A tanh step of the given width on a cubic: across a narrow step the
        secant lands far off, and the safeguard must fall back on bisection."""
        passes, bisection = refine_random_brackets(
            lambda x, r: np.tanh((x - r) / width) + cubic * (x - r) ** 3
        )
        assert max(passes) <= 2 * bisection

    @pytest.mark.parametrize(
        "shape",
        [
            lambda x, r: np.tanh(x - r),
            lambda x, r: (x / r) ** 20 - 1.0,
            lambda x, r: np.expm1(30.0 * (x - r)),
        ],
    )
    def test_smooth_roots_take_fewer_passes_than_bisection(self, shape):
        """Simple roots of smooth functions, far from linear across the
        bracket: the secant converges superlinearly, and the margin closes
        the bracket once an iterate sits at the root."""
        passes, bisection = refine_random_brackets(shape, seed=11)
        assert max(passes) <= 0.75 * bisection

    def test_gap_edges_are_sign_changes(self):
        eta, l_p = 2.1e-5, 1e-5
        gaps, _ = bands.analytic_gaps(eta, l_p, 5e14)
        assert gaps.shape == (6, 2)
        excess = lambda om: np.abs(bands.dispersion_trace(om, eta, l_p)) - 1.0
        lower = gaps[:, 0]
        assert np.all(excess(lower * (1.0 - modes.ROOT_RTOL)) < 0.0)
        assert np.all(excess(lower * (1.0 + modes.ROOT_RTOL)) > 0.0)


class TestModeTable:
    def test_save_load_roundtrip(self, reduced_table, reduced_params, tmp_path):
        path = tmp_path / "table.npz"
        reduced_table.save(path)
        back = modes.ModeTable.load(path, reduced_params)
        assert np.array_equal(back.omega, reduced_table.omega)
        assert np.array_equal(back.gamma_conf, reduced_table.gamma_conf)
        assert np.array_equal(back.m_peak, reduced_table.m_peak)
        assert back.params.plane_strength == reduced_table.params.plane_strength
        assert back.params.n_planes == reduced_table.params.n_planes
        with np.load(path) as data:
            assert int(data["census_version"]) == modes.CENSUS_VERSION
            assert np.array_equal(data["geometry"], reduced_params.census_geometry())

    def test_load_checks_version_and_geometry(
        self, reduced_table, reduced_params, full_params, tmp_path
    ):
        path = tmp_path / "table.npz"
        reduced_table.save(path)
        assert modes.ModeTable.load(path, reduced_params) is not None
        assert modes.ModeTable.load(path, full_params) is None
        # parameters outside the census geometry do not matter
        hot = reduced_params.replace(temperature=650.0)
        assert modes.ModeTable.load(path, hot).params is hot
        with np.load(path) as data:
            columns = dict(data)
        columns["census_version"] = modes.CENSUS_VERSION - 1
        np.savez_compressed(path, **columns)
        assert modes.ModeTable.load(path, reduced_params) is None

    def test_old_layout_cache_is_solved_again(self, reduced_table, reduced_params, tmp_path):
        # censuses saved by earlier formats, each with a wrong m_peak standing
        # in for its stale values: unversioned with init_slope, version 2
        # with the derived k_assigned and is_crystal columns stored, version 3
        # with n_planes in its 6-entry geometry, and versions 4, 5 and 6,
        # whose roots came from bisection and from a phase that jumped by pi
        # within an ulp of its multiples, and whose peak count took in a
        # maximum on L_c, in today's layout
        path = tmp_path / "cache" / f"modes-{reduced_params.mode_cache_key()}.npz"
        path.parent.mkdir()
        t, p = reduced_table, reduced_params
        geometry = np.array(
            [
                p.plane_strength,
                p.cavity_length,
                p.crystal_length,
                p.plane_spacing,
                float(p.n_planes),
                p.omega_max,
            ]
        )
        columns = dict(
            omega=t.omega, gamma_conf=t.gamma_conf, m_peak=t.m_peak - 1, geometry=geometry
        )
        derived = dict(k_assigned=t.k_assigned, is_crystal=t.is_crystal)
        layouts = (
            dict(derived, init_slope=np.ones(t.n_modes)),
            dict(derived, census_version=2),
            dict(census_version=3),
            dict(census_version=4, geometry=p.census_geometry()),
            dict(census_version=5, geometry=p.census_geometry()),
            dict(census_version=6, geometry=p.census_geometry()),
        )
        for extra in layouts:
            np.savez_compressed(path, **{**columns, **extra})
            assert modes.ModeTable.load(path, p) is None
            table, from_cache = pipeline.load_or_solve_modes(p, tmp_path)
            assert not from_cache
            assert np.array_equal(table.m_peak, t.m_peak)
            assert modes.ModeTable.load(path, p) is not None
            table, from_cache = pipeline.load_or_solve_modes(p, tmp_path)
            assert from_cache
            assert np.array_equal(table.m_peak, t.m_peak)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_cache_file_names_are_stable(self, name):
        assert preset(name).mode_cache_key() == "5da066dc076a"
        assert apply_scale(preset(name), "reduced").mode_cache_key() == "305fb51ccf60"
