"""Coupled rate equations for atom populations and cavity photon numbers.

State: n_e (one averaged upper-level population per atom frequency) and N_k
(one photon number per cavity mode). With W_nk = Omega_k * Gamma_k * L_nk and
the Lorentzian overlap L_nk = [1 + (omega_n - Omega_k)^2/gamma^2]^-1:

    dn_e/dt = -g_a * sum_k W_nk [(2 n_e - 1) N_k + n_e]
              - gamma_r (n_e - f_n) + Lambda_n (1 - n_e)
    dN_k/dt = +g_p * sum_n W_nk [(2 n_e - 1) N_k + n_e] - gamma_c N_k

g_p = N_j g_a exactly, which makes the interaction part of
sum_k N_k + N_j sum_n n_e a conserved quantity.

The tables hold W only as its range basis, W = Q B within RANGE_RTOL (Q
orthonormal, n_freqs x r), and every kernel couples through it: rhs and
affine_coefficients (rhs = a * y + b with a = a0 + a1 * s, b = b0 + b1 * s
and s = [Q (B N) ; (n Q) B]), the photon fixed point, and ShiftedLU, which
solves sigma*I - c*J for the Newton step of the steady solver (sigma = 0)
and the BDF iterations of the time stepper (sigma = 1) by eliminating the
photon block and factoring an r x r capacitance matrix (Woodbury).  The
row and column sums of W come from Q B too, so the conserved count is
exact for the matrix the kernels use.  build_tables finds Q and B without
a pass over the dense Lorentzian: L is analytic in the atom frequency, so
a Chebyshev interpolant L = P L_x with p nodes (108 for the 500-point
grid) reproduces it to rounding, and the range finder runs on that.  Dense
rows of W come from CouplingTables.w_rows alone, which exact_rhs calls
BLOCK_ROWS rows at a time to certify a steady state once.  Every kernel
goes through numpy's BLAS and LAPACK, whose results depend on the thread
count in the last bits: output is bit-reproducible only at a fixed thread
count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import atoms
from .params import PhysicalParams

RANGE_RTOL, RANGE_RANK, RANGE_PROBES, RANGE_SEED = 1e-13, 64, 10, 2011  # _range_basis
NODE_MARGIN = 15  # Chebyshev nodes beyond the Bernstein-ellipse count, see _core
BLOCK_ROWS = 64  # atom frequencies per block of W in exact_rhs
PROBE_ROWS = 1024  # modes per chunk of the range finder's probes


@dataclass
class CouplingTables:
    """Atom-mode coupling weights through their range basis, plus the bath
    functions.

    W = L diag(omega_modes * gamma_conf), shape (n_atom_freqs, n_modes), is
    kept as Q (n_freqs x r, orthonormal columns) and B (r x n_modes), built
    by build_tables from a Chebyshev interpolant of L in atom frequency with
    range_nodes nodes (0 when the grid is too small to gain from one, and
    the basis is found on L itself), with w_max = max W; w_rows evaluates
    rows of W itself.  Q, B, w_max and range_nodes depend only on the atom
    grid, the modes and params.dephasing_rate, so tables for params that
    differ in any other rate share them (dataclasses.replace with new
    params); a Q B that is not W for params.dephasing_rate is a ValueError.
    Every rate and coupling constant is read from params; fermi and pump
    (the equilibrium and pumping rates on the atom grid), W_colsum and a0,
    a1, b0, b1 (the packed rhs constants, see the module docstring) are
    derived from the other fields.
    """

    omega_atoms: np.ndarray
    omega_modes: np.ndarray
    gamma_conf: np.ndarray
    params: PhysicalParams
    Q: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    w_max: float
    range_nodes: int
    fermi: np.ndarray = field(init=False, repr=False)
    pump: np.ndarray = field(init=False, repr=False)
    W_colsum: np.ndarray = field(init=False, repr=False)
    a0: np.ndarray = field(init=False, repr=False)
    a1: np.ndarray = field(init=False, repr=False)
    b0: np.ndarray = field(init=False, repr=False)
    b1: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nf, nm, p = self.n_freqs, self.n_modes, self.params
        # Q B must be this dephasing_rate's W: one column, that of the largest
        # mode weight, is checked against the exact Lorentzian (W is not built)
        weights = self.omega_modes * self.gamma_conf
        k = int(np.argmax(weights))
        exact = weights[k] * _lorentzian(
            self.omega_atoms - self.omega_modes[k], p.dephasing_rate
        )
        err = float(np.abs(self.Q @ self.B[:, k] - exact).max())
        if not err <= 1e-10 * self.w_max:
            raise ValueError(
                f"range basis differs from W by {err:.3e} (w_max {self.w_max:.3e}); "
                f"it was built for another dephasing_rate than {p.dephasing_rate!r}"
            )
        self.fermi = atoms.fermi_dirac(self.omega_atoms, p.temperature)
        self.pump = atoms.pump_rate(self.omega_atoms, p)
        self.W_colsum = self.Q.sum(axis=0) @ self.B
        self.a0 = self.rate_constant(self.Q @ self.B.sum(axis=1), self.W_colsum)
        self.b0 = self.pack(p.relaxation_rate * self.fermi + self.pump, np.zeros(nm))
        self.b1 = self.pack(np.full(nf, p.g_atom), np.full(nm, p.g_photon))
        self.a1 = self.b1 * self.pack(np.full(nf, -2.0), np.full(nm, 2.0))

    @property
    def n_freqs(self) -> int:
        return self.omega_atoms.size

    @property
    def n_modes(self) -> int:
        return self.omega_modes.size

    def split(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return y[: self.n_freqs], y[self.n_freqs :]

    def pack(self, n_e: np.ndarray, photons: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(n_e, float), np.asarray(photons, float)])

    def rate_constant(self, rowsum: np.ndarray, colsum: np.ndarray) -> np.ndarray:
        """a0 for a coupling matrix with these row and column sums."""
        p = self.params
        return self.pack(
            -p.g_atom * rowsum - p.relaxation_rate - self.pump,
            -p.g_photon * colsum - p.photon_loss_rate,
        )

    def w_rows(self, rows: slice = slice(None)) -> np.ndarray:
        """W[rows]: _core's expression for L at these atoms, times the weights."""
        detuning = np.subtract.outer(self.omega_atoms[rows], self.omega_modes)
        W = _lorentzian(detuning, self.params.dephasing_rate)
        W *= self.omega_modes * self.gamma_conf
        return W

    @functools.cached_property
    def W(self) -> np.ndarray:
        """The dense W, built on first access; no kernel reads it."""
        return self.w_rows()


def _lorentzian(detuning: np.ndarray, dephasing_rate: float) -> np.ndarray:
    """L = 1 / (1 + (detuning / dephasing)^2), built in place on detuning:
    every L entry, whole-table or not, is this expression in this order."""
    detuning /= dephasing_rate
    np.square(detuning, out=detuning)
    detuning += 1.0
    return np.divide(1.0, detuning, out=detuning)


def _core(omega_atoms, omega_modes, dephasing_rate):
    """(P, L_x, p) with L = P L_x to rounding: L_x = L(x_j, Omega_k) at p
    Chebyshev nodes x_j spanning the ascending atom grid, and P the
    n_freqs x p barycentric interpolation matrix (Berrut & Trefethen, SIAM
    Rev. 46, 2004).

    L is analytic in the atom frequency with poles at Omega_k +- i gamma;
    the worst, mid-interval, sets the Bernstein ellipse
    rho = gamma/h + sqrt(1 + (gamma/h)^2), h the half-width, and the
    interpolation error falls as rho^-p (Trefethen, Approximation Theory and
    Approximation Practice, ch. 8), so p = log(1/eps) / log(rho) plus
    NODE_MARGIN.  When p is not below n_freqs, the nodes are the atoms
    themselves: P = I, L_x = L and p = 0.
    """
    n, lo, hi = omega_atoms.size, omega_atoms[0], omega_atoms[-1]
    half = 0.5 * (hi - lo)
    p = n
    if half > 0.0:
        ln_rho = np.arcsinh(dephasing_rate / half)
        p = int(np.ceil(-np.log(np.finfo(float).eps) / ln_rho)) + NODE_MARGIN
    if p >= n:
        P, x, p = np.eye(n), omega_atoms, 0
    else:
        # Chebyshev points of the second kind, ascending, with their barycentric weights
        x = lo + half * (1.0 - np.cos(np.pi * np.arange(p) / (p - 1)))
        w = np.where(np.arange(p) % 2, -1.0, 1.0)
        w[[0, -1]] *= 0.5
        diff = np.subtract.outer(omega_atoms, x)
        hit = diff == 0.0  # an atom on a node takes that node's value
        diff[hit] = 1.0
        P = w / diff
        P /= P.sum(axis=1, keepdims=True)
        on_node = hit.any(axis=1)
        P[on_node] = hit[on_node]
    return P, _lorentzian(np.subtract.outer(x, omega_modes), dephasing_rate), p


def _column_peaks(omega_atoms, omega_modes, dephasing_rate) -> np.ndarray:
    """max_n L_nk for each mode k, equal to the whole table's bit for bit:
    L falls away from Omega_k on either side, and rounding is monotone, so
    the peak is at one of the two atoms around Omega_k."""
    right = np.minimum(np.searchsorted(omega_atoms, omega_modes), omega_atoms.size - 1)
    left = np.maximum(right - 1, 0)
    return np.maximum(
        _lorentzian(omega_atoms[left] - omega_modes, dephasing_rate),
        _lorentzian(omega_atoms[right] - omega_modes, dephasing_rate),
    )


def _range_basis(omega_atoms, omega_modes, dephasing_rate, weights):
    """(Q, B, max W, p) with W = L diag(weights) = Q B within RANGE_RTOL and
    p the node count of _core's interpolant L = P L_x (0 for L itself).

    Q is orthonormal, from Halko, Martinsson & Tropp's seeded range finder
    (SIAM Rev. 53, 2011, Alg. 4.2) run on the interpolant of the unscaled
    Lorentzian, whose columns are all of order one, and
    B = (Q^T P) L_x diag(weights): the weakly confined modes (small
    weights) keep their relative accuracy.  Rank k doubles from RANGE_RANK
    until RANGE_PROBES fresh probes bound |L - Q Q^T L| by RANGE_RTOL |L|_F
    (eq. 4.3); once k + RANGE_PROBES exceeds L_x's rows, Q spans P's
    columns (Q = I, B = W when the core is L itself).  Each sketch
    P (L_x G) draws the probes G in chunks of PROBE_ROWS modes, so only
    L_x, B and one chunk of G are held: never W, and L only when it is
    the core itself.
    """
    P, Lx, nodes = _core(omega_atoms, omega_modes, dephasing_rate)
    rows, m = Lx.shape
    # |P L_x|_F^2 = <P^T P, L_x L_x^T>
    norm = np.sqrt(float(np.vdot(P.T @ P, Lx @ Lx.T)))
    tol = RANGE_RTOL * norm / (10.0 * np.sqrt(2.0 / np.pi))
    k, rng = RANGE_RANK, np.random.default_rng(RANGE_SEED)
    Y = np.empty((omega_atoms.size, 0))
    while k + RANGE_PROBES <= rows:  # each doubling reuses the probes drawn so far
        sketch = np.zeros((rows, k + RANGE_PROBES - Y.shape[1]))
        for start in range(0, m, PROBE_ROWS):
            cols = slice(start, min(start + PROBE_ROWS, m))
            sketch += Lx[:, cols] @ rng.standard_normal((cols.stop - start, sketch.shape[1]))
        Y = np.hstack([Y, P @ sketch])
        Q = np.linalg.qr(Y[:, :k])[0]
        if np.linalg.norm(Y[:, k:] - Q @ (Q.T @ Y[:, k:]), axis=0).max() <= tol:
            break
        k *= 2
    else:
        Q = np.linalg.qr(P)[0]
    B = (Q.T @ P) @ Lx
    B *= weights
    # rounding is monotone, so max_n fl(L_nk w_k) = fl(max_n L_nk w_k)
    peaks = _column_peaks(omega_atoms, omega_modes, dephasing_rate)
    return Q, B, float((peaks * weights).max()), nodes


def build_tables(
    omega_modes: np.ndarray,
    gamma_modes: np.ndarray,
    omega_atoms: np.ndarray,
    params: PhysicalParams,
) -> CouplingTables:
    """Lorentzian coupling tables through their range basis, on an
    ascending atom grid."""
    om_a = np.asarray(omega_atoms, dtype=float)
    om_m = np.asarray(omega_modes, dtype=float)
    gam = np.asarray(gamma_modes, dtype=float)
    if om_m.size == 0 or om_a.size == 0:
        raise ValueError("empty mode set or atom grid")
    if np.any(np.diff(om_a) < 0.0):
        raise ValueError("atom grid is not ascending")
    Q, B, w_max, nodes = _range_basis(om_a, om_m, params.dephasing_rate, om_m * gam)
    return CouplingTables(om_a, om_m, gam, params, Q, B, w_max, nodes)


def _coefficients(y: np.ndarray, tables: CouplingTables) -> tuple[np.ndarray, np.ndarray]:
    s, nf, Q, B = np.empty_like(tables.a0), tables.n_freqs, tables.Q, tables.B
    np.matmul(Q, B @ y[nf:], out=s[:nf])  # sum_k W_nk N_k
    np.matmul(y[:nf] @ Q, B, out=s[nf:])  # sum_n n_e W_nk
    return tables.a0 + tables.a1 * s, tables.b0 + tables.b1 * s


def rhs(y: np.ndarray, tables: CouplingTables) -> np.ndarray:
    """Time derivative of the packed state [n_e, N_k]."""
    if not np.all(np.isfinite(y)):
        raise FloatingPointError("non-finite state passed to rhs")
    a, b = _coefficients(y, tables)
    return a * y + b


def affine_coefficients(
    y: np.ndarray, tables: CouplingTables
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-variable split rhs = a * y + b at frozen cross terms.

    Each block of the rhs is affine in its own variable once the other block
    is held fixed, so the packed (a, b) reproduce the rhs exactly and a is
    the exact diagonal of the Jacobian.
    """
    return _coefficients(y, tables)


def exact_rhs(y: np.ndarray, tables: CouplingTables) -> np.ndarray:
    """rhs with the exact W and its exact row and column sums in place of
    the range basis Q B, built BLOCK_ROWS rows at a time by w_rows so that
    the dense W is never held: it certifies a state that the Q B kernels found."""
    nf = tables.n_freqs
    n, N = tables.split(y)
    s, rowsum, colsum = np.zeros_like(y), np.empty(nf), np.zeros(tables.n_modes)
    for start in range(0, nf, BLOCK_ROWS):
        rows = slice(start, min(start + BLOCK_ROWS, nf))
        W = tables.w_rows(rows)
        s[rows] = W @ N
        s[nf:] += n[rows] @ W
        rowsum[rows] = W.sum(axis=1)
        colsum += W.sum(axis=0)
        del W  # one block alive at a time
    a = tables.rate_constant(rowsum, colsum) + tables.a1 * s
    return a * y + tables.b0 + tables.b1 * s


def total_excitation(y: np.ndarray, tables: CouplingTables) -> float:
    """Conserved count sum_k N_k + N_j sum_n n_e (exact when loss-free)."""
    n, N = tables.split(y)
    return float(np.sum(N) + tables.params.atoms_per_site * np.sum(n))


def quasi_steady_photon(n_e: np.ndarray, tables: CouplingTables) -> np.ndarray:
    """Photon fixed point at frozen populations.

    N_k = g_p (n W)_k / (gamma_c + g_p ((1 - 2n) W)_k); the denominator
    must stay positive - otherwise stimulated gain beats the losses and that
    mode has no steady state at these populations.
    """
    g_p = tables.params.g_photon
    proj = (np.asarray(n_e, dtype=float) @ tables.Q) @ tables.B
    denom = tables.params.photon_loss_rate + g_p * (tables.W_colsum - 2.0 * proj)
    if np.any(denom <= 0.0):
        raise ValueError("non-positive denominator: inverted gain, no fixed point")
    return g_p * proj / denom


class ShiftedLU:
    """Factorization of M = sigma*I - c*J, J the Jacobian of rhs at y.

    J = diag(a) + [[0, diag(e) W], [diag(q) W^T, 0]], with a from
    affine_coefficients and (e, q) = a1 * y + b1.  M's photon block is the
    diagonal d = sigma - c*a_p; eliminating it (Golub & Van Loan, Matrix
    Computations, sec. 3.2) leaves, with W = Q B and C = B diag(g) B^T,
        S = diag(D_e) - diag(c e) Q C Q^T,  D_e = sigma - c*a_e,  g = c q / d,
    a diagonal plus rank r.  The Woodbury identity (Hager, SIAM Rev. 31,
    1989) solves S through the r x r capacitance matrix K = I - C Q^T U,
    U = diag(c e / D_e) Q, so S is never formed: K^-1 C is computed once,
    and a solve is z = rhs_e / D_e, x_e = z + U K^-1 C Q^T z.  Newton on
    rhs = 0 uses sigma = 0, c = -1 (M = J); a BDF iteration uses sigma = 1.
    """

    def __init__(
        self,
        y: np.ndarray,
        tables: CouplingTables,
        sigma: float,
        c: float,
        a: np.ndarray,
    ):
        nf = tables.n_freqs
        eq = tables.a1 * y + tables.b1
        self.Q, self.B = tables.Q, tables.B
        self.ce = c * eq[:nf]
        self.De = sigma - c * a[:nf]
        self.d = sigma - c * a[nf:]
        self.g = c * eq[nf:] / self.d
        self.U = self.Q * (self.ce / self.De)[:, None]
        C = (self.B * self.g) @ self.B.T
        self.KC = np.linalg.solve(np.eye(C.shape[0]) - C @ (self.Q.T @ self.U), C)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """x with M x = r."""
        nf, Q, B = self.ce.size, self.Q, self.B
        r_p = r[nf:] / self.d
        z = (r[:nf] + self.ce * (Q @ (B @ r_p))) / self.De
        x_e = z + self.U @ (self.KC @ (z @ Q))
        return np.concatenate([x_e, r_p + self.g * ((x_e @ Q) @ B)])
