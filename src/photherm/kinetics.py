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
factors sigma*I - c*J for the Newton step of the steady solver (sigma = 0)
and the BDF iterations of the time stepper (sigma = 1) through the Schur
complement of the photon block.  The row and column sums of W come from
Q B too, so the conserved count is exact for the matrix the kernels use.
The dense W is never held by a kernel: exact_rhs streams it in row blocks
to certify a steady state once.  Every kernel goes through BLAS and
LAPACK, whose results depend on the thread count in the last bits: output
is bit-reproducible only at a fixed thread count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from . import atoms
from .params import PhysicalParams

RANGE_RTOL, RANGE_RANK, RANGE_PROBES, RANGE_SEED = 1e-13, 64, 10, 2011  # _range_basis
BLOCK_ROWS = 64  # atom frequencies per row block of L or W


@dataclass
class CouplingTables:
    """Atom-mode coupling weights through their range basis, plus the bath
    functions.

    W = L diag(omega_modes * gamma_conf), shape (n_atom_freqs, n_modes), is
    kept as Q (n_freqs x r, orthonormal columns) and B (r x n_modes), built
    by build_tables, with w_max = max W.  Q, B and w_max depend only on the
    atom grid, the modes and params.dephasing_rate, so tables for params
    that differ in any other rate share them (dataclasses.replace with new
    params); a Q B that is not W for params.dephasing_rate is a ValueError.
    Every rate and coupling constant is read from params; fermi
    and pump (the equilibrium and pumping rates on the atom grid), W_colsum
    and a0, a1, b0, b1 (the packed rhs constants, see the module docstring)
    are derived from the other fields.
    """

    omega_atoms: np.ndarray
    omega_modes: np.ndarray
    gamma_conf: np.ndarray
    params: PhysicalParams
    Q: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    w_max: float
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
        exact = weights[k] / (
            1.0 + ((self.omega_atoms - self.omega_modes[k]) / p.dephasing_rate) ** 2
        )
        err = float(np.abs(self.Q @ self.B[:, k] - exact).max())
        if not err <= 1e-10 * self.w_max:
            raise ValueError(
                f"range basis differs from W by {err:.3e} (w_max {self.w_max:.3e}); "
                f"it was built for another dephasing_rate than {p.dephasing_rate!r}"
            )
        self.fermi = atoms.fermi_dirac(self.omega_atoms, p.temperature)
        self.pump = atoms.pump_rate(self.omega_atoms, p.temperature, p)
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

    def row_blocks(self):
        """(rows, W[rows]) over blocks of BLOCK_ROWS atom frequencies, each
        valid until the next is drawn."""
        return _row_blocks(
            self.omega_atoms,
            self.omega_modes,
            self.params.dephasing_rate,
            self.omega_modes * self.gamma_conf,
        )

    @functools.cached_property
    def W(self) -> np.ndarray:
        """The dense W, assembled from row_blocks on first access; no kernel
        reads it."""
        return _assemble(self.row_blocks(), (self.n_freqs, self.n_modes))


def _row_blocks(omega_atoms, omega_modes, dephasing_rate, weights=None):
    """(rows, L[rows]) over blocks of BLOCK_ROWS atom frequencies, or
    (rows, W[rows]) with W = L diag(weights) when weights are given; every
    entry is the one a whole-table build computes.  All blocks share one
    buffer, so a block is valid only until the next one is drawn."""
    n = omega_atoms.size
    buf = np.empty((min(BLOCK_ROWS, n), omega_modes.size))
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, min(start + BLOCK_ROWS, n))
        block = buf[: rows.stop - start]
        # L = 1 / (1 + ((om_a - om_m) / dephasing)^2), built in place
        np.subtract.outer(omega_atoms[rows], omega_modes, out=block)
        block /= dephasing_rate
        np.square(block, out=block)
        block += 1.0
        np.divide(1.0, block, out=block)
        if weights is not None:
            block *= weights
        yield rows, block


def _assemble(blocks, shape: tuple[int, int]) -> np.ndarray:
    out = np.empty(shape)
    for rows, block in blocks:
        out[rows] = block
    return out


def _sketch(blocks, n: int, probes: np.ndarray) -> tuple[np.ndarray, float]:
    """(L @ probes, |L|_F^2) in one pass over the row blocks of L's n rows."""
    out, sq = np.empty((n, probes.shape[1])), 0.0
    for rows, L in blocks:
        np.matmul(L, probes, out=out[rows])
        sq += float(np.vdot(L, L))
    return out, sq


def _range_basis(omega_atoms, omega_modes, dephasing_rate, weights):
    """(Q, B, max W) with W = L diag(weights) = Q B within RANGE_RTOL.

    Q is orthonormal, from Halko, Martinsson & Tropp's seeded range finder
    (SIAM Rev. 53, 2011, Alg. 4.2) run on the unscaled Lorentzian L, whose
    columns are all of order one, and B = (Q^T L) diag(weights): the weakly
    confined modes (small weights) keep their relative accuracy.  Rank k
    doubles from RANGE_RANK until RANGE_PROBES fresh probes bound
    |L - Q Q^T L| by RANGE_RTOL |L|_F (eq. 4.3); once k + RANGE_PROBES
    exceeds n_freqs, the exact Q = I, B = W.  L is streamed in row blocks,
    one pass per sketch and one for B, so neither L nor W is held whole.
    """
    n, m = omega_atoms.size, omega_modes.size
    blocks = functools.partial(_row_blocks, omega_atoms, omega_modes, dephasing_rate)
    k, rng = RANGE_RANK, np.random.default_rng(RANGE_SEED)
    Y = np.empty((n, 0))
    while k + RANGE_PROBES <= n:  # each doubling reuses the probes drawn so far
        # the probes and the block buffer are freed before the pass for B
        draws = (m, k + RANGE_PROBES - Y.shape[1])
        sketch, sq = _sketch(blocks(), n, rng.standard_normal(draws))
        Y = np.hstack([Y, sketch])
        Q = np.linalg.qr(Y[:, :k])[0]
        tol = RANGE_RTOL * np.sqrt(sq) / (10.0 * np.sqrt(2.0 / np.pi))
        if np.linalg.norm(Y[:, k:] - Q @ (Q.T @ Y[:, k:]), axis=0).max() <= tol:
            B, colmax = np.zeros((k, m)), np.zeros(m)
            for rows, L in blocks():
                B += Q[rows].T @ L
                np.maximum(colmax, L.max(axis=0), out=colmax)
            B *= weights
            # rounding is monotone, so max_n fl(L_nk w_k) = fl(max_n L_nk w_k)
            return Q, B, float((colmax * weights).max())
        k *= 2
    W = _assemble(blocks(weights), (n, m))
    return np.eye(n), W, float(W.max())


def build_tables(
    omega_modes: np.ndarray,
    gamma_modes: np.ndarray,
    omega_atoms: np.ndarray,
    params: PhysicalParams,
) -> CouplingTables:
    """Lorentzian coupling tables through their range basis."""
    om_a = np.asarray(omega_atoms, dtype=float)
    om_m = np.asarray(omega_modes, dtype=float)
    gam = np.asarray(gamma_modes, dtype=float)
    if om_m.size == 0 or om_a.size == 0:
        raise ValueError("empty mode set or atom grid")
    Q, B, w_max = _range_basis(om_a, om_m, params.dephasing_rate, om_m * gam)
    return CouplingTables(om_a, om_m, gam, params, Q, B, w_max)


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
    the range basis Q B, streamed in row blocks so that the dense W is never
    held: it certifies a state that the Q B kernels found."""
    nf = tables.n_freqs
    n, N = tables.split(y)
    s, rowsum, colsum = np.zeros_like(y), np.empty(nf), np.zeros(tables.n_modes)
    for rows, W in tables.row_blocks():
        s[rows] = W @ N
        s[nf:] += n[rows] @ W
        rowsum[rows] = W.sum(axis=1)
        colsum += W.sum(axis=0)
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
    """LU factorization of M = sigma*I - c*J, J the Jacobian of rhs at y.

    J = diag(a) + [[0, diag(e) W], [diag(q) W^T, 0]], with a from
    affine_coefficients and (e, q) = a1 * y + b1.  M's photon block is the
    diagonal d = sigma - c*a_p, so eliminating it leaves the dense
    n_freqs x n_freqs Schur complement
        S = diag(sigma - c*a_e) - diag(c e) W diag(g) W^T,  g = c q / d
    (Golub & Van Loan, Matrix Computations, sec. 3.2), factored once by
    LAPACK with W = Q B, the coupling every kernel uses: W diag(g) W^T
    becomes Q (B diag(g) B^T) Q^T, and each solve is four thin gemv calls
    and one triangular pair.  Newton on rhs = 0 uses sigma = 0, c = -1
    (M = J); a BDF iteration uses sigma = 1.
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
        self.d = sigma - c * a[nf:]
        self.g = c * eq[nf:] / self.d
        schur = (self.B * self.g) @ self.B.T
        if self.Q.shape[1] < nf:
            schur = self.Q @ schur @ self.Q.T
        schur *= -self.ce[:, None]
        schur[np.diag_indices(nf)] += sigma - c * a[:nf]
        self.lu = lu_factor(schur, overwrite_a=True, check_finite=False)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """x with M x = r."""
        nf, Q, B = self.ce.size, self.Q, self.B
        r_p = r[nf:] / self.d
        x_e = lu_solve(self.lu, r[:nf] + self.ce * (Q @ (B @ r_p)), check_finite=False)
        return np.concatenate([x_e, r_p + self.g * ((x_e @ Q) @ B)])
