"""Coupled rate equations for atom populations and cavity photon numbers.

State: n_e (one averaged upper-level population per atom frequency) and N_k
(one photon number per cavity mode). With W_nk = Omega_k * Gamma_k * L_nk and
the Lorentzian overlap L_nk = [1 + (omega_n - Omega_k)^2/gamma^2]^-1:

    dn_e/dt = -g_a * sum_k W_nk [(2 n_e - 1) N_k + n_e]
              - gamma_r (n_e - f_n) + Lambda_n (1 - n_e)
    dN_k/dt = +g_p * sum_n W_nk [(2 n_e - 1) N_k + n_e] - gamma_c N_k

g_p = N_j g_a exactly, which makes the interaction part of
sum_k N_k + N_j sum_n n_e a conserved quantity.

One kernel serves rhs and affine_coefficients: rhs = a * y + b with
a = a0 + a1 * s, b = b0 + b1 * s and s = [W N ; n W], two BLAS products.
One more kernel, ShiftedLU, factors sigma*I - c*J for the Newton step of
the steady solver (sigma = 0) and the BDF iterations of the time stepper
(sigma = 1) through the Schur complement of the photon block, with W
replaced by its range basis Q B; only that Newton matrix is approximate, so
residuals and error estimates still see the exact W.  Both kernels go
through BLAS and LAPACK, whose results depend on the thread count in the
last bits: output is bit-reproducible only at a fixed thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from . import atoms
from .params import PhysicalParams

RANGE_RTOL, RANGE_RANK, RANGE_PROBES, RANGE_SEED = 1e-13, 64, 10, 2011  # _range_basis


@dataclass
class CouplingTables:
    """Precomputed atom-mode coupling weights plus the bath functions.

    W has shape (n_atom_freqs, n_modes). fermi and pump are the
    equilibrium and pumping rates on the atom grid; rates and coupling
    constants are copied out of params so the rhs needs no other context.
    a0, a1, b0 and b1 (the packed rhs constants, see the module docstring)
    and the range basis Q, B = Q^T W are derived from the other fields.
    """

    omega_atoms: np.ndarray
    omega_modes: np.ndarray
    gamma_conf: np.ndarray
    W: np.ndarray
    W_colsum: np.ndarray = field(repr=False)
    fermi: np.ndarray = field(repr=False)
    pump: np.ndarray = field(repr=False)
    g_atom: float = 0.0
    g_photon: float = 0.0
    gamma_r: float = 0.0
    gamma_c: float = 0.0
    atoms_per_site: int = 1
    a0: np.ndarray = field(init=False, repr=False)
    a1: np.ndarray = field(init=False, repr=False)
    b0: np.ndarray = field(init=False, repr=False)
    b1: np.ndarray = field(init=False, repr=False)
    Q: np.ndarray = field(init=False, repr=False)
    B: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nf, nm = self.n_freqs, self.n_modes
        rowsum = np.einsum("nk->n", self.W, optimize=False)
        self.a0 = self.pack(
            -self.g_atom * rowsum - self.gamma_r - self.pump,
            -self.g_photon * self.W_colsum - self.gamma_c,
        )
        self.b0 = self.pack(self.gamma_r * self.fermi + self.pump, np.zeros(nm))
        self.b1 = self.pack(np.full(nf, self.g_atom), np.full(nm, self.g_photon))
        self.a1 = self.b1 * self.pack(np.full(nf, -2.0), np.full(nm, 2.0))
        self.Q, self.B = _range_basis(self.W)

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


def _range_basis(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, Q^T W), Q orthonormal, by Halko, Martinsson & Tropp's seeded range
    finder (SIAM Rev. 53, 2011, Alg. 4.2): rank k doubles from RANGE_RANK until
    RANGE_PROBES fresh probes bound |W - Q Q^T W| by RANGE_RTOL |W|_F (eq. 4.3);
    once k + RANGE_PROBES exceeds n_freqs, the exact Q = I, B = W."""
    n, k, rng = W.shape[0], RANGE_RANK, np.random.default_rng(RANGE_SEED)
    tol = RANGE_RTOL * np.linalg.norm(W) / (10.0 * np.sqrt(2.0 / np.pi))
    Y = np.empty((n, 0))
    while k + RANGE_PROBES <= n:  # each doubling reuses the probes drawn so far
        probes = rng.standard_normal((W.shape[1], k + RANGE_PROBES - Y.shape[1]))
        Y = np.hstack([Y, W @ probes])
        Q = np.linalg.qr(Y[:, :k])[0]
        if np.linalg.norm(Y[:, k:] - Q @ (Q.T @ Y[:, k:]), axis=0).max() <= tol:
            return Q, Q.T @ W
        k *= 2
    return np.eye(n), W


def build_tables(
    omega_modes: np.ndarray,
    gamma_modes: np.ndarray,
    omega_atoms: np.ndarray,
    params: PhysicalParams,
) -> CouplingTables:
    """Dense Lorentzian overlap tables."""
    om_a = np.asarray(omega_atoms, dtype=float)
    om_m = np.asarray(omega_modes, dtype=float)
    gam = np.asarray(gamma_modes, dtype=float)
    if om_m.size == 0 or om_a.size == 0:
        raise ValueError("empty mode set or atom grid")

    # W = (om_m * gam) / (1 + ((om_a - om_m) / dephasing)^2), built in place
    W = np.subtract.outer(om_a, om_m)
    W /= params.dephasing_rate
    np.square(W, out=W)
    W += 1.0
    np.divide(1.0, W, out=W)
    W *= om_m * gam
    return CouplingTables(
        omega_atoms=om_a,
        omega_modes=om_m,
        gamma_conf=gam,
        W=W,
        W_colsum=np.einsum("nk->k", W, optimize=False),
        fermi=atoms.fermi_dirac(om_a, params.temperature),
        pump=atoms.pump_rate(om_a, params.temperature, params),
        g_atom=params.g_atom,
        g_photon=params.g_photon,
        gamma_r=params.relaxation_rate,
        gamma_c=params.photon_loss_rate,
        atoms_per_site=params.atoms_per_site,
    )


def _coefficients(y: np.ndarray, tables: CouplingTables) -> tuple[np.ndarray, np.ndarray]:
    s, nf = np.empty_like(tables.a0), tables.n_freqs
    np.matmul(tables.W, y[nf:], out=s[:nf])  # sum_k W_nk N_k
    np.matmul(y[:nf], tables.W, out=s[nf:])  # sum_n n_e W_nk
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


def total_excitation(y: np.ndarray, tables: CouplingTables) -> float:
    """Conserved count sum_k N_k + N_j sum_n n_e (exact when loss-free)."""
    n, N = tables.split(y)
    return float(np.sum(N) + tables.atoms_per_site * np.sum(n))


def quasi_steady_photon(n_e: np.ndarray, tables: CouplingTables) -> np.ndarray:
    """Photon fixed point at frozen populations.

    N_k = g_p (n W)_k / (gamma_c + g_p ((1 - 2n) W)_k); the denominator
    must stay positive - otherwise stimulated gain beats the losses and that
    mode has no steady state at these populations.
    """
    proj = np.asarray(n_e, dtype=float) @ tables.W
    denom = tables.gamma_c + tables.g_photon * (tables.W_colsum - 2.0 * proj)
    if np.any(denom <= 0.0):
        raise ValueError("non-positive denominator: inverted gain, no fixed point")
    return tables.g_photon * proj / denom


class ShiftedLU:
    """LU factorization of M = sigma*I - c*J, J the Jacobian of rhs at y.

    J = diag(a) + [[0, diag(e) W], [diag(q) W^T, 0]], with a from
    affine_coefficients and (e, q) = a1 * y + b1.  M's photon block is the
    diagonal d = sigma - c*a_p, so eliminating it leaves the dense
    n_freqs x n_freqs Schur complement
        S = diag(sigma - c*a_e) - diag(c e) W diag(g) W^T,  g = c q / d
    (Golub & Van Loan, Matrix Computations, sec. 3.2), factored once by
    LAPACK with W replaced by the tables' range basis Q B, within RANGE_RTOL:
    W diag(g) W^T becomes Q (B diag(g) B^T) Q^T, and each solve is four thin
    gemv calls and one triangular pair.  Callers check every step against
    the exact rhs, so the basis sets how fast Newton and BDF converge, not
    where they converge to.  Newton on rhs = 0 uses sigma = 0, c = -1
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
