"""Independent checks of photherm outputs.

Everything here is computed from the model equations and the resolved
parameters, with numpy and scipy only: no photherm function is called. The
benchmark runs these checks on every operation, outside the timed interval.

Each check returns a list of problem strings; an empty list means the
operation's outputs are correct.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

# The model fixes c at 3e8 m/s (its closed-form censuses are calibrated
# against the rounded value). The other constants are the CODATA 2018 values.
C = 3.0e8
HBAR = 1.054571817e-34
BOLTZMANN = 1.380649e-23
EPS0 = 8.8541878128e-12

# A listed frequency counts as a root when a Newton step on the boundary
# defect moves it by less than this share of itself (the census refines to
# 1e-12).
ROOT_RTOL = 1e-10
# Closed-form empty-cavity frequencies k*pi*c/L, relative.
EMPTY_RTOL = 1e-11
# Detector spectrum vs a direct Lorentzian sum, and blackbody vs Planck:
# both are the same arithmetic summed in another order, relative to the
# largest sample.
SPECTRUM_RTOL = 1e-11
# Dynamics vs the BDF reference: |y - y_ref| <= DYN_FACTOR * rtol * scale,
# scale = max(|y_ref|, DYN_FLOOR * max|column|). The reference itself runs
# at REF_RTOL, far below the tolerance under test.
DYN_FACTOR = 10.0
DYN_FLOOR = 1e-3
REF_RTOL = 1e-8
REF_ATOL = 1e-14


# --- CSV ----------------------------------------------------------------------


def read_table(path: str | Path) -> dict[str, np.ndarray]:
    """Columns of a '#'-headed CSV: float where every cell parses, else str."""
    lines = [
        ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")
    ]
    names = lines[0].split(",")
    cells = list(zip(*(ln.split(",") for ln in lines[1:])))
    out = {}
    for name, col in zip(names, cells):
        try:
            out[name] = np.array([float(c) for c in col])
        except ValueError:
            out[name] = np.array(col)
    return out


def read_state(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(electron values, photon values, atom omegas, mode omegas) of a state file."""
    cols = read_table(path)
    e = cols["role"] == "electron"
    p = cols["role"] == "photon"
    return cols["value"][e], cols["value"][p], cols["omega"][e], cols["omega"][p]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --- census -------------------------------------------------------------------


def _geometry(params: dict) -> tuple[np.ndarray, float, float]:
    planes = params["plane_spacing"] * np.arange(1, params["n_planes"] + 1)
    return planes, float(params["cavity_length"]), float(params["plane_strength"])


def boundary_defect(omega: np.ndarray, params: dict) -> tuple[np.ndarray, np.ndarray]:
    """Normalized u(L) and its derivative in q, shooting u(0)=0, u'(0)/q=1.

    Free flight over d rotates (u, w=u'/q) by q*d; a plane shears
    w -> w - q*eta*u. The q-derivatives ride along, and the pair is
    renormalized after every plane so deep gap modes cannot overflow.
    """
    planes, length, eta = _geometry(params)
    q = np.asarray(omega, dtype=float) / C
    u, w = np.zeros_like(q), np.ones_like(q)
    du, dw = np.zeros_like(q), np.zeros_like(q)
    edges = np.concatenate([[0.0], planes, [length]])
    for i in range(edges.size - 1):
        d = edges[i + 1] - edges[i]
        cp, sp = np.cos(q * d), np.sin(q * d)
        u, w, du, dw = (
            u * cp + w * sp,
            -u * sp + w * cp,
            du * cp + dw * sp + d * (-u * sp + w * cp),
            -du * sp + dw * cp - d * (u * cp + w * sp),
        )
        if i < planes.size:
            dw = dw - eta * u - q * eta * du
            w = w - q * eta * u
            r = np.hypot(u, w)
            u, w, du, dw = u / r, w / r, du / r, dw / r
    r = np.hypot(u, w)
    defect = u / r
    ddefect = (du * w * w - u * w * dw) / r**3
    return defect, ddefect


def sturm_count(omega: float, params: dict) -> int:
    """Zeros of the shot field u on (0, L] at omega, region by region.

    On a free region u = R sin(theta0 + q s) with theta0 = atan2(u0, w0)
    folded into [0, pi); its zeros on (0, d] number floor((theta0 + q d)/pi).
    By the oscillation theorem this equals the number of Dirichlet
    eigenfrequencies in (0, omega].
    """
    planes, length, eta = _geometry(params)
    q = omega / C
    u, w = 0.0, 1.0
    edges = np.concatenate([[0.0], planes, [length]])
    zeros = 0
    for i in range(edges.size - 1):
        d = edges[i + 1] - edges[i]
        theta0 = math.atan2(u, w) % math.pi
        zeros += math.floor((theta0 + q * d) / math.pi)
        cp, sp = math.cos(q * d), math.sin(q * d)
        u, w = u * cp + w * sp, -u * sp + w * cp
        if i < planes.size:
            w -= q * eta * u
            r = math.hypot(u, w)
            u, w = u / r, w / r
    return zeros


def check_census(omega: np.ndarray, params: dict) -> list[str]:
    problems = []
    if omega.size == 0:
        return ["census is empty"]
    steps = np.diff(omega)
    if np.any(steps <= 0.0):
        bad = omega[1:][steps <= 0.0]
        problems.append(
            f"frequencies not strictly increasing at {bad.size} places, "
            f"first {bad[0]:.10e}"
        )
    if omega[-1] > params["omega_max"] or omega[0] <= 0.0:
        problems.append("frequency outside (0, omega_max]")
    defect, ddefect = boundary_defect(omega, params)
    q = omega / C
    newton = np.abs(defect / ddefect)
    not_root = ~(newton <= ROOT_RTOL * q)
    if np.any(not_root):
        problems.append(
            f"{int(not_root.sum())} listed frequencies are not roots, "
            f"first {omega[not_root][0]:.10e}"
        )
    expected = sturm_count(float(params["omega_max"]), params)
    if omega.size != expected:
        problems.append(f"{omega.size} modes listed, oscillation count gives {expected}")
    if params["plane_strength"] == 0.0:
        k = np.arange(1, omega.size + 1)
        exact = k * math.pi * C / params["cavity_length"]
        err = float(np.max(np.abs(omega / exact - 1.0)))
        if err > EMPTY_RTOL:
            problems.append(f"empty cavity: max relative error {err:.2e} vs k*pi*c/L")
    return problems


# --- kinetics -----------------------------------------------------------------


class RateModel:
    """The rate equations of the model, assembled from parameters and modes.

    dn/dt = -g_a [(2n-1) W N + n W 1] - gamma_r (n - f) + Lambda (1 - n)
    dN/dt =  g_p [N W^T(2n-1) + W^T n] - gamma_c N
    with W_nk = Omega_k Gamma_k / (1 + ((omega_n - Omega_k)/gamma)^2).
    """

    def __init__(self, params: dict, omega_modes: np.ndarray, gamma_conf: np.ndarray):
        n_f = int(params["n_atom_freqs"])
        self.omega_atoms = params["omega_max"] / (n_f + 1) * np.arange(1, n_f + 1)
        self.omega_modes = np.asarray(omega_modes, dtype=float)
        detune = (self.omega_atoms[:, None] - self.omega_modes[None, :]) / params[
            "dephasing_rate"
        ]
        self.W = (self.omega_modes * gamma_conf)[None, :] / (1.0 + detune**2)
        self.row = self.W.sum(axis=1)
        kT = BOLTZMANN * params["temperature"]
        self.fermi = 1.0 / (1.0 + np.exp(HBAR * self.omega_atoms / kT))
        self.pump = params["pump_amplitude"] * np.exp(
            HBAR * (params["pump_center"] - self.omega_atoms) / kT
        )
        self.g_p = (
            2.0
            * params["dipole_moment"] ** 2
            * params["atom_density"]
            / (HBAR * EPS0 * params["dephasing_rate"])
        )
        self.g_a = self.g_p / params["atoms_per_site"]
        self.gamma_r = float(params["relaxation_rate"])
        self.gamma_c = float(params["photon_loss_rate"])
        self.n_f = n_f

    def rhs(self, y: np.ndarray) -> np.ndarray:
        n, N = y[: self.n_f], y[self.n_f :]
        dn = (
            -self.g_a * ((2.0 * n - 1.0) * (self.W @ N) + n * self.row)
            - self.gamma_r * (n - self.fermi)
            + self.pump * (1.0 - n)
        )
        dN = self.g_p * (N * (self.W.T @ (2.0 * n - 1.0)) + self.W.T @ n) - self.gamma_c * N
        return np.concatenate([dn, dN])

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        n, N = y[: self.n_f], y[self.n_f :]
        n_f = self.n_f
        J = np.empty((y.size, y.size))
        J[:n_f, n_f:] = -self.g_a * (2.0 * n - 1.0)[:, None] * self.W
        J[n_f:, :n_f] = self.g_p * (self.W * (2.0 * N + 1.0)[None, :]).T
        J[:n_f, :n_f] = np.diag(
            -self.g_a * (2.0 * (self.W @ N) + self.row) - self.gamma_r - self.pump
        )
        J[n_f:, n_f:] = np.diag(self.g_p * (self.W.T @ (2.0 * n - 1.0)) - self.gamma_c)
        return J

    def scaled_residual(self, y: np.ndarray) -> float:
        """||rhs|| / (||y|| * fastest rate): the measure `tol` bounds."""
        rate = max(self.gamma_r, self.gamma_c, self.g_p * float(self.W.max()))
        return float(np.linalg.norm(self.rhs(y)) / (np.linalg.norm(y) * rate))


def check_simplex(n_e: np.ndarray, photons: np.ndarray) -> list[str]:
    problems = []
    if not (np.all(np.isfinite(n_e)) and np.all(np.isfinite(photons))):
        problems.append("non-finite state entries")
    if np.any(n_e < 0.0) or np.any(n_e > 1.0):
        problems.append(f"electron occupation outside [0, 1]: [{n_e.min()}, {n_e.max()}]")
    if np.any(photons < 0.0):
        problems.append(f"negative photon number {photons.min()}")
    return problems


def check_steady(out_dir: Path, params: dict, tol: float) -> list[str]:
    n_e, photons, om_a, om_m = read_state(out_dir / "steady-state.csv")
    modes_csv = read_table(out_dir / "steady-modes.csv")
    model = RateModel(params, modes_csv["omega"], modes_csv["gamma_conf"])
    problems = check_simplex(n_e, photons)
    if not np.allclose(om_a, model.omega_atoms, rtol=1e-15, atol=0.0):
        problems.append("state file atom grid differs from omega_max/(N+1) * n")
    if not same_bits(om_m, modes_csv["omega"]):
        problems.append("state file mode frequencies differ from steady-modes.csv")
    res = model.scaled_residual(np.concatenate([n_e, photons]))
    if not res < tol:
        problems.append(f"rate-equation residual {res:.3e} >= tol {tol:.1e}")
    return problems


# --- spectra ------------------------------------------------------------------


def check_spectrum(out_dir: Path, state_dir: Path, params: dict, blackbody: bool) -> list[str]:
    """Spectra in out_dir against the steady state in state_dir."""
    problems = []
    _, photons, _, _ = read_state(state_dir / "steady-state.csv")
    modes_csv = read_table(state_dir / "steady-modes.csv")
    spec = read_table(out_dir / "spectrum.csv")
    n_s = spec["omega"].size
    samples = np.linspace(params["omega_max"] / n_s, params["omega_max"], n_s)
    if not np.allclose(spec["omega"], samples, rtol=1e-15, atol=0.0):
        problems.append("spectrum samples are not the uniform grid over (0, omega_max]")
    weight = modes_csv["omega"] * photons * (1.0 - modes_csv["gamma_conf"])
    gamma_d = params["detector_width"]
    direct = np.array(
        [np.sum(weight / (1.0 + ((s - modes_csv["omega"]) / gamma_d) ** 2)) for s in samples]
    )
    err = float(np.max(np.abs(spec["value"] - direct)) / np.max(np.abs(direct)))
    if err > SPECTRUM_RTOL:
        problems.append(f"detector spectrum differs from the Lorentzian sum by {err:.2e}")
    if blackbody:
        bb = read_table(out_dir / "spectrum-blackbody.csv")
        planck = samples / np.expm1(HBAR * samples / (BOLTZMANN * params["temperature"]))
        err = float(np.max(np.abs(bb["value"] / planck - 1.0)))
        if err > SPECTRUM_RTOL:
            problems.append(f"blackbody differs from the Planck formula by {err:.2e}")
        ratio = read_table(out_dir / "spectrum-ratio.csv")
        err = float(np.max(np.abs(ratio["value"] * planck / direct - 1.0)))
        if err > SPECTRUM_RTOL * 10:
            problems.append(f"spectrum ratio differs from the direct quotient by {err:.2e}")
    return problems


# --- dynamics -----------------------------------------------------------------


def reference_trajectory(model: RateModel, times: np.ndarray) -> np.ndarray:
    """States at `times` from scipy BDF with the analytic Jacobian, from the dark state."""
    y0 = np.zeros(model.n_f + model.omega_modes.size)
    sol = solve_ivp(
        lambda t, y: model.rhs(y),
        (0.0, float(times[-1])),
        y0,
        method="BDF",
        t_eval=times,
        jac=lambda t, y: model.jacobian(y),
        rtol=REF_RTOL,
        atol=REF_ATOL,
    )
    if not sol.success:
        raise RuntimeError(f"BDF reference failed: {sol.message}")
    return sol.y.T


def _within(values: np.ndarray, ref: np.ndarray, rtol: float) -> float:
    """Worst |values - ref| / (DYN_FACTOR * rtol * scale), <= 1 passes."""
    scale = np.maximum(np.abs(ref), DYN_FLOOR * float(np.max(np.abs(ref))))
    scale = np.where(scale > 0.0, scale, 1.0)
    return float(np.max(np.abs(values - ref) / (DYN_FACTOR * rtol * scale)))


def check_dynamics(
    out_dir: Path, model: RateModel, reference: np.ndarray, rtol: float
) -> list[str]:
    problems = []
    n_e, photons, _, om_m = read_state(out_dir / "dynamics-state.csv")
    problems += check_simplex(n_e, photons)
    if not same_bits(om_m, model.omega_modes):
        problems.append("state file mode frequencies differ from the census")
    worst = _within(np.concatenate([n_e, photons]), reference[-1], rtol)
    if worst > 1.0:
        problems.append(f"final state off the BDF reference by {worst:.2f}x tolerance")
    dyn = read_table(out_dir / "dynamics.csv")
    for name, column in dyn.items():
        if name == "t":
            continue
        kind, _, label = name.partition("@")
        target = float(label)
        if kind == "N":
            idx = int(np.argmin(np.abs(model.omega_modes - target)))
            ref = reference[:, model.n_f + idx]
            if np.any(column < 0.0):
                problems.append(f"{name}: negative photon number")
        else:
            idx = int(np.argmin(np.abs(model.omega_atoms - target)))
            ref = reference[:, idx]
            if np.any(column < 0.0) or np.any(column > 1.0):
                problems.append(f"{name}: occupation outside [0, 1]")
        worst = _within(column, ref, rtol)
        if worst > 1.0:
            problems.append(f"{name}: off the BDF reference by {worst:.2f}x tolerance")
    return problems
