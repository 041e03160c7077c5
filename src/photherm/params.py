"""Model parameters: geometry, rates, grids, presets, serialization.

All quantities are SI. A `PhysicalParams` instance describes one full problem
setup; named presets provide the four standard operating points, and
`apply_scale` produces the shrunk variant used for fast runs (cavity length
divided by 10, atomic frequency grid cut to 100 points).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import ELEMENTARY_CHARGE, HBAR, VACUUM_PERMITTIVITY

# Default transition dipole moment: elementary charge times 1.3 nm.
DEFAULT_DIPOLE = ELEMENTARY_CHARGE * 1.3e-9

SCALES = ("full", "reduced")
# Python types a value may have, by the type named in a field's annotation.
FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


@dataclass(frozen=True)
class PhysicalParams:
    """Complete parameter set for one simulation.

    Geometry: a closed cavity [0, L] whose left end holds `n_planes`
    semitransparent planes spaced `plane_spacing` apart (plane i at
    z = i * plane_spacing), each of dimensionless strength
    `plane_strength` * (Omega/c); `plane_strength` carries units of meters.
    """

    # geometry
    cavity_length: float = 1.2e-2  # L [m]
    plane_spacing: float = 1.0e-5  # l_p [m]
    n_planes: int = 12
    plane_strength: float = 2.1e-5  # eta [m]

    # two-level atoms
    atom_density: float = 5.0e24  # n_atom [m^-3]
    atoms_per_site: int = 600  # N_j
    dipole_moment: float = DEFAULT_DIPOLE  # mu [C m]
    dephasing_rate: float = 1.0e14  # gamma [s^-1]
    relaxation_rate: float = 1.0e13  # gamma_r [s^-1]

    # pumping and losses
    pump_amplitude: float = 1.0e10  # Lambda_0 [s^-1]
    pump_center: float = 1.6e14  # omega_0 [rad/s]
    photon_loss_rate: float = 1.0e9  # gamma_c [s^-1]
    detector_width: float = 5.0e11  # gamma_d [rad/s]

    # environment
    temperature: float = 400.0  # T [K]

    # frequency grids
    omega_max: float = 5.0e14  # [rad/s]
    n_atom_freqs: int = 500  # N_omega

    # bookkeeping
    scale: str = "full"

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        positive = (
            "cavity_length",
            "plane_spacing",
            "dephasing_rate",
            "temperature",
            "omega_max",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # zero dipole moment or atom density decouples the atoms from the
        # field, a useful probe limit; zero rates turn individual channels off
        nonnegative = (
            "plane_strength",
            "atom_density",
            "dipole_moment",
            "relaxation_rate",
            "pump_amplitude",
            "photon_loss_rate",
            "detector_width",
        )
        for name in nonnegative:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.n_planes < 1 or self.atoms_per_site < 1 or self.n_atom_freqs < 1:
            raise ValueError("n_planes, atoms_per_site, n_atom_freqs must be >= 1")
        if self.crystal_length >= self.cavity_length:
            raise ValueError("plane stack must fit strictly inside the cavity")
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}")

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    @property
    def crystal_length(self) -> float:
        """Length of the plane stack, L_c = n_planes * plane_spacing."""
        return self.n_planes * self.plane_spacing

    @property
    def plane_positions(self) -> np.ndarray:
        return self.plane_spacing * np.arange(1, self.n_planes + 1)

    @property
    def g_photon(self) -> float:
        """Dimensionless photon-side coupling, 2 mu^2 n_atom / (hbar eps0 gamma)."""
        return (
            2.0
            * self.dipole_moment**2
            * self.atom_density
            / (HBAR * VACUUM_PERMITTIVITY * self.dephasing_rate)
        )

    @property
    def g_atom(self) -> float:
        """Electron-side coupling: g_photon / atoms_per_site.

        Equals 2 mu^2 n_V / (hbar eps0 gamma) with n_V = atom_density /
        atoms_per_site, the volume density associated with one site's atoms.
        The ratio g_photon = atoms_per_site * g_atom is what makes the total
        excitation count a conserved quantity when all loss/pump rates vanish.
        """
        return self.g_photon / self.atoms_per_site

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PhysicalParams":
        """Parameters from plain values, each checked against its field's type.

        Int fields take integers, float fields integers or floats (stored as
        float), and a bool is neither; any other value raises ValueError.
        """
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ValueError(f"unknown parameter(s): {sorted(unknown)}")
        values = {}
        for name, value in data.items():
            if isinstance(value, bool) or not isinstance(value, FIELD_TYPES[types[name]]):
                raise ValueError(f"{name} must be of type {types[name]}, got {value!r}")
            values[name] = float(value) if types[name] == "float" else value
        return cls(**values)

    def replace(self, **changes) -> "PhysicalParams":
        return dataclasses.replace(self, **changes)

    def digest(self) -> str:
        """Short stable hash of the full parameter set."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def census_geometry(self) -> tuple[float, ...]:
        """The quantities the eigenmode census depends on."""
        return (
            self.plane_strength,
            self.cavity_length,
            self.crystal_length,
            self.plane_spacing,
            self.omega_max,
        )

    def mode_cache_key(self) -> str:
        """Hash of the census geometry."""
        blob = json.dumps(self.census_geometry()).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


# ----------------------------------------------------------------------
# presets and scaling
# ----------------------------------------------------------------------

# each regime's change from the PhysicalParams defaults, which are eq-strong
PRESETS: dict[str, dict] = {
    # strong coupling, negligible photon loss
    "eq-strong": {},
    # coupling reduced to 1%
    "eq-weak": dict(atom_density=5e22),
    # strong coupling against strong photon loss
    "eq-lossy": dict(photon_loss_rate=5e12),
    # pumping comparable to thermal relaxation
    "noneq": dict(relaxation_rate=1e10),
}


def _preset_values(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


def preset(name: str, **overrides) -> PhysicalParams:
    """Build full-scale parameters for a named operating point."""
    return PhysicalParams.from_dict({**_preset_values(name), **overrides})


def apply_scale(params: PhysicalParams, scale: str) -> PhysicalParams:
    """Return `params` at the requested scale.

    "reduced" shrinks the cavity length by 10x and the atomic frequency grid
    to 100 points, leaving the plane stack untouched. Scaling is one-way: a
    reduced instance cannot be scaled back up (the full-scale values are no
    longer known).
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    if scale == params.scale:
        return params
    if params.scale == "reduced":
        raise ValueError("cannot rescale reduced parameters back to full")
    return params.replace(
        cavity_length=params.cavity_length / 10.0,
        n_atom_freqs=100,
        scale="reduced",
    )


def parse_override(text: str) -> tuple[str, object]:
    """Parse one 'name=value' override into the name and an int, float or
    string value, the first that reads; `PhysicalParams.from_dict` checks it
    against the field's type."""
    if "=" not in text:
        raise ValueError(f"override {text!r} is not of the form name=value")
    name, raw = (part.strip() for part in text.split("=", 1))
    for parse in (int, float):
        try:
            return name, parse(raw)
        except ValueError:
            pass
    return name, raw


def build_params(
    config_path: str | Path | None = None,
    preset_name: str | None = None,
    overrides: list[str] | None = None,
    scale: str = "full",
) -> PhysicalParams:
    """Assemble parameters from preset, config file, and overrides (in that
    order of increasing precedence), then apply the scale, which only the
    `scale` argument sets: a `scale` key in the config or the overrides
    raises ValueError."""
    base: dict = {}
    if preset_name is not None:
        base.update(_preset_values(preset_name))
    if config_path is not None:
        file_data = json.loads(Path(config_path).read_text())
        if not isinstance(file_data, dict):
            raise ValueError("config file must hold a JSON object")
        base.update(file_data)
    base.update(parse_override(text) for text in overrides or ())
    if "scale" in base:
        raise ValueError("scale is not a --config or --param key; use --scale")
    params = PhysicalParams.from_dict(base)
    return apply_scale(params, scale)
