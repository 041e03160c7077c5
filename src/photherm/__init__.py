"""Quantum-controlled thermal emission in a one-dimensional photonic crystal.

A closed optical cavity containing a stack of thin dielectric planes forms
a photonic crystal whose band gaps reshape which cavity modes confine light.
Pumped two-level atoms distributed through the crystal exchange photons
with every mode through Lorentzian-broadened couplings.  This package
computes the exact eigenmode census of the layered cavity, the coupled
electron/photon occupation kinetics (time integration and direct
fixed-point solves), and the resulting emission spectra against the
one-dimensional blackbody reference.
"""

from ._version import __version__
from .atoms import bose_einstein, build_grid, fermi_dirac, pump_rate
from .bands import BandStructure, band_structure, in_gap_mask, representatives
from .integrate import Trajectory, detect_saturation, integrate, log_times
from .kinetics import CouplingTables, build_tables, quasi_steady_photon, rhs
from .modes import ModeTable, solve_modes
from .params import PRESETS, PhysicalParams, apply_scale, build_params, preset
from .pipeline import RunManifest, StageError, run_pipeline
from .spectra import (
    Spectrum,
    blackbody_1d,
    emission_detector,
    emission_raw,
    spectral_ratio,
)
from .steady import SteadyResult, seed_guess, solve_steady

__all__ = [
    "__version__",
    "BandStructure",
    "CouplingTables",
    "ModeTable",
    "PhysicalParams",
    "PRESETS",
    "RunManifest",
    "Spectrum",
    "StageError",
    "SteadyResult",
    "Trajectory",
    "apply_scale",
    "band_structure",
    "blackbody_1d",
    "bose_einstein",
    "build_grid",
    "build_params",
    "build_tables",
    "detect_saturation",
    "emission_detector",
    "emission_raw",
    "fermi_dirac",
    "in_gap_mask",
    "integrate",
    "log_times",
    "preset",
    "pump_rate",
    "quasi_steady_photon",
    "representatives",
    "rhs",
    "run_pipeline",
    "seed_guess",
    "solve_modes",
    "solve_steady",
    "spectral_ratio",
]
