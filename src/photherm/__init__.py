"""Quantum-controlled thermal emission in a one-dimensional photonic crystal.

A closed optical cavity containing a stack of thin dielectric planes forms
a photonic crystal whose band gaps reshape which cavity modes confine light.
Pumped two-level atoms distributed through the crystal exchange photons
with every mode through Lorentzian-broadened couplings.  This package
computes the exact eigenmode census of the layered cavity, the coupled
electron/photon occupation kinetics (time integration and direct
fixed-point solves), and the resulting emission spectra against the
one-dimensional blackbody reference.  Each name is imported from the
module that defines it (``from photherm.modes import solve_modes``); the
package itself holds only ``__version__``.
"""

from ._version import __version__
