"""Deterministic quantum-state transfer over a cavity-photon link.

A single trapped atom maps a superposition of its ground Zeeman
sublevels onto a traveling field whose photon number is superposed
(vacuum / one / two photons), the field crosses a fiber link, and a
second atom absorbs it back into the same internal superposition under
a solved control pulse.  This package simulates the emission, the
absorption, the control-pulse conditions and the link budget in closed
form; the tests check the closed forms against fixed-step ODE oracles
(``tests/oracles.py``).
"""

from .config import load_config
from .pipeline import run_transfer

__version__ = "0.1.0"
