"""Spectral quantum dynamics on periodic grids.

Wavefunctions and observables on 1-D/2-D periodic grids, split-step
propagation, the two-time evolution operator, scenario simulations (free
packet, harmonic and quartic wells, two-slit diffraction), and a named check
suite that certifies the framework's identities numerically.  The package
re-exports the public names of each module, as its `__all__` lists them.
"""

__version__ = "0.1.0"

from .grids import *
from .operators import *
from .evolution import *
from .checks import *
from .scenarios import *
