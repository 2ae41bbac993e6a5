"""Quantum-noise and stability survey of a signal-recycled interferometer
with a double-pumped anomalous-dispersion gain medium.

The package root re-exports each module's public names: its ``__all__``,
or for ``errors`` every exception class it defines.
"""

from .errors import *  # noqa: F401,F403
from .interferometer import *  # noqa: F401,F403
from .medium import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403
from .stability import *  # noqa: F401,F403
from .survey import *  # noqa: F401,F403

__version__ = "0.1.0"
