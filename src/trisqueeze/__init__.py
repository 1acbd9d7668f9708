"""Three-mode enhanced squeezing toolkit.

Closed-form Gaussian machinery for the squeezed coherent states of the
all-to-all three-mode squeeze unitary, their higher-order quadrature moments
and collective-mode photon statistics, the Wigner function and the
displaced-parity Bell combination B(3), with a truncated-Fock brute-force
oracle validating every closed form at small parameters.
"""

from . import bell, errors, fock, gaussian, photon
from .bell import *  # noqa: F403
from .errors import *  # noqa: F403
from .fock import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .photon import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*bell.__all__, *errors.__all__, *fock.__all__, *gaussian.__all__, *photon.__all__]
