"""Positive radial solutions of coupled p-Laplace systems with gradient terms.

The package solves the far-field power profile in closed form, integrates
positive radial solutions from the origin in a conserved flux formulation
stepped in log variables, and verifies at desk scale the comparison and
monotone-convergence structure those solutions obey: quotients against the
profile decrease to 1, ordered initial data give ordered solutions, and the
flux derivatives sit inside explicit convexity sandwiches.
"""

from . import integrator, model, profile, verify
from .model import *  # noqa: F403
from .profile import *  # noqa: F403
from .integrator import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

# each submodule's __all__ is the one list of its public names
__all__ = [*model.__all__, *profile.__all__, *integrator.__all__, *verify.__all__, "__version__"]
