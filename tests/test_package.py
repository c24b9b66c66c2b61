"""Package surface: the public names and what importing the package loads."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import plap
from plap import integrator, model, profile, verify
from conftest import P3_CONFIG


@pytest.mark.parametrize("module", [model, profile, integrator, verify], ids=lambda m: m.__name__)
def test_submodule_public_names_are_exported(module):
    missing = [name for name in module.__all__ if name not in plap.__all__]
    assert not missing
    assert all(getattr(plap, name) is getattr(module, name) for name in module.__all__)


def test_public_names_are_the_submodules_names_once():
    assert len(plap.__all__) == len(set(plap.__all__))
    submodules = [model, profile, integrator, verify]
    assert set(plap.__all__) == {"__version__"}.union(*(m.__all__ for m in submodules))
    # the public surface, pinned: adding or removing a name is a deliberate edit here
    assert sorted(plap.__all__) == [
        "CoefficientFunction",
        "ExistenceConditionViolated",
        "GradientExponentTooLarge",
        "GridMismatch",
        "InsufficientRange",
        "LimitEstimate",
        "MalformedNonlinearity",
        "Nonlinearity",
        "NotPurePowerCoefficients",
        "Overflow",
        "PowerProfile",
        "QuotientSeries",
        "StepSizeUnderflow",
        "Trajectory",
        "ValidatedSystem",
        "VerificationReport",
        "__version__",
        "check_convexity_bounds",
        "check_limit_identities",
        "check_monotone_quotients",
        "check_ordering",
        "check_quotient_ordering",
        "dormand_prince_step",
        "estimate_limits",
        "flux_consistency",
        "flux_rhs",
        "geometric_grid",
        "integrate_fixed_grid",
        "integrate_radial",
        "profile_residual",
        "quotient_series",
        "run_verification",
        "sample_profile_trajectory",
        "solve_profile",
        "startup_state",
        "system_from_config",
    ]


def _fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout's plap."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(plap.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return res.stdout


def test_import_loads_only_numpy_machinery():
    """numpy is the only runtime dependency, the CLI starts no worker pool,
    and the flux check's quadrature does not import numpy.polynomial."""
    out = _fresh_interpreter(
        "import plap.cli, sys; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))); "
        f"system = plap.system_from_config({P3_CONFIG!r}); "
        "plap.flux_consistency(plap.integrate_radial(system, 1.0, 1.0, r_max=100.0), system); "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('numpy.polynomial'))))"
    )
    assert out.splitlines() == ["", ""]


def test_import_generates_no_code():
    """The step loop, the stepper and the right-hand sides are generated on
    first use, so importing the CLI compiles nothing and the import time
    cannot grow."""
    out = _fresh_interpreter(
        "import plap.cli; from plap import integrator; "
        "print(integrator._dp_loop.cache_info().currsize, integrator._dp_stepper.cache_info().currsize, "
        "integrator._compile.cache_info().misses)"
    )
    assert out.split() == ["0", "0", "0"]
