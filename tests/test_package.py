"""Package surface: the public names and what importing the package loads."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import plap
from plap import integrator, model, profile, verify


@pytest.mark.parametrize("module", [model, profile, integrator, verify], ids=lambda m: m.__name__)
def test_submodule_public_names_are_exported(module):
    missing = [name for name in module.__all__ if name not in plap.__all__]
    assert not missing
    assert all(getattr(plap, name) is getattr(module, name) for name in module.__all__)


def test_import_loads_only_numpy_machinery():
    """numpy is the only runtime dependency and the CLI starts no worker pool."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(plap.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import plap.cli, sys; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent'))))"
    )
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip() == ""
