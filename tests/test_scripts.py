"""The sweep scripts under scripts/ import: every mspsolve name they use exists.

Each script runs its cases only under __main__, so importing it runs its
imports and module constants alone.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["psd_rank_sweep", "least_squares_sweep"])
def test_script_imports(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.__doc__
