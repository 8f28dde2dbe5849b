"""The package's public surface: every exported name exists."""

import os
import subprocess
import sys

import shocklab


def test_all_names_resolve():
    # a stale name would break only `from shocklab import *`
    missing = [name for name in shocklab.__all__ if not hasattr(shocklab, name)]
    assert missing == []
    assert len(set(shocklab.__all__)) == len(shocklab.__all__)


def test_cli_import_leaves_out_scipy_interpolate():
    # the profile is evaluated in numpy; scipy.interpolate costs ~0.15 s of import
    src = os.path.dirname(os.path.dirname(os.path.abspath(shocklab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, shocklab.cli; sys.exit('scipy.interpolate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
