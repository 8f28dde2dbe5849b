"""The package's public surface: every exported name exists."""

import ast
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


def test_only_the_config_layer_imports_config():
    # a sys.modules check cannot see this edge: importing any submodule runs
    # shocklab/__init__, which imports config
    pkg = os.path.dirname(os.path.abspath(shocklab.__file__))
    allowed = {"config", "experiment", "cli", "__init__"}
    importers = set()
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                # "from . import config" names the module among the imports
                base = node.module or ""
                modules = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            if any(m.split(".")[-1] == "config" for m in modules):
                importers.add(name[:-3])
    assert importers - allowed == set()
    assert "experiment" in importers
