"""The package's public surface: every exported name exists."""

import ast
import json
import os
import subprocess
import sys

import shocklab


def test_all_names_resolve():
    # a stale name would break only `from shocklab import *`
    missing = [name for name in shocklab.__all__ if not hasattr(shocklab, name)]
    assert missing == []
    assert len(set(shocklab.__all__)) == len(shocklab.__all__)


def _src_env():
    """The environment of a child interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(shocklab.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def test_cli_import_leaves_out_scipy_interpolate():
    # the profile is evaluated in numpy; scipy.interpolate costs ~0.15 s of import
    code = "import sys, shocklab.cli; sys.exit('scipy.interpolate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=_src_env()).returncode == 0


def test_cli_import_loads_no_scipy():
    # the transforms and the Newton solve are numpy and Python; scipy is a
    # test-only reference
    code = ("import sys, shocklab.cli; "
            "sys.exit(' '.join(m for m in sys.modules if m.startswith('scipy')) or None)")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_run_without_scipy_writes_the_same_norms(tmp_path):
    # a 3-d run uses the DST-I, both torus transforms and the Newton solve
    doc = {"dimension": 3, "grid": {"half_length": 15, "n1": 64, "nprime": 4},
           "stepper": {"t_final": 2.0, "dt_out": 0.5},
           "perturbation": {"kind": "random-nonzero-mode"}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    norms = {}
    for label, block in (("plain", ""), ("blocked", "sys.modules['scipy'] = None; ")):
        code = (f"import sys; {block}from shocklab.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        out = tmp_path / label
        proc = subprocess.run([sys.executable, "-c", code, "run", "--quiet",
                               "--config", str(config), "--out", str(out)],
                              env=_src_env(), cwd=tmp_path)
        assert proc.returncode == 0, label
        norms[label] = (out / "norms.csv").read_bytes()
    assert norms["blocked"] == norms["plain"]


def test_random_nonzero_mode_runs_without_numpy_random():
    # the draw is stdlib random, so numpy.random (and the OpenSSL it
    # loads through secrets and hashlib) stays out of the process
    code = ("import sys; sys.modules['numpy.random'] = None\n"
            "import shocklab as sl\n"
            "from shocklab.config import config_from_dict\n"
            "cfg = config_from_dict({'dimension': 3,\n"
            "    'grid': {'half_length': 15, 'n1': 32, 'nprime': 4},\n"
            "    'stepper': {'t_final': 0.1, 'dt_out': 0.05},\n"
            "    'perturbation': {'kind': 'random-nonzero-mode'}})\n"
            "norms = sl.run_simulation(sl.build_problem(cfg))\n"
            "assert norms.channels['nzmode_L2'][0] > 0\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


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
