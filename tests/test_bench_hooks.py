"""The benchmark's hook table still names real package functions.

bench/child.py times set-up up to the first call of STEP_HOOK, wraps every
HOOKS entry in a span, and micro-benchmarks RHS_HOOK with the arguments of
the first step.  A hook that no longer resolves, or a step or RHS whose
parameters were renamed, would silently drop those measurements.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


@pytest.fixture(scope="module")
def child():
    # executed from source, so nothing is written next to the benchmark
    module = types.ModuleType("bench_child")
    exec(compile(CHILD.read_text(), str(CHILD), "exec"), module.__dict__)
    return module


def resolve(module: str, name: str):
    return getattr(importlib.import_module(f"shocklab.{module}"), name, None)


def test_every_hook_resolves(child):
    hooks = list(child.HOOKS) + [child.STEP_HOOK, child.RHS_HOOK]
    missing = [f"{m}.{n}" for m, n in hooks if not callable(resolve(m, n))]
    assert missing == []


def test_step_binds_the_arguments_the_benchmark_reads(child):
    step = inspect.signature(resolve(*child.STEP_HOOK))
    bound = step.bind(fld=None, dt=0.0, shock=None, flux=None, llf=False)
    assert {"fld", "dt", "shock", "flux", "llf"} <= bound.arguments.keys()


def test_rhs_binds_the_microbenchmark_call(child):
    rhs = inspect.signature(resolve(*child.RHS_HOOK))
    bound = rhs.bind(None, None, None, False)
    assert list(bound.arguments) == ["fld", "shock", "flux", "llf"]
