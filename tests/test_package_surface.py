"""Every name the benchmark tracer wraps, and every exported name, resolves.

``perfbench/tracer.py`` patches the functions in its ``TRACED`` table by
name, so deleting or renaming one of them breaks every traced benchmark
run; this test makes such a deletion fail here instead.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import nyridge

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    """Import tracer.py from its file, without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_name_resolves():
    traced = load_tracer().TRACED
    assert traced
    for mod_name, names in traced.items():
        module = importlib.import_module(f"nyridge.{mod_name}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part)
            assert callable(obj), f"nyridge.{mod_name}.{name}"


def test_every_exported_name_resolves():
    assert [name for name in nyridge.__all__ if not hasattr(nyridge, name)] == []


def test_cli_import_leaves_sparse_linalg_unloaded():
    # the Lanczos solver is imported inside the operator-norm sweep only, so
    # that every command's start-up skips it
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    code = "import sys, nyridge.cli; print('scipy.sparse.linalg' in sys.modules)"
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert res.stdout.strip() == "False"
