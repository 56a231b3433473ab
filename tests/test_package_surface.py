"""The package surface: what must resolve, and what must be reached.

``perfbench/tracer.py`` patches the functions in its ``TRACED`` table by
name, so deleting or renaming one of them breaks every traced benchmark
run; a test here makes such a deletion fail first. The reachability guard
fails for any function or method in ``src/nyridge`` that no CLI command,
no README example and no import of the acceptance suite reaches, unless
``KEEP`` gives a reason to keep it. The run-time guard runs every command
with scipy blocked, and checks that no command imports a module while it
runs (scipy is a test-only oracle), loads ``numpy.ma`` or calls
``np.linalg.svd``.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nyridge

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nyridge"
TRACER = ROOT / "perfbench" / "tracer.py"

# Functions kept although no command, README example or acceptance import
# enters them: "<module>.<qualified name>" -> why it stays.
KEEP = {
    "datasets.write_dataset_csv": "README File formats; perfbench writes its cv input with it",
    "lowrank.LowRankFactor.gram": "the dense L through which acceptance compares factors",
    "regression.krr_exact": "the exact reference smoother the low-rank solvers are tested against",
    "stats.Spectrum.dense": "the dense reference behind dof and bias_variance (acceptance imports)",
    "stats.Spectrum.lowrank": "the thin-SVD oracle the prefix spectra from one QR are tested against",
    "synthetic.eig_circulant": "the exact oracle of the FFT spectrum of grid problems",
}

# Every command at small sizes, in process; data.csv is written by DATA_SCRIPT.
COMMANDS = [
    ["fig1", "--n", "32", "--trials", "2"],
    ["rates", "--n-list", "16,24,32,48,64", "--out", "rates.csv"],
    ["rank-ratio", "--n", "32", "--trials", "2", "--lambda-points", "2"],
    ["verify-theorem", "--n", "32", "--trials", "2"],
    ["verify-theorem", "--n", "32", "--trials", "2", "--p", "8"],
    ["verify-lemma", "--n", "40", "--trials", "20", "--p-list", "5,10", "--t-points", "3"],
    ["cv", "--input", "data.csv", "--lambda-points", "3"],
    ["fit", "--input", "rates.csv", "--value-column", "err_star"],
]
DATA_SCRIPT = r"""
import math
from pathlib import Path

rows = [f"{math.sin(i)!r},{math.cos(3 * i)!r},{math.sin(i) - math.cos(3 * i)!r}" for i in range(60)]
Path("data.csv").write_text("a,b,target\n" + "\n".join(rows) + "\n", encoding="utf-8")
"""

# Runs every command, then the README's python blocks, under a profiler;
# writes the (file name, first line) of every function of the package that
# was entered to entered.json.
REACH_SCRIPT = DATA_SCRIPT + r"""
import json, re, sys

root = Path(sys.argv[1])
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(profile)
import importlib, pkgutil
import nyridge
package = Path(nyridge.__file__).resolve().parent
assert package == root / "src" / "nyridge", package
for info in pkgutil.iter_modules(nyridge.__path__):
    if info.name != "__main__":
        importlib.import_module("nyridge." + info.name)
from nyridge import cli

for argv in json.loads(sys.argv[2]):
    assert cli.main(argv) == 0, argv
namespace = {}
for block in re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S):
    exec(block, namespace)
sys.setprofile(None)
ours = {(Path(f).name, line) for f, line in entered if Path(f).resolve().parent == package}
Path("entered.json").write_text(json.dumps(sorted(ours)))
"""


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


def child_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return env


# Blocks every scipy import, imports the CLI, counts np.linalg.svd calls, then
# runs every command and writes each exit code, the modules the commands
# imported, whether numpy.ma is loaded and the svd count to run.json.
BLOCKED_SCRIPT = DATA_SCRIPT + r"""
import importlib.abc, json, sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked at run time: {name}")
        return None


sys.meta_path.insert(0, NoScipy())
from nyridge import cli
import numpy

svd_calls = []
svd = numpy.linalg.svd


def counted_svd(*args, **kwargs):
    svd_calls.append(1)
    return svd(*args, **kwargs)


numpy.linalg.svd = counted_svd
loaded = set(sys.modules)
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
Path("run.json").write_text(json.dumps({
    "codes": codes,
    "new": sorted(set(sys.modules) - loaded),
    "ma": "numpy.ma" in sys.modules,
    "svd": len(svd_calls),
}))
"""


@pytest.fixture(scope="module")
def blocked_run(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("blocked")
    res = subprocess.run(
        [sys.executable, "-c", BLOCKED_SCRIPT, json.dumps(COMMANDS)],
        cwd=cwd, env=child_env(), capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    return json.loads((cwd / "run.json").read_text())


def test_every_command_runs_without_scipy(blocked_run):
    # scipy is the tests' oracle only; pyproject lists it in the test extra
    assert blocked_run["codes"] == [0] * len(COMMANDS)


def test_no_command_imports_a_module_while_it_runs(blocked_run):
    # an import inside cli.main (argparse's gettext loads locale on first
    # use) would count against every timed run
    assert blocked_run["new"] == []


def test_no_command_needs_numpy_ma(blocked_run):
    # np.median and np.unique import numpy.ma, 14 ms of every command's import
    assert blocked_run["ma"] is False


def test_no_command_runs_a_thin_svd(blocked_run):
    # low-rank spectra come from one thin QR (Spectrum.prefixes)
    assert blocked_run["svd"] == 0


def package_functions() -> dict[tuple[str, int], str]:
    """(file name, first line) -> "<module>.<qualified name>" of every def in the package.

    The first line is the one a code object reports: its first decorator's,
    if it has any.
    """
    found = {}

    def visit(node, prefix, file_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[(file_name, first)] = name
                visit(child, name, file_name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.name)
    return found


def acceptance_imports() -> set[str]:
    """ "<module>.<name>" of every name tests/test_acceptance.py imports from the package."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {
        f"{node.module.removeprefix('nyridge.')}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nyridge.")
        for alias in node.names
    }


def test_every_function_is_reached_or_kept(tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", REACH_SCRIPT, str(ROOT), json.dumps(COMMANDS)],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    entered = {tuple(key) for key in json.loads((tmp_path / "entered.json").read_text())}
    functions = package_functions()
    exempt = acceptance_imports()
    unreached = {name for key, name in functions.items() if key not in entered} - exempt
    stale = set(KEEP) - unreached
    assert stale == set(), f"KEEP entries that are reached or do not exist: {sorted(stale)}"
    lines = {name: f"{file}:{line}" for (file, line), name in functions.items()}
    orphans = [f"{name} ({lines[name]})" for name in sorted(unreached - set(KEEP))]
    assert orphans == [], (
        "no command, README example or acceptance import reaches these; "
        f"delete them or give a reason in KEEP: {orphans}"
    )
