"""What the package's modules hold and load.

Import cost: scipy.signal and scipy.special take longer to import than any
command's own work, so only the time-domain trace API may load scipy.  Each
such case runs in a fresh interpreter, since this test process has scipy
loaded already.  Dead code: every top-level definition is public or used.
Dependencies: the package imports exactly what pyproject.toml declares.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import opampfit

PACKAGE = Path(opampfit.__file__).resolve().parent
SRC = str(PACKAGE.parent)

COMMANDS = """
import json, sys
import opampfit, opampfit.cli
from opampfit.cli import main

for argv in (
    ["synth", "s.csv", "--points", "64", "--fmax", "4e6"],
    ["fit", "s.csv", "--plot-data", "fit_plots"],
    ["quick", "s.csv"],
    ["mc", "mc.csv", "--trials", "20", "--points", "16", "--noise", "1e-4"],
    ["batch", "mc.csv", "--plot-data", "batch_plots"],
):
    try:
        main(argv)
    except SystemExit as exit:
        assert exit.code in (None, 0), (argv, exit.code)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

TRACE = """
import json, sys
from opampfit import DeviceParams, Topology, simulate_steady_state

trace = simulate_steady_state(DeviceParams(f0=97.73e6), Topology(100.0, 1.0), 1e5)
assert trace.samples.size > 1
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(script, cwd):
    """The scipy modules loaded once ``script`` has run in a fresh
    interpreter, which prints them as its last line."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_package_and_commands_load_no_scipy(tmp_path):
    assert scipy_modules_after(COMMANDS, tmp_path) == []
    assert (tmp_path / "batch_plots" / "normal_cdf.csv").exists()


def test_trace_api_loads_scipy_signal(tmp_path):
    assert "scipy.signal" in scipy_modules_after(TRACE, tmp_path)


def test_every_top_level_definition_is_exported_or_used():
    # a def or class that is not in __all__ and that no line of the package
    # names again is reachable only from tests
    texts = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    source = "\n".join(texts)
    unused = [
        node.name
        for text in texts
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in opampfit.__all__
        and len(re.findall(rf"\b{re.escape(node.name)}\b", source)) < 2
    ]
    assert unused == []


def third_party_imports(paths):
    """The top-level names of the modules that ``paths`` import, anywhere in
    the file, outside the standard library and this package."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"opampfit"}


def requirement_names(requirements):
    """Project names of PEP 508 requirement strings; each is also the name
    its module imports under."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    runtime = requirement_names(project["dependencies"])
    assert third_party_imports(PACKAGE.glob("*.py")) == runtime
    tests = third_party_imports(Path(__file__).parent.glob("*.py"))
    assert tests <= runtime | requirement_names(project["optional-dependencies"]["test"])
