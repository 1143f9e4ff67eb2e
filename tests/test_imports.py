"""Import cost: the package and every CLI command run without scipy.

scipy.signal and scipy.special take longer to import than any command's
own work, so only the time-domain trace API may load scipy.
Each case runs in a fresh interpreter, since this test process has scipy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import opampfit

SRC = str(Path(opampfit.__file__).resolve().parents[1])

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
