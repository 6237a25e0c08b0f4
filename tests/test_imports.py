"""Each entry point loads only the scipy parts that it calls.

Every scipy submodule is imported inside the functions that call it, so
`import shearmix` loads numpy alone and a `simulate` run loads no scipy at
all.  `spectrum` loads scipy.linalg (and what that imports) but none of
scipy.sparse, scipy.optimize, scipy.spatial or scipy.stats, which together
cost about a second of start-up; the correlation LP of `bounds` and
`validate` loads scipy.optimize and scipy.sparse, and the vertex-enumeration
criterion scipy.spatial.  Each check runs in a fresh interpreter, since this
test session has long since imported them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import shearmix

SRC = str(Path(shearmix.__file__).resolve().parent.parent)
LAZY = ("scipy.sparse", "scipy.stats", "scipy.optimize", "scipy.spatial")
TWO_PLATEAU = {"kind": "piecewise_constant", "breakpoints": [0.0, 0.5], "values": [0.0, 1.0]}

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _loaded_after(code):
    """The scipy modules loaded after `code` runs in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code + REPORT], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def _run_task(tmp_path, task, params):
    """The scipy modules that one CLI run of `task` loads in a fresh interpreter."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"task": task, "velocity": TWO_PLATEAU, "params": params}))
    argv = [task, "--config", str(config), "--out", str(tmp_path / "out")]
    return _loaded_after(f"import shearmix.cli\nassert shearmix.cli.main({argv!r}) == 0\n")


def test_import_loads_no_lazy_scipy_module():
    assert _loaded_after("import shearmix, shearmix.cli") == []


def test_simulate_task_loads_no_scipy_module(tmp_path):
    params = {"n_paths": 1000, "t_end": 0.1, "dt": 0.01, "bins": 4}
    assert _run_task(tmp_path, "simulate", params) == []
    assert (tmp_path / "out" / "histogram.csv").exists()


def test_spectrum_task_loads_no_lazy_scipy_module(tmp_path):
    loaded = _run_task(tmp_path, "spectrum", {"k": 1, "n": 32, "s_points": 64})
    assert "scipy.linalg" in loaded
    assert [m for m in loaded if any(m == p or m.startswith(p + ".") for p in LAZY)] == []
    assert (tmp_path / "out" / "spectral_summary.json").exists()
