"""`import shearmix` loads only the scipy parts every task needs.

scipy.stats, scipy.optimize and scipy.spatial together cost about a second of
start-up; the package uses scipy.optimize only in the correlation LP and
scipy.spatial only in the vertex-enumeration criterion, and imports them
there.  Each check runs in a fresh interpreter, since this test session has
long since imported them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import shearmix

SRC = str(Path(shearmix.__file__).resolve().parent.parent)
LAZY = ("scipy.stats", "scipy.optimize", "scipy.spatial")

REPORT = f"""
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if any(m == p or m.startswith(p + ".") for p in {LAZY!r}))))
"""


def _loaded_after(code):
    """The scipy.stats/optimize/spatial modules loaded after `code` runs in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code + REPORT], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_lazy_scipy_module():
    assert _loaded_after("import shearmix, shearmix.cli") == []


def test_spectrum_task_loads_no_lazy_scipy_module(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "task": "spectrum",
        "velocity": {"kind": "piecewise_constant", "breakpoints": [0.0, 0.5],
                     "values": [0.0, 1.0]},
        "params": {"k": 1, "n": 32, "s_points": 64},
    }))
    argv = ["spectrum", "--config", str(config), "--out", str(tmp_path / "out")]
    code = f"import shearmix.cli\nassert shearmix.cli.main({argv!r}) == 0\n"
    assert _loaded_after(code) == []
    assert (tmp_path / "out" / "spectral_summary.json").exists()
