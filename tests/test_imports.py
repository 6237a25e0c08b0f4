"""Each entry point loads only the scipy parts that it calls.

Every scipy submodule is imported inside the functions that call it, so
`import shearmix` loads numpy alone and a `simulate` run loads no scipy at
all.  `spectrum` loads scipy.linalg (and what that imports) but none of
scipy.sparse, scipy.optimize, scipy.spatial or scipy.stats, which together
cost about a second of start-up.  The correlation LP of `bounds`, `evolve`
and `validate` loads the HiGHS extension `scipy.optimize._highspy._core`
(and the submodules its binding registers) by itself, without the
scipy.optimize package or scipy.sparse; the vertex-enumeration criterion
loads scipy.spatial.  Each check runs in a fresh interpreter, since this
test session has long since imported them.  So does each check of the HiGHS
loader, one per import order, since each needs a process that has not yet
loaded the extension.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shearmix

SRC = str(Path(shearmix.__file__).resolve().parent.parent)
LAZY = ("scipy.sparse", "scipy.stats", "scipy.optimize", "scipy.spatial")
HIGHS = "scipy.optimize._highspy._core"
TWO_PLATEAU = {"kind": "piecewise_constant", "breakpoints": [0.0, 0.5], "values": [0.0, 1.0]}

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _lazy(loaded):
    """The modules in `loaded` that lie under one of the LAZY packages."""
    return [m for m in loaded if any(m == p or m.startswith(p + ".") for p in LAZY)]


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
    assert _lazy(loaded) == []
    assert (tmp_path / "out" / "spectral_summary.json").exists()


@pytest.mark.parametrize("task,params,artifact", [
    ("bounds", {"grid_n": 64, "j_points": 17}, "bounds.json"),
    ("evolve", {"nx": 16, "ny": 8, "t_end": 0.5, "samples": 3}, "decay.csv"),
])
def test_lp_task_loads_the_highs_extension_alone(tmp_path, task, params, artifact):
    loaded = _run_task(tmp_path, task, params)
    assert HIGHS in loaded
    assert [m for m in _lazy(loaded) if m != HIGHS and not m.startswith(HIGHS + ".")] == []
    assert (tmp_path / "out" / artifact).exists()


LP_VALUE = """
import sys
from shearmix import functionals as fn
from shearmix.velocity import SineField

def lp_value():
    return fn.lipschitz_correlation(SineField(1.0, 1, 0.3), "dirichlet", (0.1, 0.8), 64)
"""


def test_highs_loader_then_scipy_optimize():
    _loaded_after(LP_VALUE + f"""
value = lp_value()
core = fn._highs()
assert "scipy.optimize" not in sys.modules and sys.modules[{HIGHS!r}] is core
import scipy.optimize
from scipy.optimize._highspy import _core
assert _core is core and sys.modules[{HIGHS!r}] is core
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], bounds=(0.0, None),
                             method="highs")
assert res.status == 0 and res.fun == 1.0, res
assert lp_value() == value
""")


def test_scipy_optimize_then_highs_loader():
    _loaded_after(LP_VALUE + f"""
import scipy.optimize
core = sys.modules[{HIGHS!r}]
assert fn._highs() is core and scipy.optimize._highspy._core is core
assert lp_value() > 0.0
""")


def test_missing_highs_extension_names_its_directory(tmp_path):
    _loaded_after(LP_VALUE + f"""
import scipy
scipy.__path__ = [{str(tmp_path)!r}]
try:
    lp_value()
except ImportError as err:
    assert {str(tmp_path)!r} in str(err) and err.name == {HIGHS!r}, err
else:
    raise AssertionError("no ImportError")
assert {HIGHS!r} not in sys.modules
""")
