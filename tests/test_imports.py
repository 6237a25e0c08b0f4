"""Each entry point loads only the scipy parts that it calls.

Every scipy submodule is imported inside the functions that call it, so
`import shearmix` loads numpy alone and a `simulate` run loads no scipy at
all.  `spectrum` loads scipy's LAPACK extension `scipy.linalg._flapack` by
itself, without the scipy.linalg package or any of scipy.sparse,
scipy.optimize, scipy.spatial or scipy.stats.  The correlation LP of
`bounds`, `evolve` and `validate` loads the HiGHS extension
`scipy.optimize._highspy._core` (and the submodules its binding registers)
by itself, without the scipy.optimize package or scipy.sparse.  `evolve`
adds expm's extension `scipy.linalg._matfuncs_expm`, and semigroup norms
`_flapack` and the inverse's `scipy.linalg._batched_linalg`, again without
the scipy.linalg package; the vertex-enumeration criterion loads
scipy.spatial.  Each check runs in a fresh interpreter, since this test
session has long since imported them.  So does each check of the extension
loader, one per extension and import order or file layout, since each needs
a process that has not yet loaded the extension.
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
FLAPACK = "scipy.linalg._flapack"
EXPM = "scipy.linalg._matfuncs_expm"
BATCHED = "scipy.linalg._batched_linalg"
TWO_PLATEAU = {"kind": "piecewise_constant", "breakpoints": [0.0, 0.5], "values": [0.0, 1.0]}

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _lazy(loaded):
    """The modules in `loaded` that lie under one of the LAZY packages."""
    return [m for m in loaded if any(m == p or m.startswith(p + ".") for p in LAZY)]


def _output(code):
    """The lines that `code` prints in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout.splitlines()


def _loaded_after(code):
    """The scipy modules loaded after `code` runs in a fresh interpreter."""
    return json.loads(_output(code + REPORT)[-1])


def _linalg(loaded):
    """The modules in `loaded` that lie under scipy.linalg, or are it."""
    return [m for m in loaded if m.startswith("scipy.linalg")]


def _run_task(tmp_path, task, params, velocity=TWO_PLATEAU):
    """The scipy modules that one CLI run of `task` loads in a fresh interpreter."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"task": task, "velocity": velocity, "params": params}))
    argv = [task, "--config", str(config), "--out", str(tmp_path / "out")]
    return _loaded_after(f"import shearmix.cli\nassert shearmix.cli.main({argv!r}) == 0\n")


def test_import_loads_no_lazy_scipy_module():
    assert _loaded_after("import shearmix, shearmix.cli") == []


def test_simulate_task_loads_no_scipy_module(tmp_path):
    params = {"n_paths": 1000, "t_end": 0.1, "dt": 0.01, "bins": 4}
    assert _run_task(tmp_path, "simulate", params) == []
    assert (tmp_path / "out" / "histogram.csv").exists()


@pytest.mark.parametrize("velocity,params", [
    (TWO_PLATEAU, {}),
    (TWO_PLATEAU, {"boundary": "dirichlet"}),
    ({"kind": "sine", "amplitude": 1.0, "frequency": 1}, {}),
], ids=["periodic-fd2", "dirichlet-fd2", "collocation"])
def test_spectrum_task_loads_the_lapack_extension_alone(tmp_path, velocity, params):
    loaded = _run_task(tmp_path, "spectrum", {"k": 1, "n": 32, "s_points": 64, **params},
                       velocity)
    assert _linalg(loaded) == [FLAPACK]
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


def test_evolve_task_loads_no_linalg_package(tmp_path):
    loaded = _run_task(tmp_path, "evolve", {"nx": 16, "ny": 8, "t_end": 0.5, "samples": 3})
    assert _linalg(loaded) == [EXPM]
    assert (tmp_path / "out" / "decay.csv").exists()


def test_semigroup_norms_load_three_linalg_extensions_alone():
    # both routes: eigenvectors (eig, svdvals, qr, inv), and one expm per time
    loaded = _loaded_after("""
from shearmix import spectral
from shearmix.velocity import two_plateau
for k, cond_max in ((1, spectral.EIG_COND_MAX), (2, 0.0)):
    spectral.EIG_COND_MAX = cond_max
    op = spectral.make_operator(two_plateau(), k, n=32)
    assert spectral.semigroup_norm(op, [0.1])[0] > 0.0
""")
    assert _linalg(loaded) == sorted([FLAPACK, EXPM, BATCHED])
    assert _lazy(loaded) == []


# per extension: its module, the library call that loads it (`value()`), its
# loader, its package, the package's attribute chain to it and a call of the
# package that runs through it
EXTENSIONS = {
    "highs": {
        "module": HIGHS,
        "value": """
from shearmix import functionals as fn
from shearmix.velocity import SineField

def value():
    return fn.lipschitz_correlation(SineField(1.0, 1, 0.3), "dirichlet", (0.1, 0.8), 64)
""",
        "loader": "fn._highs()",
        "package": "scipy.optimize",
        "chain": "scipy.optimize._highspy._core",
        "from_import": "from scipy.optimize._highspy import _core as ext",
        "package_call": """
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], bounds=(0.0, None),
                             method="highs")
assert res.status == 0 and res.fun == 1.0, res
""",
    },
    "flapack": {
        "module": FLAPACK,
        "value": """
from shearmix import spectral
from shearmix.velocity import SineField

def value():
    op = spectral.make_operator(SineField(1.0, 1, 0.3), 1, "dirichlet", n=32)
    return spectral.resolvent_gap(op, s_points=64).r_lambda1
""",
        "loader": "spectral._lapack()",
        "package": "scipy.linalg",
        "chain": "scipy.linalg._flapack",
        "from_import": "from scipy.linalg import _flapack as ext",
        "package_call": """
assert scipy.linalg.lapack.zgesdd is ext.zgesdd
assert scipy.linalg.svdvals([[3.0, 0.0], [0.0, 4.0]]).tolist() == [4.0, 3.0]
""",
    },
    "matfuncs_expm": {
        "module": EXPM,
        "value": """
import numpy as np
from shearmix import spectral
from shearmix.velocity import SineField

def value():
    op = spectral.make_operator(SineField(1.0, 1, 0.3), 1, "dirichlet", n=32)
    return float(np.abs(op.propagator(0.01)).sum())
""",
        "loader": "spectral._extension.load('linalg', '_matfuncs_expm')",
        "package": "scipy.linalg",
        "chain": "scipy.linalg._matfuncs_expm",
        "from_import": "from scipy.linalg import _matfuncs_expm as ext",
        "package_call": """
assert scipy.linalg._matfuncs.pick_pade_structure is ext.pick_pade_structure
a = np.array([[1.0, 2.0], [-3.0, 0.5]], dtype=complex)
assert scipy.linalg.expm(a).tolist() == spectral._expm(a).tolist()
""",
    },
    "batched_linalg": {
        "module": BATCHED,
        "value": """
import numpy as np
from shearmix import spectral

def value():
    return float(spectral._inv(np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex))[0, 0].real)
""",
        "loader": "spectral._extension.load('linalg', '_batched_linalg')",
        "package": "scipy.linalg",
        "chain": "scipy.linalg._batched_linalg",
        "from_import": "from scipy.linalg import _batched_linalg as ext",
        "package_call": """
assert scipy.linalg._basic._batched_linalg is ext
assert scipy.linalg.inv([[2.0, 0.0], [0.0, 4.0]]).tolist() == [[0.5, 0.0], [0.0, 0.25]]
""",
    },
}


def _script(extension, body):
    """`body` after the extension's imports and `value()`, with its names filled in."""
    spec = EXTENSIONS[extension]
    head = "import sys\n" + spec["value"]
    for key, text in spec.items():
        body = body.replace("{" + key + "}", text)
    return head + body


@pytest.mark.parametrize("extension", sorted(EXTENSIONS))
def test_loader_then_package(extension):
    # the package reuses the loaded extension, but does not bind it to its
    # parent: the attribute chain fails where the from-import works
    _loaded_after(_script(extension, """
before = value()
loaded = {loader}
assert "{package}" not in sys.modules and sys.modules["{module}"] is loaded
import {package}
{from_import}
assert ext is loaded and sys.modules["{module}"] is loaded
try:
    {chain}
except AttributeError:
    pass
else:
    raise AssertionError("{chain} is bound")
{package_call}
assert value() == before
"""))


@pytest.mark.parametrize("extension", sorted(EXTENSIONS))
def test_package_then_loader(extension):
    _loaded_after(_script(extension, """
import {package}
ext = sys.modules["{module}"]
assert {loader} is ext and {chain} is ext
assert value() > 0.0
"""))


@pytest.mark.parametrize("extension", sorted(EXTENSIONS))
def test_missing_extension_names_its_directory(tmp_path, extension):
    _loaded_after(_script(extension, f"""
import scipy
scipy.__path__ = [{str(tmp_path)!r}]
try:
    value()
except ImportError as err:
    assert {str(tmp_path)!r} in str(err) and err.name == "{{module}}", err
else:
    raise AssertionError("no ImportError")
assert "{{module}}" not in sys.modules
"""))


@pytest.mark.parametrize("extension", sorted(EXTENSIONS))
def test_extension_elsewhere_is_imported_with_its_package(tmp_path, extension):
    # a scipy that keeps the extension elsewhere than 1.17 does: an empty
    # directory heads scipy's path, so the loader finds no file there and
    # imports the module by name, parent packages and all, with the same value
    expected = _output(_script(extension, "print(repr(value()))"))[-1]
    _loaded_after(_script(extension, f"""
import scipy
scipy.__path__.insert(0, {str(tmp_path)!r})
assert repr(value()) == {expected!r}
assert "{{package}}" in sys.modules and {{loader}} is sys.modules["{{module}}"]
"""))
