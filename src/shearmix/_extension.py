"""Load one compiled extension that scipy ships, without its parent packages.

The correlation LP calls the HiGHS binding `scipy.optimize._highspy._core`
and the spectral module calls LAPACK, expm's Pade kernels and the batched
inverse through `scipy.linalg._flapack`, `_matfuncs_expm` and
`_batched_linalg`.  Importing any of them by name would first run the
`__init__` of every package above it, which loads most of `scipy.optimize`
and `scipy.sparse`, or the whole of `scipy.linalg`.  Each loads on its own
here.  Standard library only.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys


def load(subpackage, module):
    """The extension `scipy.<subpackage>.<module>`, loaded without its packages.

    Returns the module in `sys.modules` when there is one, so scipy's own
    import (and a test's monkeypatch of it) is the module used.  Otherwise
    finds the extension in scipy's directory for `subpackage` (dotted, as
    "optimize._highspy") and registers it under its full name before
    executing it, as an import does: a later import of the package then finds
    it there and reuses it rather than loading the extension a second time.
    The parent packages stay unloaded.  Once they load, `from scipy.<subpackage>
    import <module>` gives this module, but the attribute chain
    `scipy.<subpackage>.<module>` does not: the import system binds a
    submodule to its package only when it loads the submodule itself.
    A scipy that keeps the extension elsewhere than 1.17 does gets the
    ordinary import, parent packages and all: the same module, at their
    memory cost.  ImportError, naming the directory, when that fails too.
    """
    name = f"scipy.{subpackage}.{module}"
    found = sys.modules.get(name)
    if found is not None:
        return found
    import scipy

    directory = os.path.join(scipy.__path__[0], *subpackage.split("."))
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        try:
            return importlib.import_module(name)
        except ImportError as err:
            raise ImportError(f"no extension {module} in {directory}", name=name) from err
    found = importlib.util.module_from_spec(spec)
    sys.modules[name] = found
    try:
        spec.loader.exec_module(found)
    except BaseException:
        del sys.modules[name]
        raise
    return found
