"""numpy, loaded on first attribute access.

Every module of the package takes ``np`` from here, so a run that makes no
numpy call (``--help``, ``refine`` of a layout without masks) never pays for
numpy's import. No module of the package may ``import numpy`` itself: on
Python 3.11 that reads the lazy module's ``__spec__`` and loads it.

The first attribute access of a lazy module is not thread-safe on Python
3.11, so code that starts threads touches numpy before it starts them.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        import numpy  # noqa: F401 - raises the usual ModuleNotFoundError
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
