"""numpy, loaded on first use.

Every admseq module takes ``np`` from here.  Binding it does not run numpy's
import; the first attribute read on it does (``importlib.util.LazyLoader``).
So the commands that never touch an array, ``check-kadison`` and
``check-majorize`` on short lists, start without numpy.  A numpy that is
already imported is used as it is, and a missing one still fails at
``import admseq``."""

import importlib.util
import sys


def _numpy():
    loaded = sys.modules.get("numpy")
    if loaded is not None:
        return loaded
    spec = importlib.util.find_spec("numpy")
    if spec is None:  # not installed, or blocked: fail as a plain import does
        import numpy

        return numpy
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _numpy()
