"""Transform cumulative-hazard estimates onto other time-to-event scales.

The package solves plugin recursions driven by step-function paths: given an
estimated driver (Nelson-Aalen, additive-regression, or deterministic time
grids) and a parameter system ``dX = F(X) dA``, it produces the state path,
its covariance path, and pointwise confidence bands, together with a
simulation laboratory for convergence and coverage studies.
"""

import os as _os
import sys as _sys

#: The variables that set the BLAS thread count NumPy may load with.
_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def _single_blas_thread_for_cli(argv, environ) -> None:
    """Run BLAS on one thread in a ``hazard-transform`` command-line process.

    A CLI call is a fresh process whose matrices are small: starting the
    BLAS thread pool costs more at ``import numpy`` than the threads save.
    The process is recognised by ``argv[0]``, which is ``"-m"`` while
    ``python -m hazard_transform.cli`` imports this package and ends in
    ``hazard-transform`` for the console script.  The caps go into
    ``environ`` before NumPy loads, so ``--jobs`` workers inherit them; a
    thread variable the user has set leaves all of them alone, and so does
    any other process that imports the package.
    """
    first = argv[0] if argv else ""
    cli = first == "-m" or _os.path.basename(first) == "hazard-transform"
    if cli and not any(name in environ for name in _BLAS_THREAD_VARS):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            environ[name] = "1"


# Before the first import that loads NumPy.
_single_blas_thread_for_cli(_sys.argv, _os.environ)

from . import errors, events, hazards, paths, plugin, systems
from .errors import *
from .events import *
from .hazards import *
from .paths import *
from .plugin import *
from .systems import *

#: Names served from ``simlab`` on first use: ``estimate`` never loads it.
#: The one literal list of public names here; it must equal
#: ``simlab.__all__``, which cannot be read without loading ``simlab``.
_SIMLAB_NAMES = (
    "HazardSpec",
    "ConstantHazard",
    "LinearHazard",
    "TableHazard",
    "hazard_from_config",
    "Scenario",
    "simulate_dataset",
    "oracle_parameter",
    "l2_distance",
    "StudyResult",
    "write_study",
    "l2_convergence",
    "coverage_study",
    "bootstrap_covariance",
    "wilson_interval",
)

__version__ = "0.1.0"

# Each public name is declared once, in its module's ``__all__``.
__all__ = [
    "__version__",
    *(
        name
        for module in (errors, paths, events, systems, hazards, plugin)
        for name in module.__all__
    ),
    *_SIMLAB_NAMES,
]


def __getattr__(name):
    if name == "simlab" or name in _SIMLAB_NAMES:
        # import_module, not ``from . import``: that form asks this package
        # for the attribute first and would come back here.
        import importlib

        simlab = importlib.import_module(".simlab", __name__)
        globals().update({n: getattr(simlab, n) for n in _SIMLAB_NAMES})
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SIMLAB_NAMES) | {"simlab"})
