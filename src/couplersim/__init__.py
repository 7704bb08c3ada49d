"""couplersim: desk-scale simulator for a parametrically driven
tunable-coupler unit (two transmons, one readout resonator, one
flux-modulated coupler).

Subpackages follow the physics: :mod:`~couplersim.numerics` (kernels),
:mod:`~couplersim.circuit` (static model), :mod:`~couplersim.floquet`
(modulated-coupler theory), :mod:`~couplersim.dynamics` (time-domain models),
:mod:`~couplersim.protocols` (reset, readout, CZ metrics),
:mod:`~couplersim.rbsim` (leakage randomized benchmarking) and
:mod:`~couplersim.cli` (scenario runner).

Import rule: the modules import only the standard library, numpy and PyYAML
at module level.  Only :mod:`~couplersim.rbsim` imports scipy, at the top of
the two functions that call it, because each ``couplersim run`` is its own
process and pays for every module the package imports; for the same reason
no module-level code calls a numpy function that loads ``numpy.ma`` (numpy
2.4's ``np.unique`` does).  ``import couplersim.cli`` therefore loads
neither scipy nor ``numpy.ma`` (``tests/test_import_path.py``), and of the
scenarios only ``leakage-rb`` loads scipy (``scipy.linalg`` and
``scipy.optimize``); the other eight load none.  The test oracles, the
ODE integrators and root finders that check the scenario models, are not
part of the package: they live in ``tests/oracles.py``.

Thread rule: before numpy is imported, this module sets
``OPENBLAS_NUM_THREADS`` to 1 unless the caller set it.  Every BLAS call of
the package works on operands of at most 36x36 or on stacks of 6x6, too
small to gain from threads, yet numpy's and scipy's bundled OpenBLAS each
start a worker thread when they load, which busy-waits on another core
while the import runs and after each threaded call.  OpenBLAS reads the variable only when it
loads, so the limit holds for every process that imports couplersim before
numpy, which includes every ``couplersim run``; a host program that loaded
numpy first keeps its threaded BLAS.  To run the BLAS threaded, set
``OPENBLAS_NUM_THREADS`` before the import; the value set wins.  What the
rule found is kept in :data:`OPENBLAS_CALLER` and :data:`OPENBLAS_ONE_THREAD`,
which each run's manifest records.
"""

import os
import sys

#: ``OPENBLAS_NUM_THREADS`` as the caller set it, ``None`` when unset
OPENBLAS_CALLER = os.environ.get("OPENBLAS_NUM_THREADS")
#: whether the thread rule took effect: the caller left the variable unset
#: and numpy had not loaded its OpenBLAS yet
OPENBLAS_ONE_THREAD = OPENBLAS_CALLER is None and "numpy" not in sys.modules

# before any numpy import: OpenBLAS starts its workers when it loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from . import circuit, dynamics, floquet, numerics, presets, protocols, rbsim  # noqa: E402,F401
