"""couplersim: desk-scale simulator for a parametrically driven
tunable-coupler unit (two transmons, one readout resonator, one
flux-modulated coupler).

Subpackages follow the physics: :mod:`~couplersim.numerics` (kernels),
:mod:`~couplersim.circuit` (static model), :mod:`~couplersim.floquet`
(modulated-coupler theory), :mod:`~couplersim.dynamics` (time-domain models),
:mod:`~couplersim.protocols` (reset, readout, CZ metrics),
:mod:`~couplersim.rbsim` (leakage randomized benchmarking) and
:mod:`~couplersim.cli` (scenario runner).

Import rule: each ``couplersim run`` is its own process and pays for every
module it imports, so a process imports only what its scenario runs.
``import couplersim`` imports no submodule; import the ones you use.  The
modules import only the standard library, numpy and PyYAML at module level,
and no module-level code calls a numpy function that loads ``numpy.ma``
(numpy 2.4's ``np.unique`` does).  ``import couplersim.cli`` loads
``circuit``, ``numerics``, ``dynamics``, ``floquet`` and ``presets``, but
neither ``rbsim`` nor ``protocols``, nor scipy nor ``numpy.ma``.  A
scenario imports the rest when it is checked or run: ``leakage-rb`` and
``periodic-lr`` import ``rbsim``; ``reset-metrics``, ``readout-shots`` and
``cz-chevron`` import ``protocols``; ``couplersim list`` imports both.  Only
``rbsim`` imports scipy, at the top of the two functions that call it, so of
the scenarios only ``leakage-rb`` loads scipy (``scipy.linalg`` and
``scipy.optimize``).  ``tests/test_import_path.py`` pins each of these
module sets.  The process entry point (:func:`couplersim.cli.entry`)
freezes the garbage collector once the run is done: the interpreter's
final collection then skips every object alive at that point, numpy's,
PyYAML's and scipy's module state among them, and the process exits sooner
(interpreter shutdown 31 -> 7 ms on a shared 2-vCPU host, 95 -> 21 ms once
``leakage-rb`` has loaded scipy).  :func:`couplersim.cli.main` called in
process keeps its collector.  The test oracles, the ODE integrators and
root finders that check the scenario models, are not part of the package:
they live in ``tests/oracles.py``.

Thread rule: when numpy is not loaded yet and the caller left
``OPENBLAS_NUM_THREADS`` unset, this module sets it to 1.  Every BLAS call
of the package works on operands of at most 36x36 or on stacks of 6x6, too
small to gain from threads, yet numpy's and scipy's bundled OpenBLAS each
start a worker thread when they load, which busy-waits on another core
while the import runs and after each threaded call.  OpenBLAS reads the
variable only when it loads, so the limit holds for every process that
imports couplersim before numpy, which includes every ``couplersim run``.
A host program that loaded numpy first keeps its threaded BLAS, and the
variable stays unset, so the processes that host starts later keep theirs
too.  To run the BLAS threaded, set ``OPENBLAS_NUM_THREADS`` before the
import; the value set wins.  What the rule found is kept in
:data:`OPENBLAS_CALLER` and :data:`OPENBLAS_ONE_THREAD`, which each run's
manifest records.
"""

import os
import sys

#: ``OPENBLAS_NUM_THREADS`` as the caller set it, ``None`` when unset
OPENBLAS_CALLER = os.environ.get("OPENBLAS_NUM_THREADS")
#: whether the thread rule took effect: the caller left the variable unset
#: and numpy had not loaded its OpenBLAS yet
OPENBLAS_ONE_THREAD = OPENBLAS_CALLER is None and "numpy" not in sys.modules

# before any numpy import: OpenBLAS starts its workers when it loads
if OPENBLAS_ONE_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
