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
"""

__version__ = "0.1.0"

from . import circuit, dynamics, floquet, numerics, presets, protocols, rbsim  # noqa: E402,F401
