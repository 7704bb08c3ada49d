"""couplersim: desk-scale simulator for a parametrically driven
tunable-coupler unit (two transmons, one readout resonator, one
flux-modulated coupler).

Subpackages follow the physics: :mod:`~couplersim.numerics` (kernels),
:mod:`~couplersim.circuit` (static model), :mod:`~couplersim.floquet`
(modulated-coupler theory), :mod:`~couplersim.dynamics` (time-domain models),
:mod:`~couplersim.protocols` (reset, readout, CZ metrics),
:mod:`~couplersim.rbsim` (leakage randomized benchmarking) and
:mod:`~couplersim.cli` (scenario runner).
"""

__version__ = "0.1.0"

from . import circuit, dynamics, floquet, numerics, presets, protocols, rbsim  # noqa: E402,F401
