"""Gaussian-state information geometry toolkit: a plain namespace of modules.

Each name is imported from the module that defines it: ``symplectic``
(orderings, forms, covariance matrices, spectra), ``states`` (the canonical
two-mode family and its verdicts), ``fisher`` (metrics, distances, volumes),
``oscillator`` (the deformed anisotropic oscillator), ``bipartite`` (the
Bopp-shift pair), ``matrixio``, ``randmat``, ``selftest``, ``policy``,
``errors`` and ``cli``.
"""

__version__ = "0.1.0"
