"""Numerical laboratory for damping of the incoherent state in the mean-field
Kuramoto ensemble.

Modules by concern:

* ``distributions`` - frequency densities g(omega): values, Fourier
  transforms, moments, quadrature grids.
* ``dispersion`` - stability of the incoherent state: dispersion function,
  boundary criterion, winding-number index, critical couplings, unstable
  roots.
* ``volterra`` - the memory-kernel equation of the linearized order
  parameter: product-trapezoidal marching, decay fits, exponential-growth
  witnesses.
* ``spectral`` - nonlinear pseudo-spectral simulation of the perturbation:
  theta modes on a frequency grid, exact free transport, Sobolev
  diagnostics, scattering profiles, echo horizons.
* ``finiten`` - direct integration of the N-oscillator system for
  continuum comparison.
* ``blas`` - dot products kept below the sizes at which OpenBLAS wakes its
  worker threads.
* ``cli`` - config-driven experiment runner (``kuramoto-damping``).
"""

__version__ = "0.1.0"
