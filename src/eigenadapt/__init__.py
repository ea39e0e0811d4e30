"""Adaptive finite elements for clusters of Dirichlet Laplacian eigenvalues.

The package computes the smallest eigenpairs of the Dirichlet Laplacian on
polygonal 2D domains (reentrant corners and slits included) with piecewise
linear or quadratic elements, estimates the pointwise error of a chosen
eigenvalue cluster with a residual-type max-norm indicator, and refines the
mesh by newest vertex bisection until a prescribed accuracy or size budget
is reached.

Module layout:

- ``geometry``:  domain descriptions and structured initial meshes
- ``mesh``:      conforming triangulations and bisection refinement
- ``fem``:       P1/P2 spaces, stiffness/mass assembly, shape functions,
                 element values, gradients and Laplacians
- ``eigen``:     sparse generalized eigensolver and cluster diagnostics
- ``estimator``: pointwise and energy-norm a posteriori indicators
- ``marking``:   maximum and Doerfler marking strategies
- ``adapt``:     the adaptive loop, configs, histories, rate fits
- ``cli``:       the ``eigenadapt`` command line driver
"""

__version__ = "0.1.0"

from .errors import ConfigError, GeometryError, MeshError, SolverError

__all__ = [
    "ConfigError",
    "GeometryError",
    "MeshError",
    "SolverError",
    "__version__",
]
