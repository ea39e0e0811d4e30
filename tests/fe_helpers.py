"""Per-point finite element oracles shared by the test modules.

``evaluate_gradient`` evaluates one element's gradient at one point from the
shape-derivative table, the per-point path that the estimators' whole-array
kernels are checked against; ``interpolate`` is the nodal interpolant.
"""

import numpy as np

from eigenadapt.fem import shape_derivatives


def evaluate_gradient(space, coeffs, elem, bary) -> np.ndarray:
    """Gradient at a barycentric point of one element of the function with
    dof coefficients ``coeffs``."""
    table = shape_derivatives(space.degree, bary)
    return coeffs[space.elem_dofs[elem]] @ (table @ space.bary_grads[elem])


def interpolate(space, g) -> np.ndarray:
    """Nodal coefficients of a callable g(x, y); Dirichlet dofs are zeroed."""
    x, y = space.dof_coords[:, 0], space.dof_coords[:, 1]
    coeffs = np.array(g(x, y), dtype=np.float64)  # a copy: g may return x
    coeffs[space.is_dirichlet] = 0.0
    return coeffs
