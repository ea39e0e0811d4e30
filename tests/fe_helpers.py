"""Per-point finite element oracles shared by the test modules.

``values_at_bary`` and ``evaluate_gradient`` evaluate a function at one
barycentric point from the shape-function tables, the per-point path that
the estimators' whole-array kernels are checked against; ``interpolate`` is
the nodal interpolant and ``from_free_vector`` expands free-dof
coefficients to all dofs.
"""

import numpy as np

from eigenadapt.fem import shape_derivatives, shape_values


def values_at_bary(space, coeffs, bary) -> np.ndarray:
    """Values of the function with dof coefficients ``coeffs`` at one
    barycentric point in every element, shape (nt,)."""
    return coeffs[space.elem_dofs] @ shape_values(space.degree, bary)


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


def from_free_vector(space, vec) -> np.ndarray:
    """Expand free-dof coefficients, a vector or an (n_free, k) block, to
    coefficients over all dofs, zero on the Dirichlet ones."""
    coeffs = np.zeros((space.n_dofs,) + vec.shape[1:])
    coeffs[space.free] = vec
    return coeffs
