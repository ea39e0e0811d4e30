"""Per-point finite element oracles shared by the test modules.

``values_at_bary`` and ``evaluate_gradient`` evaluate a function at one
barycentric point from the shape-function tables, the per-point path that
the estimators' whole-array kernels are checked against; ``interpolate`` is
the nodal interpolant and ``from_free_vector`` expands free-dof
coefficients to all dofs.  ``assemble_reference`` is the assembly path
that ``fem.assemble`` must match bit for bit.
"""

import numpy as np
import scipy.sparse

from eigenadapt.fem import (local_mass, local_stiffness, shape_derivatives,
                            shape_values)


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


def assemble_reference(space):
    """Stiffness and mass on the free dofs, each scattered on its own from
    int64 COO indices in the full dof numbering, then cut to the free rows
    and columns by scipy's ``[f][:, f]``, with the column indices of each
    row sorted."""
    nd = space.elem_dofs.shape[1]
    dofs = space.elem_dofs.astype(np.int64)
    rows = np.repeat(dofs, nd, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, nd)).reshape(-1)
    f = space.free
    return tuple(
        scipy.sparse.coo_matrix((local.reshape(-1), (rows, cols)),
                                shape=(space.n_dofs, space.n_dofs)
                                ).tocsr()[f][:, f].tocsr().sorted_indices()
        for local in (local_stiffness(space), local_mass(space)))
