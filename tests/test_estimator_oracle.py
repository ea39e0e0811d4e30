"""The estimator kernels against the per-corner path they replaced.

The oracle below is the earlier implementation, kept here as it was: the
gradient at all three corners of every element for P1 as well as P2, jumps
at both endpoints of every edge in (nt, 3, 2, k) arrays, maxima over short
trailing axes, and the three-operand einsum for the energy mass term.  The
kernels evaluate the gradient only where it varies and lay the cluster out
as (k, nt, nd) blocks; every report array must agree to 1e-13 relative.
"""

import math

import numpy as np
import pytest

from eigenadapt.eigen import ClusterSelection, solve_smallest
from eigenadapt.estimator import (eta_energy, eta_energy_functions,
                                  eta_pointwise, eta_pointwise_functions)
from eigenadapt.fem import (_MASS_REF, assemble, block_laplacians, build_space,
                            shape_derivatives, shape_values)
from eigenadapt.geometry import builtin_domain, initial_mesh
from eigenadapt.mesh import LOCAL_EDGES

from mesh_helpers import uniform_refine

_INTERIOR_EPS = 1e-12


def _corner_gradients(space, coeffs):
    """Gradient at the three corners of every element of the (ndof, k)
    coefficient block, (nt, 3, 2, k)."""
    c = coeffs[space.elem_dofs]
    g = space.bary_grads[(...,) + (None,) * (c.ndim - 2)]
    corners = np.eye(3)[:1] if space.degree == 1 else np.eye(3)
    out = np.zeros(c.shape[:1] + (len(corners), 2) + c.shape[2:])
    for acc, table in zip(out.swapaxes(0, 1),
                          shape_derivatives(space.degree, corners)):
        for j, i in zip(*np.nonzero(table)):
            acc += table[j, i] * c[:, j, None] * g[:, i]
    return np.repeat(out, 3, axis=1) if space.degree == 1 else out


def _residual_max_p2(lam, space, coeffs, cg):
    lap = block_laplacians(space, coeffs.T[..., space.elem_dofs]).T
    q = lam * coeffs[space.elem_dofs] + lap[:, None]
    best = np.max(np.abs(q[:, :3]), axis=1)
    for m, (a, b) in enumerate(LOCAL_EDGES):
        qa, qb, qm = q[:, a], q[:, b], q[:, 3 + m]
        c2 = 2.0 * qa + 2.0 * qb - 4.0 * qm
        c1 = -3.0 * qa - qb + 4.0 * qm
        with np.errstate(divide="ignore", invalid="ignore"):
            tstar = -c1 / (2.0 * c2)
        inside = (c2 != 0.0) & (tstar > 0.0) & (tstar < 1.0)
        if np.any(inside):
            val = qa[inside] - c1[inside] ** 2 / (4.0 * c2[inside])
            best[inside] = np.maximum(best[inside], np.abs(val))
    cg = lam * cg
    d0 = cg[:, 0] - cg[:, 2]
    d1 = cg[:, 1] - cg[:, 2]
    det = d0[:, 0] * d1[:, 1] - d0[:, 1] * d1[:, 0]
    scale = np.max(np.abs(cg), axis=(1, 2))
    ok = np.abs(det) > 1e-14 * scale * scale + 1e-300
    rhs = -cg[:, 2]
    with np.errstate(all="ignore"):
        x = (rhs[:, 0] * d1[:, 1] - rhs[:, 1] * d1[:, 0]) / det
        y = (d0[:, 0] * rhs[:, 1] - d0[:, 1] * rhs[:, 0]) / det
        z = 1.0 - x - y
    strict = ok & (x > _INTERIOR_EPS) & (y > _INTERIOR_EPS) & (z > _INTERIOR_EPS)
    if np.any(strict):
        t, k = np.nonzero(strict)
        phi = shape_values(2, np.stack([x[strict], y[strict], z[strict]], axis=1))
        val = np.einsum("kj,kj->k", phi, q[t, :, k])
        best[strict] = np.maximum(best[strict], np.abs(val))
    return best


def _jump_endpoint_values(space, cg):
    tri = space.tri
    flux = np.take(cg[:, :, 0], LOCAL_EDGES, axis=1)
    flux *= space.edge_normals[:, :, None, 0, None]
    part = np.take(cg[:, :, 1], LOCAL_EDGES, axis=1)
    part *= space.edge_normals[:, :, None, 1, None]
    flux += part
    np.take(flux.reshape(-1, *flux.shape[2:]), tri.edge_mates, axis=0,
            out=part, mode="wrap")
    flux += part[:, :, ::-1]
    flux[tri.edge_mates < 0] = 0.0
    return flux


def _unit_scaled(coeff_list):
    coeffs = np.stack(coeff_list, axis=1)
    exponent = int(np.frexp(np.max(np.abs(coeffs), initial=0.0))[1])
    scale = math.ldexp(1.0, exponent - 1)
    return coeffs / scale, scale


def _oracle_pointwise(space, lambdas, coeff_list):
    lam = np.asarray(lambdas, dtype=np.float64)
    coeffs, scale = _unit_scaled(coeff_list)
    cg = _corner_gradients(space, coeffs)
    h = space.tri.h
    if space.degree == 1:
        best = lam * np.max(np.abs(coeffs[space.elem_dofs]), axis=1)
    else:
        best = _residual_max_p2(lam, space, coeffs, cg)
    jumps = _jump_endpoint_values(space, cg)
    jump_sum = np.sum(np.max(np.abs(jumps), axis=(1, 2)), axis=1)
    elem_part = h * h * np.sum(best, axis=1)
    jump_part = h * jump_sum
    return elem_part * scale, jump_part * scale, (elem_part + jump_part) * scale


def _oracle_energy(space, lambdas, coeff_list):
    lam = np.asarray(lambdas, dtype=np.float64)
    coeffs, scale = _unit_scaled(coeff_list)
    h = space.tri.h
    c = coeffs[space.elem_dofs]
    ref = _MASS_REF[space.degree]
    mass = np.einsum("tik,ij,tjk->tk", c, ref, c)
    elem_sq = np.sum(lam * lam * space.tri.areas[:, None] * mass, axis=1)
    j = _jump_endpoint_values(space, _corner_gradients(space, coeffs))
    j1, j2 = j[:, :, 0], j[:, :, 1]
    edge_int = space.edge_lengths[:, :, None] * (j1 * j1 + j1 * j2 + j2 * j2) / 3.0
    jump_sq = np.sum(np.sum(edge_int, axis=1), axis=1) * h
    elem_sq *= h * h
    return (np.sqrt(elem_sq) * scale, np.sqrt(jump_sq) * scale,
            np.sqrt(elem_sq + jump_sq) * scale)


_ORACLES = {"pointwise": (eta_pointwise_functions, _oracle_pointwise),
            "energy": (eta_energy_functions, _oracle_energy)}


def _assert_reports_match(space, kind, lams, coeffs):
    kernel, oracle = _ORACLES[kind]
    rep = kernel(space, lams, coeffs)
    elem, jump, eta = oracle(space, lams, list(coeffs))
    for got, want in ((rep.elem_part, elem), (rep.jump_part, jump),
                      (rep.eta, eta)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert rep.eta_max == pytest.approx(float(eta.max()), rel=1e-13)
    return rep


@pytest.fixture(scope="module")
def spaces():
    """P1 and P2 spaces on an L-shape and a once uniformly refined slit
    domain, whose slit faces are boundary edges."""
    out = {}
    for domain, tri in (("omega1", initial_mesh(builtin_domain("omega1"), 4)),
                        ("omega2", uniform_refine(
                            initial_mesh(builtin_domain("omega2"), 4)))):
        for degree in (1, 2):
            out[domain, degree] = build_space(tri, degree)
    return out


@pytest.mark.parametrize("kind", sorted(_ORACLES))
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("domain", ["omega1", "omega2"])
def test_kernels_match_per_corner_oracle(spaces, domain, degree, k, kind):
    space = spaces[domain, degree]
    rng = np.random.default_rng(100 * degree + k)
    lams = rng.uniform(1.0, 80.0, k)
    coeffs = rng.standard_normal((k, space.n_dofs))
    coeffs[:, space.is_dirichlet] = 0.0
    rep = _assert_reports_match(space, kind, lams, coeffs)
    assert np.all(rep.jump_part > 0.0)
    for s in (1e-160, 1e160):
        _assert_reports_match(space, kind, lams, s * coeffs)


@pytest.mark.parametrize("degree", [1, 2])
def test_slit_faces_carry_no_jump(spaces, degree):
    # u lives on the elements just above the slit y = 0, 0.5 <= x <= 1; the
    # elements just below meet it only across the slit, where a jump is not
    # a jump (each slit face is boundary)
    space = spaces["omega2", degree]
    p = space.tri.coords[space.tri.tris]
    on_slit = np.count_nonzero((p[..., 1] == 0.0) & (p[..., 0] >= 0.5), axis=1) == 2
    above = on_slit & (p[..., 1].max(axis=1) > 0.0)
    below = on_slit & (p[..., 1].min(axis=1) < 0.0)
    assert above.any() and below.any()
    coeffs = np.zeros(space.n_dofs)
    coeffs[space.elem_dofs[above]] = 1.0
    coeffs[space.is_dirichlet] = 0.0
    for kind in _ORACLES:
        rep = _assert_reports_match(space, kind, [3.0], coeffs[None, :])
        assert np.all(rep.jump_part[below] == 0.0)
        assert np.any(rep.jump_part[above] > 0.0)


@pytest.mark.parametrize("degree", [1, 2])
def test_solved_cluster_matches_oracle(degree):
    space = build_space(initial_mesh(builtin_domain("omega1"), 4), degree)
    A, M = assemble(space)
    pairs = solve_smallest(A, M, 5, seed=0)
    cluster = ClusterSelection(2, 4)
    full = np.zeros((3, space.n_dofs))
    full[:, space.free] = pairs.vectors[:, 1:4].T
    for kind, solved in (("pointwise", eta_pointwise), ("energy", eta_energy)):
        rep = solved(space, pairs, cluster)
        want = _ORACLES[kind][1](space, pairs.values[1:4], list(full))
        for got, ref in zip((rep.elem_part, rep.jump_part, rep.eta), want):
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
