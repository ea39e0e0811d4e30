"""Adaptive runs against eigenvalues known from outside this code.

The digests and slopes elsewhere compare the loop with its own records;
these values check the whole loop (window, inertia, rotation, estimator
and refinement) against numbers it could not have produced.

* ``omega1``, the L of three squares of side 1/2, has
  lambda_1 = 4 * 9.6397238440219410527... (Fox, Henrici and Moler, SIAM J.
  Numer. Anal. 4 (1967); Betcke and Trefethen, SIAM Review 47 (2005)),
  with an eigenfunction singular at the reentrant corner.
* ``omega1`` has lambda_3 = 8 pi^2: sin(2 pi x) sin(2 pi y) vanishes on
  every edge of the L.
* ``omega2`` has lambda_4 = 2 pi^2: sin(pi x) sin(pi y) vanishes on both
  axes, so on all four slits; it lies next to the double pair
  lambda_2 = lambda_3.

Conforming Galerkin values lie above the exact ones.  The tolerances were
set from one measured run each, before these tests were written: the
lambda_1 error slopes over the levels with N >= 1000 were -1.039 (P1) and
-2.014 (P2), the optimal adaptive rates N^-1 and N^-2; the final errors
were 1.429e-2 at N 10,930 (P1) and 3.185e-5 at N 11,277 (P2); the relative
errors of 8 pi^2 and 2 pi^2 were 9.03e-7 at N 10,993 and 8.96e-7 at
N 14,925.  Bounds allow 1.5 times those errors.
"""

import math

import numpy as np
import pytest

from eigenadapt import adapt
from eigenadapt.adapt import AdaptConfig, fit_rate_levels, run

LAMBDA1_OMEGA1 = 4.0 * 9.6397238440219410527


@pytest.mark.parametrize("degree, slope, final_err", [
    (1, (-1.15, -0.90), 1.5 * 1.429e-2),
    (2, (-2.20, -1.80), 1.5 * 3.185e-5),
], ids=["p1", "p2"])
def test_lshape_ground_state_converges_from_above_at_the_optimal_rate(
        degree, slope, final_err):
    config = AdaptConfig(domain="omega1", degree=degree, cluster_lo=1,
                         cluster_hi=1, max_dof=10000)
    history = run(config)
    assert history.stop_reason == "max_dof"
    lam = np.array([r.lambdas[0] for r in history.rows])
    assert np.all(lam >= LAMBDA1_OMEGA1 * (1.0 - config.eig_tol))
    err = lam - LAMBDA1_OMEGA1
    rate, _ = fit_rate_levels([r.level for r in history.rows],
                              [r.ndof for r in history.rows], err)
    assert slope[0] <= rate <= slope[1]
    assert err[-1] <= final_err


@pytest.mark.parametrize("domain, index, exact", [
    ("omega1", 3, 8.0 * math.pi ** 2),
    ("omega2", 4, 2.0 * math.pi ** 2),
], ids=["omega1_8pi2", "omega2_2pi2"])
def test_exact_eigenvalue_from_a_p2_window_solve(monkeypatch, domain, index,
                                                  exact):
    shifts = []
    solve = adapt.solve_smallest

    def recording(*args, **kwargs):
        shifts.append(kwargs.get("shift"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(adapt, "solve_smallest", recording)
    history = run(AdaptConfig(domain=domain, degree=2, cluster_lo=index,
                              cluster_hi=index, max_dof=10000))
    assert history.stop_reason == "max_dof"
    # the final level kept its window: no shift-zero fallback followed it
    assert shifts[-1] is not None
    lam = history.rows[-1].lambdas[0]
    assert 0.0 <= (lam - exact) / exact <= 1.5 * 9.03e-7
