"""Marking strategies turning estimator reports into refinement sets."""

from __future__ import annotations

import logging

import numpy as np

from .estimator import EstimatorReport
from .mesh import MarkSet

log = logging.getLogger(__name__)


def mark_max(report: EstimatorReport, theta: float) -> MarkSet:
    """Maximum strategy: mark every T with eta(T) >= theta * max eta.

    Ties at the threshold are included, so the result is independent of
    element ordering.  An all-zero estimator yields an empty mark set and a
    logged warning (the adaptive loop treats that as converged).
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    eta = report.eta
    if report.eta_max <= 0.0:
        log.warning("estimator vanished on every element; nothing to mark")
        return MarkSet(elements=np.empty(0, dtype=np.int64))
    return MarkSet.from_iterable(np.nonzero(eta >= theta * report.eta_max)[0])


def mark_doerfler(report: EstimatorReport, theta: float,
                  bulk: str = "squared") -> MarkSet:
    """Bulk chasing: smallest set holding a theta fraction of the total mass.

    With ``bulk="squared"`` (the default) the mass of an element is eta^2 and
    the target is theta^2 * sum eta^2.  With ``bulk="value"`` the mass is eta
    itself and the target is theta * sum eta; this variant spreads the marked
    set wider when the estimator distribution is flat.  Masses are formed
    from eta / max eta, so the marked set does not depend on the scale of
    eta (squares of raw values underflow or overflow at the ends of the
    double range).  Elements are taken greedily by decreasing eta, ties
    broken by element index, so the marked set is the canonical minimal one.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    if bulk not in ("squared", "value"):
        raise ValueError(f"bulk must be 'squared' or 'value', got {bulk!r}")
    eta = report.eta
    scale = float(eta.max())
    if scale <= 0.0:
        log.warning("estimator vanished on every element; nothing to mark")
        return MarkSet(elements=np.empty(0, dtype=np.int64))
    x = eta / scale
    mass = x * x if bulk == "squared" else x
    frac = theta * theta if bulk == "squared" else theta
    order = np.lexsort((np.arange(eta.size), -eta))
    csum = np.cumsum(mass[order])
    total = float(csum[-1])
    # target derives from the sequential cumulative sum so that theta=1
    # selects exactly the positive-eta prefix; the slack keeps exact-equality
    # targets from spilling over by one element through rounding
    k = int(np.searchsorted(csum, frac * total - 1e-12 * total, side="left"))
    k = min(k, eta.size - 1)
    return MarkSet.from_iterable(order[:k + 1])
