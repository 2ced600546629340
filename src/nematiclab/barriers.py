"""Closed-form barrier families for the axisymmetric angle equation and the
ordered-triple comparison harness.

Three families, with b = 3|lambda2|/lambda1:

  super   2 arctan( r exp(b t) / c)
  sub     2 arctan(-r exp(b t) / c)
  eta     2 arctan( r / beta(t)),   beta' = -beta^(2/3)

The concentration clock solves in closed form,
beta(t)^(1/3) = beta0^(1/3) - t/3, vanishing at t0 = 3 beta0^(1/3).

Residuals are evaluated from hand-derived closed forms of the defect

  lambda1 (f_t + r f_r) - f_rr - f_r/r + sin(2f)/(2 r^2)
      + 3 lambda2 sin(f) cos(f),

never by numerically differentiating the barrier, so the sign properties
carry no truncation noise.  The bubble profile annihilates the spatial
operator at every scale, leaving

  super:  (2 r c e^{bt} / (c^2 + r^2 e^{2bt})) (lambda1 (1+b)
              + 3 lambda2 cos f)            >= 0 always,
  eta:    (2 r / (beta^2 + r^2)) (lambda1 beta' + lambda1 beta
              + 3 lambda2 beta cos f)       <= 0 whenever
              beta0^(1/3) < lambda1 / (lambda1 + 3 |lambda2|).

The sub family mirrors super with flipped sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .axisym import RadialGrid, row_blocks
from .coeffs import LeslieCoefficients

BarrierKind = Literal["super", "sub", "eta"]


@dataclass(frozen=True)
class BetaClock:
    """beta(t) = (beta0^(1/3) - t/3)^3, strictly decreasing, gone at t0."""

    beta0: float

    def __post_init__(self):
        if self.beta0 <= 0.0:
            raise ValueError("beta0 must be positive")

    @property
    def t0(self) -> float:
        return 3.0 * self.beta0 ** (1.0 / 3.0)

    def beta(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t >= self.t0):
            raise ValueError(f"clock expired: t >= t0 = {self.t0:.6g}")
        return (self.beta0 ** (1.0 / 3.0) - t / 3.0) ** 3

    def beta_prime(self, t):
        return -self.beta(t) ** (2.0 / 3.0)


@dataclass(frozen=True)
class BarrierSpec:
    kind: BarrierKind
    c: float = 1.0  # super/sub width
    b: float = 0.0  # super/sub sharpening exponent, 3|lambda2|/lambda1
    beta0: float = 1.0  # eta clock start

    def clock(self) -> BetaClock:
        return BetaClock(self.beta0)


def _bubble_barrier(kind: BarrierKind, c: float, coeffs: LeslieCoefficients) -> BarrierSpec:
    if c <= 0.0:
        raise ValueError("c must be positive")
    return BarrierSpec(kind, c=c, b=3.0 * abs(coeffs.lambda2) / coeffs.lambda1)


def supersolution(c: float, coeffs: LeslieCoefficients) -> BarrierSpec:
    return _bubble_barrier("super", c, coeffs)


def subsolution(c: float, coeffs: LeslieCoefficients) -> BarrierSpec:
    return _bubble_barrier("sub", c, coeffs)


def eta_clock_limit(coeffs: LeslieCoefficients) -> float:
    """lambda1/(lambda1 + 3|lambda2|), the bound on an eta clock's beta0^(1/3)."""
    return coeffs.lambda1 / (coeffs.lambda1 + 3.0 * abs(coeffs.lambda2))


def eta_barrier(
    beta0: float, coeffs: LeslieCoefficients, strict: bool = True
) -> BarrierSpec:
    """The concentrating family; by default the clock constraint
    beta0^(1/3) < ``eta_clock_limit`` is enforced.  Pass strict=False only
    to build deliberately invalid negative controls."""
    if beta0 <= 0.0:
        raise ValueError("beta0 must be positive")
    limit = eta_clock_limit(coeffs)
    if strict and not beta0 ** (1.0 / 3.0) < limit:
        raise ValueError(
            f"beta0^(1/3) = {beta0 ** (1 / 3):.6g} must be < "
            f"lambda1/(lambda1+3|lambda2|) = {limit:.6g}"
        )
    return BarrierSpec("eta", beta0=beta0)


def barrier_value(spec: BarrierSpec, r, t):
    """Barrier value at (r, t); broadcasts over array arguments."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    # arctan saturates, so an overflowing exponential is benign; guard the
    # 0 * inf corner at the origin explicitly
    if spec.kind in ("super", "sub"):
        with np.errstate(over="ignore", invalid="ignore"):
            u = r * np.exp(spec.b * t) / spec.c
        u = np.where(np.asarray(r) == 0.0, 0.0, u)
        sign = 1.0 if spec.kind == "super" else -1.0
        return sign * 2.0 * np.arctan(u)
    beta = spec.clock().beta(t)
    return 2.0 * np.arctan(r / beta)


def barrier_residual(spec: BarrierSpec, coeffs: LeslieCoefficients, r, t):
    """Closed-form defect of the barrier; r = 0 gives 0 by continuity."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    l1, l2 = coeffs.lambda1, coeffs.lambda2
    if spec.kind in ("super", "sub"):
        # prefactor written to stay finite when exp(2bt) overflows: an inf
        # exponential collapses it to the correct limit 0
        with np.errstate(over="ignore"):
            ebt = np.exp(spec.b * t)
            pref = 2.0 * r * spec.c / (spec.c**2 / ebt + r**2 * ebt)
        cosf = np.cos(barrier_value(spec, r, t))
        bracket = l1 * (1.0 + spec.b) + 3.0 * l2 * cosf
        sign = 1.0 if spec.kind == "super" else -1.0
        return sign * pref * bracket
    clock = spec.clock()
    beta = clock.beta(t)
    pref = 2.0 * r / (beta**2 + r**2)
    cosf = np.cos(barrier_value(spec, r, t))
    return pref * (l1 * clock.beta_prime(t) + l1 * beta + 3.0 * l2 * beta * cosf)


# ---------------------------------------------------------------------------
# ordered-triple comparison harness


@dataclass(frozen=True)
class OrderingReport:
    """Worst signed violations of sub <= phi <= super over a run.
    Positive numbers are violations; the report passes when both stay at or
    below the discretisation tolerance."""

    passed: bool
    tolerance: float
    lower_worst: float
    lower_at: tuple[float, float]  # (t, r)
    upper_worst: float
    upper_at: tuple[float, float]

    def as_dict(self) -> dict:
        def clean(v):
            return None if not np.isfinite(v) else v

        return {
            "passed": self.passed,
            "tolerance": self.tolerance,
            "lower_worst": clean(self.lower_worst),
            "lower_at_t": self.lower_at[0],
            "lower_at_r": self.lower_at[1],
            "upper_worst": clean(self.upper_worst),
            "upper_at_t": self.upper_at[0],
            "upper_at_r": self.upper_at[1],
        }


class OrderingScan:
    """The per-snapshot reductions ``check_ordering`` folds in, block by
    block, for one run of at most ``rows`` snapshots against
    sub <= phi <= super.  Either side may be None to check a one-sided
    bound (no member of the bounded families dominates data exceeding pi,
    so blow-up runs only carry the lower bound).  The tolerance is
    10 (dr^2 + dt)."""

    def __init__(
        self, sub: BarrierSpec | None, sup: BarrierSpec | None, grid: RadialGrid, dt: float,
        rows: int,
    ):
        if sub is None and sup is None:
            raise ValueError("need at least one barrier")
        self.sub, self.sup, self.grid = sub, sup, grid
        self.tol = 10.0 * (grid.dr**2 + dt)
        # per side [lower 0, upper 1] and snapshot: the worst violation, its
        # first node and the worst edge violation, filled in place so that no
        # block leaves arrays behind
        self.worst, self.edge = np.empty((2, rows)), np.empty((2, rows))
        self.node = np.empty((2, rows), dtype=int)
        self.rows = 0  # snapshots folded in

    def report(self, times: np.ndarray) -> OrderingReport:
        """The worst violations over every snapshot folded in, whose times
        begin ``times``.

        Requires the ordering to hold at t = 0 and on r in {0, 1} within the
        tolerance; a violated precondition means the harness was
        misconfigured and raises instead of reporting a comparison failure.
        One ``np.argmax`` over the snapshots reports the first worst node in
        row-major order, a nan counting as worst."""
        n = self.rows
        worst, node, edge = self.worst[:, :n], self.node[:, :n], self.edge[:, :n]
        tol = self.tol
        precondition = max(worst[0, 0], worst[1, 0], np.max(edge[0]), np.max(edge[1]))
        if precondition > tol:
            raise ValueError(
                "ordering precondition fails at t=0 or on the boundary "
                f"(worst {precondition:.3e} > tol {tol:.3e})"
            )

        (lower_worst, lower_at), (upper_worst, upper_at) = (
            (float(worst[side, i]), (float(times[i]), float(self.grid.r[node[side, i]])))
            for side, i in enumerate(np.argmax(worst, axis=1))
        )
        return OrderingReport(
            passed=max(lower_worst, upper_worst) <= tol,
            tolerance=tol,
            lower_worst=lower_worst,
            lower_at=lower_at,
            upper_worst=upper_worst,
            upper_at=upper_at,
        )


def check_ordering(scan: OrderingScan, times: np.ndarray, phis: np.ndarray) -> None:
    """Fold the snapshots ``phis`` (rows), at ``times``, into ``scan``,
    walking them in the row blocks of ``row_blocks``: per snapshot and side
    the worst violation, its first node and the worst edge violation."""
    sub, sup = scan.sub, scan.sup
    r = scan.grid.r[np.newaxis, :]
    for rows in row_blocks(*phis.shape):
        t = times[rows, np.newaxis]
        phi = phis[rows]
        neg_inf = np.full_like(phi, -np.inf)
        low_viol = (barrier_value(sub, r, t) - phi) if sub is not None else neg_inf
        up_viol = (phi - barrier_value(sup, r, t)) if sup is not None else neg_inf
        at = slice(scan.rows, scan.rows + len(phi))
        for side, viol in enumerate((low_viol, up_viol)):
            k = scan.node[side, at] = np.argmax(viol, axis=1)
            scan.worst[side, at] = np.take_along_axis(viol, k[:, np.newaxis], axis=1)[:, 0]
            scan.edge[side, at] = np.max(viol[:, [0, -1]], axis=1)
        scan.rows = at.stop
