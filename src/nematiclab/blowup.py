"""Finite-time blow-up detection and bubble-profile diagnostics.

Blow-up of the angle equation shows up as divergence of the origin gradient
phi_r(0, t).  A discrete run stops approximating the equation once the
gradient exceeds what the grid can resolve, so detection is declared at half
the resolvable slope, 0.5/dr.  Near blow-up the solution locally approaches
the stationary bubble 2 arctan(r/beta); the concentration scale is read off
the origin gradient as beta_hat = 2/phi_r(0) and the rescaled profile is
compared against the bubble on the inner region rho in [0, 1].  The origin
gradient is the one ``axisym.energy`` forms in its walk of a trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axisym import RadialGrid, RunTrace

PROFILE_MIN_GRADIENT = 100.0
BETA_FIT_MIN_SAMPLES = 20
MIN_SNAPSHOTS = 10  # a radial schedule that records fewer fails to parse


def extract_profile(grid: RadialGrid, phi: np.ndarray, grad: float) -> tuple[float, float]:
    """(beta_hat, profile_error): rescale by beta_hat = 2/grad, with grad
    the origin gradient of ``phi``, and measure the max-norm distance of
    phi(beta_hat * rho), rho in [0, 1] at 201 points, from the bubble
    2 arctan(rho); linear between nodes."""
    if grad < PROFILE_MIN_GRADIENT:
        raise ValueError(
            f"no bubble yet: origin gradient {grad:.3g} < {PROFILE_MIN_GRADIENT}"
        )
    beta_hat = 2.0 / grad
    rho = np.linspace(0.0, 1.0, 201)
    samples = np.interp(beta_hat * rho, grid.r, phi)
    error = float(np.max(np.abs(samples - 2.0 * np.arctan(rho))))
    return beta_hat, error


@dataclass
class BlowupReport:
    detected: bool
    t_detect: float | None
    times: np.ndarray
    grad_history: np.ndarray
    profile_beta: float | None
    profile_fit_error: float | None
    local_energy_radius: float | None
    hard_overflow: bool = False

    def as_dict(self) -> dict:
        return {
            "detected": self.detected,
            "t_detect": self.t_detect,
            "hard_overflow": self.hard_overflow,
            "profile_beta": self.profile_beta,
            "profile_fit_error": self.profile_fit_error,
            "local_energy_radius": self.local_energy_radius,
            "n_snapshots": int(len(self.times)),
            "final_gradient": float(self.grad_history[-1]),
            "max_gradient": float(np.max(self.grad_history)),
        }


def detect(
    trace: RunTrace, grads: np.ndarray, row: np.ndarray,
    local_energy_radius: float | None = 0.05,
) -> BlowupReport:
    """Scan a trace, whose origin gradient in each snapshot is ``grads``,
    for the first time that gradient exceeds the resolution cap 0.5/dr.

    A run that died on a non-finite field counts as detected with the
    hard-overflow flag.  Histories stop at the detection snapshot, and
    ``row`` is that snapshot, the one the bubble profile is read from: the
    first over the cap, else the last.
    """
    if trace.n_snapshots < MIN_SNAPSHOTS:
        raise ValueError(f"need {MIN_SNAPSHOTS} snapshots, trace has {trace.n_snapshots}")
    cap = 0.5 / trace.grid.dr

    over = np.nonzero(grads > cap)[0]
    hard = trace.halted and trace.halt_reason == "non-finite field"

    if len(over) == 0 and not hard:
        detected = False
        t_detect = None
        last = trace.n_snapshots - 1
    else:
        detected = True
        last = int(over[0]) if len(over) else trace.n_snapshots - 1
        t_detect = float(trace.times[last])

    times = trace.times[: last + 1]
    grads = grads[: last + 1]

    profile_beta = profile_err = None
    if detected and grads[last] >= PROFILE_MIN_GRADIENT:
        profile_beta, profile_err = extract_profile(trace.grid, row, grads[last])

    return BlowupReport(
        detected=detected,
        t_detect=t_detect,
        times=times,
        grad_history=grads,
        profile_beta=profile_beta,
        profile_fit_error=profile_err,
        local_energy_radius=local_energy_radius,
        hard_overflow=hard,
    )


def fit_beta_law(report: BlowupReport) -> tuple[float, float]:
    """Least-squares line through (t, beta_hat(t)^(1/3)); returns (slope, r2).

    The concentrating barrier's clock has slope -1/3; the fitted law of the
    actual run is reported, not asserted against it."""
    if not report.detected:
        raise ValueError("no blow-up detected")
    resolvable = report.grad_history >= PROFILE_MIN_GRADIENT
    t = report.times[resolvable]
    if len(t) < BETA_FIT_MIN_SAMPLES:
        raise ValueError(
            f"insufficient samples: {len(t)} < {BETA_FIT_MIN_SAMPLES}"
        )
    y = (2.0 / report.grad_history[resolvable]) ** (1.0 / 3.0)
    slope, intercept = np.polyfit(t, y, 1)
    fit = slope * t + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2
