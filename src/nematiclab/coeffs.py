"""Leslie viscosity coefficients and the coefficient functions of the
one-dimensional Poiseuille reduction.

The six viscosities are kept dimensionless.  The derived rotational and
stretching coefficients are lambda1 = mu3 - mu2 and lambda2 = mu6 - mu5.
Three relation groups are enforced on user-supplied sets:

  * the Onsager-Parodi relation  mu2 + mu3 = mu6 - mu5,
  * the compatibility condition  lambda1 > 0,
  * the dissipation inequalities mu4 > 0,
    2*mu1 + 3*mu4 + 2*mu5 + 2*mu6 > 0,
    2*mu4 + mu5 + mu6 > lambda2^2 / lambda1.

Strict inequalities are checked exactly (equality fails); Parodi is an
equation and gets a small absolute tolerance since inputs are decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PARODI_TOL = 1e-12


def _is_plus_zero(x: float) -> bool:
    return x == 0.0 and math.copysign(1.0, x) > 0.0


@dataclass(frozen=True)
class LeslieCoefficients:
    mu1: float
    mu2: float
    mu3: float
    mu4: float
    mu5: float
    mu6: float

    @property
    def lambda1(self) -> float:
        return self.mu3 - self.mu2

    @property
    def lambda2(self) -> float:
        return self.mu6 - self.mu5

    @property
    def g_weights(self) -> tuple[float, float]:
        """g's sin^2 and cos^2 weights ((mu5 - mu2)/2, (mu3 + mu6)/2)."""
        return 0.5 * (self.mu5 - self.mu2), 0.5 * (self.mu3 + self.mu6)

    @cached_property
    def constant_gh(self) -> tuple[np.float64, np.float64] | None:
        """(g, h) for the Poiseuille step when g and h do not depend on phi,
        else None; numpy scalars, converted once per coefficient set.

        When the three trig weights 0.25 mu1, 0.5 (b - a) and
        0.5 (mu3 + mu2) are +0.0 and 0.5 (mu3 - mu2) is not zero, each
        weighted trig term is a signed zero that leaves its sum unchanged,
        so g_coeff and h_coeff give these doubles wherever the trig values
        are finite (DECISIONS.md section 6).  The cache is per instance, so
        sets that differ only in the sign of a zero never share it."""
        a, b = self.g_weights
        trig = (0.25 * self.mu1, 0.5 * (b - a), 0.5 * (self.mu3 + self.mu2))
        if not all(map(_is_plus_zero, trig)) or 0.5 * (self.mu3 - self.mu2) == 0.0:
            return None
        return g_coeff(self, 0.0), h_coeff(self, 0.0)

    def as_tuple(self) -> tuple[float, ...]:
        return (self.mu1, self.mu2, self.mu3, self.mu4, self.mu5, self.mu6)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...]


def simplified_coefficients() -> LeslieCoefficients:
    """The simplified Poiseuille set (0, -1, 1, 3, 0, 0): lambda1=2, lambda2=0,
    g == 2 and h == 1 identically."""
    return LeslieCoefficients(0.0, -1.0, 1.0, 3.0, 0.0, 0.0)


def validate(c: LeslieCoefficients) -> ValidationResult:
    """Check the three relation groups; names every violated relation."""
    if not all(math.isfinite(m) for m in c.as_tuple()):
        raise ValueError("non-finite viscosity coefficient")
    violations: list[str] = []
    if abs((c.mu2 + c.mu3) - (c.mu6 - c.mu5)) > PARODI_TOL:
        violations.append("Parodi: mu2 + mu3 = mu6 - mu5")
    if not c.lambda1 > 0.0:
        violations.append("lambda1 = mu3 - mu2 > 0")
    if not c.mu4 > 0.0:
        violations.append("mu4 > 0")
    if not 2.0 * c.mu1 + 3.0 * c.mu4 + 2.0 * c.mu5 + 2.0 * c.mu6 > 0.0:
        violations.append("2*mu1 + 3*mu4 + 2*mu5 + 2*mu6 > 0")
    # The quotient needs lambda1 > 0; skip when that already failed.  A
    # product, unlike float **, gives inf rather than OverflowError.
    if c.lambda1 > 0.0 and not (
        2.0 * c.mu4 + c.mu5 + c.mu6 > c.lambda2 * c.lambda2 / c.lambda1
    ):
        violations.append("2*mu4 + mu5 + mu6 > lambda2^2/lambda1")
    return ValidationResult(not violations, tuple(violations))


def g_coeff(c: LeslieCoefficients, phi):
    """Velocity-equation coefficient
    g = mu1 sin^2 cos^2 + (mu5-mu2)/2 sin^2 + (mu3+mu6)/2 cos^2 + mu4/2,
    evaluated in double-angle form so constant cases (equal sin^2 and cos^2
    weights) come out exact, not within rounding of sin^2 + cos^2."""
    a, b = c.g_weights
    return (
        0.25 * c.mu1 * np.sin(2.0 * np.asarray(phi, dtype=float)) ** 2
        + 0.5 * (a + b)
        + 0.5 * (b - a) * np.cos(2.0 * np.asarray(phi, dtype=float))
        + 0.5 * c.mu4
    )


def h_coeff(c: LeslieCoefficients, phi):
    """Coupling coefficient h = mu3 cos^2 - mu2 sin^2, in the equivalent
    double-angle form (mu3-mu2)/2 + (mu3+mu2)/2 cos 2phi; equals
    (lambda1 + lambda2 cos 2phi)/2 whenever Parodi holds."""
    return 0.5 * (c.mu3 - c.mu2) + 0.5 * (c.mu3 + c.mu2) * np.cos(
        2.0 * np.asarray(phi, dtype=float)
    )


def sample_validated(rng: np.random.Generator) -> LeslieCoefficients:
    """Draw one coefficient set satisfying all relation groups by
    construction (Parodi pins mu6 once mu2, mu3, mu5 are drawn)."""
    mu2 = rng.uniform(-2.0, 1.0)
    lam1 = rng.uniform(0.2, 3.0)
    mu3 = mu2 + lam1
    mu5 = rng.uniform(-1.0, 1.0)
    lam2 = mu2 + mu3
    mu6 = mu5 + lam2
    mu4 = max(0.0, 0.5 * (lam2**2 / lam1 - mu5 - mu6)) + rng.uniform(0.5, 2.0)
    mu1 = max(0.0, 0.5 * (-3.0 * mu4 - 2.0 * mu5 - 2.0 * mu6)) + rng.uniform(0.1, 2.0)
    c = LeslieCoefficients(mu1, mu2, mu3, mu4, mu5, mu6)
    res = validate(c)
    if not res.ok:  # construction above should never fail
        raise RuntimeError(f"sampler produced invalid set: {res.violations}")
    return c
