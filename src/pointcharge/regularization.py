"""Heaviside regularization families built from mollifiers on [1, 2].

H_eps(r) = integral of chi from 0 to r/eps, so H_eps vanishes for
r <= eps, equals 1 for r >= 2*eps, and H_eps' = chi(r/eps)/eps.  The
construction is pure scaling: H_eps(r) = H_1(r/eps).
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .errors import DegenerateNet, InvalidMollifier, SmoothnessRequired


@dataclass(frozen=True)
class Mollifier:
    """Nonnegative unit-mass kernel supported in [s_lo, s_hi] = [1, 2]."""

    chi: callable
    chi_prime: callable  # None for the piecewise kind
    s_lo: float = 1.0
    s_hi: float = 2.0
    smooth: bool = True
    label: str = "mollifier"


@lru_cache(maxsize=1)
def _bump_norm():
    val, _ = quad(lambda u: np.exp(-1.0 / (1.0 - u * u)), -1.0, 1.0,
                  epsabs=1e-14, epsrel=1e-14)
    return 2.0 / val


def bump_mollifier():
    """Smooth bump exp(-1/(1-u^2)) translated and scaled into [1, 2]."""
    c = _bump_norm()

    def chi(s):
        s = np.asarray(s, dtype=float)
        u = 2.0 * s - 3.0
        out = np.zeros_like(u)
        mask = np.abs(u) < 1.0
        um = u[mask]
        out[mask] = c * np.exp(-1.0 / (1.0 - um * um))
        return out

    def chi_prime(s):
        s = np.asarray(s, dtype=float)
        u = 2.0 * s - 3.0
        out = np.zeros_like(u)
        mask = np.abs(u) < 1.0
        um = u[mask]
        w = 1.0 - um * um
        # d/ds = 2 d/du; d/du exp(-1/w) = exp(-1/w) * (-2u/w^2)
        out[mask] = c * np.exp(-1.0 / w) * (-2.0 * um / (w * w)) * 2.0
        return out

    return Mollifier(chi=chi, chi_prime=chi_prime, smooth=True, label="bump")


def boxcar_mollifier():
    """Indicator of [1, 2]; non-smooth, used for closed-form oracle values."""

    def chi(s):
        s = np.asarray(s, dtype=float)
        return np.where((s >= 1.0) & (s <= 2.0), 1.0, 0.0)

    return Mollifier(chi=chi, chi_prime=None, smooth=False, label="boxcar")


def parse_mollifier(spec):
    spec = spec.strip()
    if spec == "bump":
        return bump_mollifier()
    if spec == "boxcar":
        return boxcar_mollifier()
    raise InvalidMollifier(f"unknown mollifier {spec!r} (expected bump | boxcar)")


@dataclass(frozen=True)
class HeavisideFamily:
    """eps-family H_eps with analytic first and second derivatives.

    H, dH and d2H return an ndarray of r's shape (0-d for a scalar r)."""

    mollifier: Mollifier
    _h1: callable = field(repr=False, default=None)

    @property
    def smooth(self):
        return self.mollifier.smooth

    def H(self, r, eps):
        """H_eps(r); exactly 0 below eps and exactly 1 above 2*eps."""
        r = np.asarray(r, dtype=float)
        t = r / eps
        out = np.where(t >= 2.0, 1.0, 0.0)
        mask = (t > 1.0) & (t < 2.0)
        if np.any(mask):
            out[mask] = self._h1(t[mask])
        return out

    def dH(self, r, eps):
        """H_eps'(r) = chi(r/eps)/eps, analytic."""
        r = np.asarray(r, dtype=float)
        return np.asarray(self.mollifier.chi(r / eps) / eps)

    def d2H(self, r, eps):
        """H_eps''(r) = chi'(r/eps)/eps^2; requires a smooth mollifier."""
        if not self.smooth:
            raise SmoothnessRequired(
                f"H'' of the {self.mollifier.label} family is not a function"
            )
        r = np.asarray(r, dtype=float)
        return np.asarray(self.mollifier.chi_prime(r / eps) / (eps * eps))


def make_family(chi: Mollifier) -> HeavisideFamily:
    """Build the Heaviside family; validates the mollifier invariants."""
    total, _ = quad(chi.chi, chi.s_lo, chi.s_hi, epsabs=1e-13, limit=200)
    if abs(total - 1.0) > 1e-10:
        raise InvalidMollifier(f"mollifier mass is {total!r}, expected 1")
    probe = np.linspace(chi.s_lo, chi.s_hi, 2001)
    if np.any(chi.chi(probe) < 0):
        raise InvalidMollifier("mollifier takes negative values")
    outside = np.concatenate([np.linspace(-1, 0.999, 100), np.linspace(2.001, 4, 100)])
    if np.any(np.abs(chi.chi(outside)) > 0):
        raise InvalidMollifier("mollifier support exceeds [1, 2]")

    if chi.smooth:
        xs = np.linspace(1.0, 2.0, 4001)
        anti = CubicSpline(xs, chi.chi(xs)).antiderivative()
        scale = 1.0 / float(anti(2.0))  # remove the ~1e-13 spline mass defect
        h1 = lambda t: scale * anti(t)
    else:
        h1 = lambda t: np.clip(np.asarray(t, dtype=float) - 1.0, 0.0, 1.0)
    return HeavisideFamily(mollifier=chi, _h1=h1)


@dataclass(frozen=True)
class FamilyReport:
    sup_eps_dH: float
    argmax_r: float
    violations: tuple
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "fail"
        lines = [f"family check: {status}",
                 f"  sup eps*H' = {self.sup_eps_dH:.12g} at r = {self.argmax_r:g}"]
        lines += [f"  violated: {v}" for v in self.violations]
        return "\n".join(lines)


def family_check(fam, eps_grid):
    """Numerically verify, to 1e-9 on 3001 points of [0, 3 eps], nonnegativity,
    the support plateaus, and the uniform bound on eps*H_eps'."""
    tol = 1e-9
    eps_grid = np.asarray(eps_grid, dtype=float)
    violations = []
    sup_edh, arg_r = 0.0, 0.0
    for eps in eps_grid:
        r = np.linspace(0.0, 3.0 * eps, 3001)
        h = fam.H(r, eps)
        dh = fam.dH(r, eps)
        if np.any(h < -tol) or np.any(dh < -tol):
            violations.append(f"(i) negativity at eps={eps:g}")
        below = r <= eps
        if np.any(np.abs(h[below]) > tol):
            violations.append(f"(ii) H != 0 below eps at eps={eps:g}")
        above = r >= 2.0 * eps
        if np.any(np.abs(h[above] - 1.0) > tol):
            violations.append(f"(iii) H != 1 above 2*eps at eps={eps:g}")
        k = int(np.argmax(dh))
        if eps * dh[k] > sup_edh:
            sup_edh, arg_r = float(eps * dh[k]), float(r[k])
    # (iv): eps*H' must not drift as eps shrinks (pure scaling => constant)
    per_eps = [float(np.max(eps * fam.dH(np.linspace(eps, 2 * eps, 2001), eps)))
               for eps in eps_grid]
    spread = max(per_eps) - min(per_eps)
    if spread > 1e-6:
        violations.append(f"(iv) eps*H' not uniform over the grid, spread {spread:.3e}")
    return FamilyReport(sup_eps_dH=sup_edh, argmax_r=arg_r,
                        violations=tuple(violations), passed=not violations)


@dataclass(frozen=True)
class GeneralizedNet:
    """eps-indexed net of payloads on a strictly decreasing grid in (0, 1]."""

    eps: np.ndarray
    payloads: tuple

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        if np.any(eps <= 0) or np.any(eps > 1):
            raise ValueError("eps grid must lie in (0, 1]")
        if np.any(np.diff(eps) >= 0):
            raise ValueError("eps grid must be strictly decreasing")
        object.__setattr__(self, "eps", eps)
        if len(self.payloads) != eps.size:
            raise ValueError("one payload per eps required")


def geometric_grid(start=0.1, ratio=0.5, count=6):
    return start * ratio ** np.arange(count)


def moderateness_slope(net: GeneralizedNet, seminorm):
    """Least-squares slope of log p(u_eps) against log eps.

    A slope of -N estimates the moderateness exponent of the net.
    """
    if net.eps.size < 4:
        raise ValueError("need at least 4 grid points for a slope estimate")
    p = np.array([float(seminorm(u)) for u in net.payloads])
    if np.any(p == 0.0):
        raise DegenerateNet("negligible at machine precision")
    slope, _ = np.polyfit(np.log(net.eps), np.log(p), 1)
    return float(slope)
