"""Rest-frame self-energies of the regularized charge and their eps-scaling.

U_ele^eps = (e^2/2) * int_eps^2eps H_eps'(r)^2 dr
U_mag^eps = (mu^2/3) * int_eps^2eps H_eps'(r)^2 / r^2 dr

Both diverge as eps -> 0 with the exact scaling laws eps*U_ele = const and
eps^3*U_mag = const (substitute r = eps*t).  The lower-bound chain
c_eps >= 1/eps, a_eps >= 1/(8 eps^2 c_eps) >= c0/eps quantifies the
divergence; a_eps = (2/e^2) U_ele^eps.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import OutOfRange
from .regularization import GeneralizedNet


def _int_dh_sq(fam, eps, weight=None):
    f = (lambda r: fam.dH(r, eps) ** 2) if weight is None \
        else (lambda r: fam.dH(r, eps) ** 2 * weight(r))
    val, _ = quad(f, eps, 2.0 * eps, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def u_ele(fam, e, eps):
    """Electric self-energy (e^2/2) * int H'^2 dr."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if e == 0.0:
        return 0.0
    return 0.5 * e * e * _int_dh_sq(fam, eps)


def u_mag(fam, mu, eps):
    """Magnetic-dipole self-energy (mu^2/3) * int H'^2 / r^2 dr."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if mu == 0.0:
        return 0.0
    return (mu * mu / 3.0) * _int_dh_sq(fam, eps, weight=lambda r: 1.0 / (r * r))


def u_ele_from_field(fam, e, eps):
    """(1/8pi) int |E|^2 over R^3 by radial quadrature; cross-checks u_ele.

    E = e*(H/r^2 - H'/r) r-hat, so the integral is
    (1/2) int_0^inf (H/r^2 - H'/r)^2 r^2 dr; the integrand vanishes below
    eps and equals e^2/r^2 above 2*eps, leaving the analytic tail
    e^2/(4*eps) beyond the shell.
    """
    def f(r):
        return (fam.H(r, eps) / r - fam.dH(r, eps)) ** 2
    val, _ = quad(f, eps, 2.0 * eps, epsabs=0.0, epsrel=1e-12, limit=200)
    tail = 1.0 / (2.0 * eps)
    return 0.5 * e * e * (val + tail)


def sup_dh(fam, eps, n=20001):
    """c_eps = sup of H_eps' over the shell, by dense sampling."""
    r = np.linspace(eps, 2.0 * eps, n)
    return float(np.max(fam.dH(r, eps)))


@dataclass(frozen=True)
class SelfEnergyReport:
    eps: np.ndarray
    U_ele: np.ndarray
    U_mag: np.ndarray
    eps_U_ele: np.ndarray      # should be constant in eps
    eps3_U_mag: np.ndarray     # should be constant in eps
    c_eps: np.ndarray
    c0: float
    lower_bound: np.ndarray    # c0/eps, must bound a_eps from below
    violations: tuple
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "fail"
        lines = [f"self-energy bounds: {status}",
                 f"  c0 = {self.c0:.12g}"]
        lines += [f"  violated: {v}" for v in self.violations]
        return "\n".join(lines)


def divergence_bound_check(fam, eps_grid, e=1.0, mu=1.0, rtol=1e-9):
    """Verify the divergence lower bounds on every grid point.

    a_eps = (2/e^2) U_ele^eps must satisfy a_eps >= 1/(8 eps^2 c_eps) and
    a_eps >= c0/eps with c0 = 1/(8 sup_eps(eps c_eps)); c_eps >= 1/eps
    holds for any admissible family since int H' = 1 over a width-eps shell.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size < 3:
        raise ValueError("need at least 3 grid points")
    ue = np.array([u_ele(fam, e, t) for t in eps_grid])
    um = np.array([u_mag(fam, mu, t) for t in eps_grid])
    c = np.array([sup_dh(fam, t) for t in eps_grid])
    a = (2.0 / (e * e)) * ue
    c0 = 1.0 / (8.0 * float(np.max(eps_grid * c)))
    bound = c0 / eps_grid
    violations = []
    for i, t in enumerate(eps_grid):
        if not np.isfinite([ue[i], um[i], c[i], bound[i]]).all():
            violations.append(f"non-finite value at eps={t:g}")
        if c[i] < (1.0 - rtol) / t:
            violations.append(f"c_eps < 1/eps at eps={t:g}")
        if a[i] < (1.0 - rtol) / (8.0 * t * t * c[i]):
            violations.append(f"a_eps < 1/(8 eps^2 c_eps) at eps={t:g}")
        if a[i] < (1.0 - rtol) * bound[i]:
            violations.append(f"a_eps < c0/eps at eps={t:g}")
    return SelfEnergyReport(
        eps=eps_grid, U_ele=ue, U_mag=um,
        eps_U_ele=eps_grid * ue, eps3_U_mag=eps_grid ** 3 * um,
        c_eps=c, c0=c0, lower_bound=bound,
        violations=tuple(violations), passed=not violations,
    )


def energy_net(fam, eps_grid, e=1.0, mu=1.0):
    """Total self-energy as an eps-indexed net (never a single float)."""
    eps_grid = np.asarray(eps_grid, dtype=float)
    vals = tuple(u_ele(fam, e, t) + u_mag(fam, mu, t) for t in eps_grid)
    return GeneralizedNet(eps=eps_grid, payloads=vals)


def mass_renormalize(fam, e, mu, target_mc2, tol=1e-10):
    """Find eps0 in (0, 1] with U_ele + U_mag = target_mc2.

    The total is continuous, decreasing in eps on the scaled families and
    divergent as eps -> 0, so a unique solution exists iff the target is
    at least the value at eps = 1.
    """
    if target_mc2 <= 0:
        raise OutOfRange("target mc^2 must be positive")

    def f(t):
        return u_ele(fam, e, t) + u_mag(fam, mu, t) - target_mc2

    f_hi = f(1.0)
    if f_hi > 0:
        raise OutOfRange(
            f"target {target_mc2:g} below the self-energy at eps = 1",
            infimum=f_hi + target_mc2,
        )
    lo = 1.0
    for _ in range(200):
        lo *= 0.5
        if f(lo) > 0:
            break
    else:  # pragma: no cover - total diverges as eps -> 0
        raise OutOfRange("could not bracket the target")
    eps0 = brentq(f, lo, 1.0, xtol=1e-15, rtol=8.9e-16)
    if abs(f(eps0)) <= tol * target_mc2:
        return eps0
    # fall back to bisection on the residual (not the argument)
    a, b = lo, 1.0
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if abs(fm) <= tol * target_mc2:
            return mid
        if fm > 0:
            a = mid
        else:
            b = mid
    raise OutOfRange("bisection failed to reach the residual tolerance")
