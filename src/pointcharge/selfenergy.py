"""Rest-frame self-energies of the regularized charge and their eps-scaling.

U_ele^eps = (e^2/2) * int_eps^2eps H_eps'(r)^2 dr
U_mag^eps = (mu^2/3) * int_eps^2eps H_eps'(r)^2 / r^2 dr

With r = eps*s and H_eps' = chi(s)/eps both reduce to three moments of
the mollifier on [1, 2]: U_ele = e^2 m0/(2 eps), U_mag = mu^2 m2/(3 eps^3)
and c_eps = sup H_eps' = max chi/eps, where m0 = int chi^2 and
m2 = int chi^2/s^2.  So eps*U_ele and eps^3*U_mag are constant, and the
lower-bound chain c_eps >= 1/eps, a_eps >= 1/(8 eps^2 c_eps) >= c0/eps
quantifies the divergence; a_eps = (2/e^2) U_ele^eps = m0/eps.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .regularization import GeneralizedNet
from .retarded import _rtsafe

# fewest grid values divergence_bound_check accepts
MIN_BOUND_POINTS = 3


def _energies(fam, e, mu, eps):
    """(U_ele, U_mag, c_eps) at eps in (0, 1] and e, floats or arrays that
    broadcast, from the family's moments m0, m2 and max chi."""
    eps = np.asarray(eps, dtype=float)
    if not np.all((eps > 0.0) & (eps <= 1.0)):
        raise ValueError("eps must lie in (0, 1]")
    m0, m2, chi_max = fam.moments
    return 0.5 * e * e * m0 / eps, (mu * mu / 3.0) * m2 / eps ** 3, chi_max / eps


def u_ele(fam, e, eps):
    """Electric self-energy (e^2/2) int H'^2 dr = e^2 m0/(2 eps)."""
    return float(_energies(fam, e, 0.0, eps)[0])


def u_mag(fam, mu, eps):
    """Magnetic-dipole self-energy (mu^2/3) int H'^2/r^2 dr = mu^2 m2/(3 eps^3)."""
    return float(_energies(fam, 0.0, mu, eps)[1])


def sup_dh(fam, eps):
    """c_eps = sup of H_eps' over the shell = max chi/eps."""
    return float(_energies(fam, 0.0, 0.0, eps)[2])


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
    row_passed: np.ndarray     # one verdict per eps: no violation there
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "fail"
        lines = [f"self-energy bounds: {status}",
                 f"  c0 = {self.c0:.12g}"]
        lines += [f"  violated: {v}" for v in self.violations]
        return "\n".join(lines)


def divergence_bound_check(fam, eps_grid, e=1.0, mu=1.0):
    """Verify the divergence lower bounds on every grid point, up to a
    relative 1e-9.

    a_eps = (2/e^2) U_ele^eps = m0/eps must satisfy a_eps >= 1/(8 eps^2 c_eps)
    and a_eps >= c0/eps with c0 = 1/(8 sup_eps(eps c_eps)); c_eps >= 1/eps
    holds for any admissible family since int H' = 1 over a width-eps shell.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size < MIN_BOUND_POINTS:
        raise ValueError(f"need at least {MIN_BOUND_POINTS} grid points")
    # a_eps = 2 U_ele at e = 1 (row 1), so e = 0 needs no division by e;
    # an energy that overflows fails its row as non-finite
    with np.errstate(over="ignore"):
        (ue, ue1), um, c = _energies(fam, np.array([[e], [1.0]]), mu, eps_grid)
    a = 2.0 * ue1
    c0 = 1.0 / (8.0 * float(np.max(eps_grid * c)))
    bound = c0 / eps_grid
    rtol = 1e-9
    # each bound's failures, one per eps; a row passes when none fails
    failed = {
        "non-finite value": ~np.isfinite([ue, um, c, bound]).all(axis=0),
        "c_eps < 1/eps": c < (1.0 - rtol) / eps_grid,
        "a_eps < 1/(8 eps^2 c_eps)":
            a < (1.0 - rtol) / (8.0 * eps_grid * eps_grid * c),
        "a_eps < c0/eps": a < (1.0 - rtol) * bound,
    }
    violations = tuple(f"{name} at eps={t:g}" for i, t in enumerate(eps_grid)
                       for name, rows in failed.items() if rows[i])
    return SelfEnergyReport(
        eps=eps_grid, U_ele=ue, U_mag=um,
        eps_U_ele=eps_grid * ue, eps3_U_mag=eps_grid ** 3 * um,
        c_eps=c, c0=c0, lower_bound=bound, violations=violations,
        row_passed=~np.any(list(failed.values()), axis=0),
        passed=not violations,
    )


def energy_net(fam, eps_grid, e=1.0, mu=1.0):
    """Total self-energy as an eps-indexed net (never a single float)."""
    ue, um, _ = _energies(fam, e, mu, eps_grid)
    return GeneralizedNet(eps=eps_grid, payloads=tuple((ue + um).tolist()))


def mass_renormalize(fam, e, mu, target_mc2):
    """Find eps0 in (0, 1] with U_ele + U_mag = target_mc2.

    The total A/eps + B/eps^3, with A = U_ele(1) and B = U_mag(1), falls
    strictly on (0, 1] unless A = B = 0, so a unique solution exists iff
    T = target_mc2 >= A + B.  It lies in [max(A/T, (B/T)^(1/3)), 1]: at
    either candidate x, T x^3 - A x^2 - B <= 0, i.e. the total is >= T.
    On that bracket g(t) = T t^3 - A t^2 - B increases (g' = t(3Tt - 2A)
    > 0 for t > 2A/(3T)), so retarded._rtsafe's safeguarded Newton on g
    finds the root.
    """
    if not (np.isfinite(target_mc2) and target_mc2 > 0):
        raise OutOfRange("target mc^2 must be finite and positive")
    a, b, _ = (float(v) for v in _energies(fam, e, mu, 1.0))
    if a + b == 0.0:
        raise OutOfRange("the self-energy vanishes for e = mu = 0", infimum=0.0)
    if not a + b <= target_mc2:  # also a NaN total
        raise OutOfRange(
            f"target {target_mc2:g} below the self-energy at eps = 1",
            infimum=a + b,
        )

    def f(t):
        return a / t + b / t ** 3 - target_mc2

    def gdg(idx, t):
        return (target_mc2 * t ** 3 - a * t * t - b,
                t * (3.0 * target_mc2 * t - 2.0 * a), True)

    lo = max(a / target_mc2, (b / target_mc2) ** (1.0 / 3.0))
    # f(lo) <= 0 only by rounding, when one term alone makes lo the root;
    # the step tolerance scales with lo, since U ~ eps^-3 magnifies an
    # absolute error
    eps0 = lo
    if f(lo) > 0.0:
        tau, _ = _rtsafe(gdg, np.array([lo]), np.array([lo]), np.array([1.0]),
                         np.inf, 1e-15 * lo)
        eps0 = float(tau[0])
    if not abs(f(eps0)) <= 1e-10 * target_mc2:
        raise OutOfRange(f"|U(eps0) - target| = {abs(f(eps0)):.3e} exceeds "
                         f"1e-10 * target at eps0 = {eps0:.17g}")
    return eps0
