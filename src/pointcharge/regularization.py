"""Heaviside regularization families built from mollifiers on [1, 2].

H_eps(r) = integral of chi from 0 to r/eps, so H_eps vanishes for
r <= eps, equals 1 for r >= 2*eps, and H_eps' = chi(r/eps)/eps.  The
construction is pure scaling: H_eps(r) = H_1(r/eps).
"""

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import InvalidMollifier, SmoothnessRequired

# the mollifier integrals use GAUSS_PANELS equal panels of GAUSS_NODES
# Gauss-Legendre nodes; H_1 is a cubic Hermite interpolant on H1_CELLS
# equal cells of [1, 2], its knot values integrated by the same nodes
GAUSS_PANELS = 64
GAUSS_NODES = 16
H1_CELLS = 4000


@cache
def _legendre(n):
    # built once per n; every rule of n nodes shares the read-only table
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(edges, n):
    """Composite Gauss-Legendre rule, n nodes per cell of `edges`: nodes
    (cells, n), half-widths (cells, 1) and unit weights (n,); the integral
    over cell i is half[i] * (f(nodes[i]) @ w)."""
    x, w = _legendre(n)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return mid + half * x, half, w


def gauss_integral(f, a, b):
    """int_a^b f by the composite rule: GAUSS_PANELS panels of GAUSS_NODES
    Gauss-Legendre nodes; f must take an array."""
    x, half, w = gauss_panels(np.linspace(a, b, GAUSS_PANELS + 1), GAUSS_NODES)
    return float(np.sum(half[:, 0] * (f(x) @ w)))


def bump(u2):
    """The bump profile exp(-1/(1 - u2)) of a squared scaled coordinate u2,
    exactly 0 where u2 >= 1."""
    u2 = np.asarray(u2, dtype=float)
    out = np.zeros_like(u2)
    mask = u2 < 1.0
    out[mask] = np.exp(-1.0 / (1.0 - u2[mask]))
    return out


@dataclass(frozen=True)
class Mollifier:
    """Nonnegative unit-mass kernel supported in [1, 2]; smooth exactly
    when it has a derivative chi_prime (None for the piecewise kind)."""

    chi: callable
    chi_prime: callable
    label: str = "mollifier"

    @property
    def smooth(self):
        return self.chi_prime is not None


@lru_cache(maxsize=1)
def _bump_norm():
    return 2.0 / gauss_integral(lambda u: bump(u * u), -1.0, 1.0)


def bump_mollifier():
    """Smooth bump exp(-1/(1-u^2)) translated and scaled into [1, 2]."""
    c = _bump_norm()

    def chi(s):
        u = 2.0 * np.asarray(s, dtype=float) - 3.0
        return c * bump(u * u)

    def chi_prime(s):
        u = 2.0 * np.asarray(s, dtype=float) - 3.0
        out = np.zeros_like(u)
        # masked before dividing by w = 1 - u^2, which is 0 at s = 1, 2
        mask = np.abs(u) < 1.0
        um = u[mask]
        w = 1.0 - um * um
        # d/ds = 2 d/du; d/du exp(-1/w) = exp(-1/w) * (-2u/w^2)
        out[mask] = c * bump(um * um) * (-2.0 * um / (w * w)) * 2.0
        return out

    return Mollifier(chi=chi, chi_prime=chi_prime, label="bump")


def boxcar_mollifier():
    """Indicator of [1, 2]; non-smooth, used for closed-form oracle values."""

    def chi(s):
        s = np.asarray(s, dtype=float)
        return np.where((s >= 1.0) & (s <= 2.0), 1.0, 0.0)

    return Mollifier(chi=chi, chi_prime=None, label="boxcar")


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

    @cached_property
    def moments(self):
        """(m0, m2, max chi): m0 = int chi^2 and m2 = int chi^2/s^2 over
        [1, 2] by gauss_integral, and max chi on 20001 samples of [1, 2];
        computed once per family, so once per process per mollifier for
        the families that `family` builds."""
        chi = self.mollifier.chi
        m0 = gauss_integral(lambda s: chi(s) ** 2, 1.0, 2.0)
        m2 = gauss_integral(lambda s: chi(s) ** 2 / (s * s), 1.0, 2.0)
        return m0, m2, float(np.max(chi(np.linspace(1.0, 2.0, 20001))))

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


def _hermite_h1(chi):
    """H_1(t) = int_1^t chi as a cubic Hermite interpolant on H1_CELLS
    cells: knot values are the cumulative cell integrals, knot slopes are
    H_1' = chi, and everything is divided by the total so H_1(2) = 1."""
    xs = np.linspace(1.0, 2.0, H1_CELLS + 1)
    h = np.diff(xs)
    x, half, w = gauss_panels(xs, GAUSS_NODES)
    cells = half[:, 0] * (chi(x) @ w)
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    y, d = cum / cum[-1], chi(xs) / cum[-1]
    # power form in t - xs[i] on cell i; the mean slope comes from the
    # cell's own integral, not from a difference of two cumulative sums
    slope = cells / cum[-1] / h
    # one contiguous column per power, looked up by take
    c0, c1 = y[:-1], d[:-1]
    c2 = (3.0 * slope - 2.0 * d[:-1] - d[1:]) / h
    c3 = (d[:-1] + d[1:] - 2.0 * slope) / (h * h)

    def h1(t):
        t = np.asarray(t, dtype=float)
        i = np.clip(((t - 1.0) * H1_CELLS).astype(np.intp), 0, H1_CELLS - 1)
        u = t - xs.take(i)
        return c0.take(i) + u * (c1.take(i) + u * (c2.take(i) + u * c3.take(i)))

    return h1


def make_family(chi: Mollifier) -> HeavisideFamily:
    """Build the Heaviside family; validates the mollifier invariants (unit
    mass by gauss_integral to 1e-10, nonnegativity, support in [1, 2])."""
    total = gauss_integral(chi.chi, 1.0, 2.0)
    if abs(total - 1.0) > 1e-10:
        raise InvalidMollifier(f"mollifier mass is {total!r}, expected 1")
    probe = np.linspace(1.0, 2.0, 2001)
    if np.any(chi.chi(probe) < 0):
        raise InvalidMollifier("mollifier takes negative values")
    outside = np.concatenate([np.linspace(-1, 0.999, 100), np.linspace(2.001, 4, 100)])
    if np.any(np.abs(chi.chi(outside)) > 0):
        raise InvalidMollifier("mollifier support exceeds [1, 2]")

    if chi.smooth:
        h1 = _hermite_h1(chi.chi)
    else:
        h1 = lambda t: np.clip(np.asarray(t, dtype=float) - 1.0, 0.0, 1.0)
    return HeavisideFamily(mollifier=chi, _h1=h1)


def family(spec):
    """The Heaviside family of the mollifier named by spec ('bump' or
    'boxcar', surrounding blanks ignored), built once per process; a bad
    spec raises InvalidMollifier on every call."""
    return _family(spec.strip())


@cache
def _family(spec):
    # HeavisideFamily is frozen, so every caller can share one instance
    return make_family(parse_mollifier(spec))


@dataclass(frozen=True)
class FamilyReport:
    sup_eps_dH: float
    passed: bool


def family_check(fam, eps_grid):
    """Numerically verify, to 1e-9 on 3001 points of [0, 3 eps], nonnegativity,
    the support plateaus, and the uniform bound on eps*H_eps'."""
    tol = 1e-9
    eps_grid = np.asarray(eps_grid, dtype=float)
    passed = True
    sup_edh = 0.0
    for eps in eps_grid:
        r = np.linspace(0.0, 3.0 * eps, 3001)
        h = fam.H(r, eps)
        dh = fam.dH(r, eps)
        # (i) nonnegativity, (ii) H = 0 up to eps, (iii) H = 1 from 2 eps
        passed &= not (np.any(h < -tol) or np.any(dh < -tol)
                       or np.any(np.abs(h[r <= eps]) > tol)
                       or np.any(np.abs(h[r >= 2.0 * eps] - 1.0) > tol))
        sup_edh = max(sup_edh, float(eps * dh.max()))
    # (iv): eps*H' must not drift as eps shrinks (pure scaling => constant)
    per_eps = [float(np.max(eps * fam.dH(np.linspace(eps, 2 * eps, 2001), eps)))
               for eps in eps_grid]
    passed &= not max(per_eps) - min(per_eps) > 1e-6
    return FamilyReport(sup_eps_dH=sup_edh, passed=passed)


def geometric_grid(start=0.1, ratio=0.5, count=6):
    return start * ratio ** np.arange(count)
