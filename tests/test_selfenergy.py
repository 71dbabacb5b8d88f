import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from pointcharge.errors import OutOfRange
from pointcharge.regularization import (
    boxcar_mollifier,
    bump_mollifier,
    geometric_grid,
    make_family,
)
from pointcharge.selfenergy import (
    divergence_bound_check,
    energies,
    mass_renormalize,
)

BUMP = make_family(bump_mollifier())
BOX = make_family(boxcar_mollifier())
GRID = geometric_grid()


def int_dh_sq(fam, eps, weight=None):
    """int_eps^2eps H_eps'^2 (times weight) dr by quad at this eps: the
    oracle for the eps-scaling that selfenergy computes from moments."""
    f = (lambda r: fam.dH(r, eps) ** 2) if weight is None \
        else (lambda r: fam.dH(r, eps) ** 2 * weight(r))
    val, _ = quad(f, eps, 2.0 * eps, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def u_ele_from_field(fam, e, eps):
    """(1/8pi) int |E|^2 over R^3 by radial quadrature; cross-checks U_ele.

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


def chi_moments(fam):
    m0, _ = quad(lambda s: fam.mollifier.chi(s) ** 2, 1.0, 2.0, epsrel=1e-13)
    m2, _ = quad(lambda s: fam.mollifier.chi(s) ** 2 / s ** 2, 1.0, 2.0,
                 epsrel=1e-13)
    return m0, m2


@pytest.mark.parametrize("fam", [BUMP, BOX], ids=["bump", "boxcar"])
def test_energies_match_per_eps_quadrature(fam):
    e, mu = 1.7, 0.6
    for eps in GRID:
        ele = 0.5 * e * e * int_dh_sq(fam, eps)
        mag = mu * mu / 3.0 * int_dh_sq(fam, eps, lambda r: 1.0 / (r * r))
        u_ele, u_mag, _ = energies(fam, e, mu, eps)
        assert u_ele == pytest.approx(ele, rel=1e-10, abs=0.0)
        assert u_mag == pytest.approx(mag, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("fam", [BUMP, BOX], ids=["bump", "boxcar"])
def test_sup_dh_matches_dense_sampling(fam):
    for eps in GRID:
        dense = np.max(fam.dH(np.linspace(eps, 2.0 * eps, 20001), eps))
        assert energies(fam, 0.0, 0.0, eps)[2] == pytest.approx(
            dense, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("fam", [BUMP, BOX], ids=["bump", "boxcar"])
def test_mass_renormalize_single_term_roots(fam):
    m0, m2 = chi_moments(fam)
    for target in (2.0, 37.0, 4e6):
        # mu = 0: U = A/eps, root A/T; e = 0: U = B/eps^3, root (B/T)^(1/3)
        assert mass_renormalize(fam, 1.5, 0.0, target) == pytest.approx(
            0.5 * 1.5 ** 2 * m0 / target, rel=1e-12)
        assert mass_renormalize(fam, 0.0, 1.5, target) == pytest.approx(
            (1.5 ** 2 * m2 / 3.0 / target) ** (1.0 / 3.0), rel=1e-12)
    with pytest.raises(OutOfRange):
        mass_renormalize(fam, 0.0, 0.0, 5.0)


def test_boxcar_closed_forms():
    for eps in GRID:
        u_ele, u_mag, _ = energies(BOX, 1.0, 1.0, eps)
        assert u_ele == pytest.approx(1.0 / (2 * eps), rel=1e-12)
        assert u_mag == pytest.approx(1.0 / (6 * eps ** 3), rel=1e-12)


def test_scaling_laws():
    e, mu = 2.0, 0.5
    u_ele, u_mag, _ = energies(BUMP, e, mu, GRID)
    ue, um = GRID * u_ele, GRID ** 3 * u_mag
    assert np.abs(ue / ue[0] - 1.0).max() < 1e-8
    assert np.abs(um / um[0] - 1.0).max() < 1e-8
    # the constants are the chi moments
    chi2, _ = quad(lambda t: BUMP.mollifier.chi(t) ** 2, 1.0, 2.0, epsrel=1e-12)
    chi2_w, _ = quad(lambda t: BUMP.mollifier.chi(t) ** 2 / t ** 2, 1.0, 2.0,
                     epsrel=1e-12)
    assert ue[0] == pytest.approx(0.5 * e * e * chi2, rel=1e-9)
    assert um[0] == pytest.approx(mu * mu / 3.0 * chi2_w, rel=1e-9)


def test_field_energy_cross_check():
    # (1/8pi) int |E|^2 equals (e^2/2) int H'^2 exactly: the cross and
    # H^2/r^2 terms cancel after integrating by parts (H(eps) = 0)
    for eps in (0.1, 0.0125):
        assert u_ele_from_field(BUMP, 1.0, eps) == pytest.approx(
            energies(BUMP, 1.0, 0.0, eps)[0], rel=1e-10)


def test_zero_charge_and_moment():
    u_ele, u_mag, _ = energies(BUMP, 0.0, 0.0, 0.1)
    assert u_ele == 0.0 and u_mag == 0.0


def test_eps_validation():
    for eps in (1.5, 0.0):
        with pytest.raises(ValueError):
            energies(BUMP, 1.0, 1.0, eps)


@pytest.mark.parametrize("fam", [BUMP, BOX], ids=["bump", "boxcar"])
def test_divergence_bounds(fam):
    rep = divergence_bound_check(fam, GRID)
    assert rep.passed, str(rep)
    assert np.all(rep.c_eps >= 1.0 / GRID * (1 - 1e-9))
    assert rep.c0 > 0


def test_divergence_bounds_refuse_nan():
    rep = divergence_bound_check(BUMP, GRID, e=np.nan)
    assert not rep.passed
    assert all(any(f"eps={eps:g}" in v for v in rep.violations) for eps in GRID)


def test_boxcar_sup_is_inverse_eps():
    for eps in GRID:
        assert energies(BOX, 1.0, 1.0, eps)[2] == pytest.approx(1.0 / eps,
                                                                rel=1e-12)


def test_electric_magnetic_inequality_small_eps():
    # (2/e^2) U_ele <= (3/mu^2) U_mag for eps < 1/2
    for fam in (BUMP, BOX):
        for eps in np.geomspace(0.4999, 1e-3, 12):
            u_ele, u_mag, _ = energies(fam, 1.0, 1.0, eps)
            a, b = 2.0 * u_ele, 3.0 * u_mag
            assert a <= b * (1 + 1e-12)


def test_mass_renormalize_residual():
    e, mu = 1.0, 1.0
    for target in (5.0, 50.0, 5e3):
        eps0 = mass_renormalize(BUMP, e, mu, target)
        u_ele, u_mag, _ = energies(BUMP, e, mu, eps0)
        res = abs(u_ele + u_mag - target)
        assert res <= 1e-10 * target
        assert 0 < eps0 <= 1


def test_mass_renormalize_boxcar_vs_independent_root():
    target = 25.0
    eps0 = mass_renormalize(BOX, 1.0, 1.0, target)
    oracle = brentq(lambda t: 1 / (2 * t) + 1 / (6 * t ** 3) - target,
                    1e-4, 1.0, xtol=1e-15)
    assert eps0 == pytest.approx(oracle, abs=1e-12)


def test_mass_renormalize_out_of_range():
    # below the eps = 1 infimum there is no solution in (0, 1]
    u_ele, u_mag, _ = energies(BUMP, 1.0, 1.0, 1.0)
    floor = u_ele + u_mag
    with pytest.raises(OutOfRange) as exc:
        mass_renormalize(BUMP, 1.0, 1.0, 0.5 * floor)
    assert exc.value.infimum == pytest.approx(floor, rel=1e-12)
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(OutOfRange):
            mass_renormalize(BUMP, 1.0, 1.0, bad)


def test_threshold_grows_with_charge():
    # a larger charge raises the energy curve, so the matching eps0 grows
    target = 30.0
    e1 = mass_renormalize(BUMP, 1.0, 1.0, target)
    e2 = mass_renormalize(BUMP, 2.0, 1.0, target)
    assert e2 > e1
