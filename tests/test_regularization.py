import numpy as np
import pytest
from scipy.integrate import quad

from oracles import DegenerateNet, GeneralizedNet, moderateness_slope
from pointcharge.errors import InvalidMollifier, SmoothnessRequired
from pointcharge.regularization import (
    Mollifier,
    _bump_norm,
    boxcar_mollifier,
    bump,
    bump_mollifier,
    family_check,
    gauss_panels,
    geometric_grid,
    make_family,
    parse_mollifier,
)

BUMP = make_family(bump_mollifier())
BOX = make_family(boxcar_mollifier())
EPS_GRID = geometric_grid()


@pytest.mark.parametrize("moll", [bump_mollifier(), boxcar_mollifier()],
                         ids=["bump", "boxcar"])
def test_mollifier_unit_mass_and_support(moll):
    total, _ = quad(moll.chi, 1.0, 2.0, epsabs=1e-13)
    assert total == pytest.approx(1.0, abs=1e-10)
    s = np.linspace(-1.0, 4.0, 1001)
    vals = moll.chi(s)
    assert np.all(vals >= 0)
    assert np.all(vals[(s < 1.0) | (s > 2.0)] == 0)


@pytest.mark.parametrize("fam", [BUMP, BOX], ids=["bump", "boxcar"])
def test_heaviside_plateaus_exact(fam):
    for eps in EPS_GRID:
        r = np.linspace(0.0, 3.0 * eps, 301)
        H = fam.H(r, eps)
        assert np.all(H[r <= eps] == 0.0)
        assert np.all(H[r >= 2.0 * eps] == 1.0)
        assert np.all((H >= 0.0) & (H <= 1.0))


def test_pure_scaling():
    r = np.linspace(0.0, 0.3, 400)
    for eps in (0.1, 0.05, 0.003125):
        assert np.allclose(BUMP.H(r, eps), BUMP.H(r / eps, 1.0), atol=1e-12)


def test_bump_norm_matches_quad():
    # the composite Gauss rule against scipy's adaptive quadrature
    val, _ = quad(lambda u: np.exp(-1.0 / (1.0 - u * u)), -1.0, 1.0,
                  epsabs=0.0, epsrel=1e-13, limit=200)
    assert _bump_norm() == pytest.approx(2.0 / val, rel=1e-14, abs=0.0)


def test_h1_matches_quad_of_chi():
    # H_1(t) = int_1^t chi; the Hermite interpolant against quad, which
    # integrates chi itself from the nearer end of [1, 2]
    chi = BUMP.mollifier.chi
    t = np.random.default_rng(11).uniform(1.0, 2.0, 200)
    ref = np.array([quad(chi, 1.0, ti, epsabs=0.0, epsrel=1e-13,
                         limit=200)[0] if ti < 1.5 else
                    1.0 - quad(chi, ti, 2.0, epsabs=0.0, epsrel=1e-13,
                               limit=200)[0] for ti in t])
    assert np.abs(BUMP.H(t, 1.0) - ref).max() <= 1e-13


def test_dH_is_scaled_mollifier():
    eps = 0.05
    r = np.linspace(0.0, 0.2, 400)
    expect = BUMP.mollifier.chi(r / eps) / eps
    assert np.allclose(BUMP.dH(r, eps), expect, atol=1e-13)
    # H' integrates back to 1 across the shell
    val, _ = quad(lambda t: BUMP.dH(t, eps), eps, 2 * eps, epsabs=1e-12)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_dH_matches_fd_of_H():
    eps, h = 0.05, 1e-6
    r = np.linspace(1.05 * eps, 1.95 * eps, 50)
    fd = (BUMP.H(r + h, eps) - BUMP.H(r - h, eps)) / (2 * h)
    assert np.abs(fd - BUMP.dH(r, eps)).max() < 1e-6


def test_d2H_matches_fd_of_dH():
    eps, h = 0.05, 1e-6
    r = np.linspace(1.05 * eps, 1.95 * eps, 50)
    fd = (BUMP.dH(r + h, eps) - BUMP.dH(r - h, eps)) / (2 * h)
    assert np.abs(fd - BUMP.d2H(r, eps)).max() < 1e-4


@pytest.mark.parametrize("r", [0.15, [0.05, 0.15, 0.25]], ids=["scalar", "array"])
@pytest.mark.parametrize("name", ["H", "dH", "d2H"])
def test_family_returns_arrays_of_the_input_shape(name, r):
    out = getattr(BUMP, name)(r, 0.1)
    assert isinstance(out, np.ndarray) and out.shape == np.shape(r)


def test_boxcar_second_derivative_refused():
    with pytest.raises(SmoothnessRequired):
        BOX.d2H(0.15, 0.1)


@pytest.mark.parametrize("fam", [BUMP, BOX], ids=["bump", "boxcar"])
def test_family_check_passes(fam):
    rep = family_check(fam, EPS_GRID)
    assert rep.passed, str(rep)
    # sup eps*H' is scale invariant and >= 1 (mass 1 over a width-1 shell)
    assert rep.sup_eps_dH >= 1.0


def test_make_family_rejects_bad_mollifiers():
    half = Mollifier(chi=lambda s: 0.5 * boxcar_mollifier().chi(s),
                     chi_prime=None, label="half-mass")
    with pytest.raises(InvalidMollifier):
        make_family(half)
    wide = Mollifier(
        chi=lambda s: np.where((np.asarray(s) >= 0.5) & (np.asarray(s) <= 2.0),
                               1.0 / 1.5, 0.0),
        chi_prime=None, label="wide")
    with pytest.raises(InvalidMollifier):
        make_family(wide)
    signed = Mollifier(
        chi=lambda s: np.where((np.asarray(s) >= 1.0) & (np.asarray(s) <= 2.0),
                               np.cos(3 * np.pi * (np.asarray(s) - 1.0))
                               * 1.047 + 1.0, 0.0),
        chi_prime=None, label="signed")
    # either mass or sign check must reject it
    with pytest.raises(InvalidMollifier):
        make_family(signed)


def test_parse_mollifier():
    assert parse_mollifier("bump").label == "bump"
    assert parse_mollifier(" boxcar ").label == "boxcar"
    with pytest.raises(InvalidMollifier):
        parse_mollifier("gauss")


def test_geometric_grid_default():
    grid = geometric_grid()
    assert np.allclose(grid, [0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125])


def test_net_validation():
    with pytest.raises(ValueError):
        GeneralizedNet(eps=np.array([1.5, 0.5]), payloads=(1, 2))
    with pytest.raises(ValueError):
        GeneralizedNet(eps=np.array([0.1, 0.2]), payloads=(1, 2))
    with pytest.raises(ValueError):
        GeneralizedNet(eps=np.array([0.1, 0.05]), payloads=(1,))


def test_moderateness_slope_recovers_exponent():
    grid = geometric_grid()
    net = GeneralizedNet(eps=grid, payloads=tuple(1.0 / e ** 2 for e in grid))
    assert moderateness_slope(net, abs) == pytest.approx(-2.0, abs=1e-12)
    flat = GeneralizedNet(eps=grid, payloads=(0.0,) * grid.size)
    with pytest.raises(DegenerateNet):
        moderateness_slope(flat, abs)


def test_gauss_panels_on_one_cell_is_leggauss():
    x, half, w = gauss_panels((-1.0, 1.0), 12)
    gx, gw = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(x, gx[None, :]) and np.array_equal(w, gw)
    assert np.array_equal(half, [[1.0]])


@pytest.mark.parametrize("n", [1, 4, 8, 16])
def test_gauss_panels_exact_to_degree_2n_minus_1(n):
    edges = np.array([-0.5, 0.25, 1.0, 2.5])
    x, half, w = gauss_panels(edges, n)
    assert x.shape == (3, n) and half.shape == (3, 1) and w.shape == (n,)
    k = np.arange(2 * n)
    cells = half[:, 0] * ((x[..., None] ** k).sum(axis=-1) @ w)
    a, b = edges[:-1, None], edges[1:, None]
    exact = ((b ** (k + 1) - a ** (k + 1)) / (k + 1)).sum(axis=-1)
    assert np.allclose(cells, exact, rtol=1e-13, atol=0.0)


def test_bump_vanishes_from_the_unit_sphere_out():
    out = bump(np.array([0.0, 0.75, 1.0, 1.0 + 1e-15, 4.0, np.inf]))
    assert out[0] == np.exp(-1.0) and out[1] == np.exp(-4.0)
    assert np.array_equal(out[2:], np.zeros(4))


@pytest.mark.filterwarnings("error")
def test_chi_prime_vanishes_at_the_shell_edges():
    # the factor 1/(1 - u^2)^2 divides by zero at s = 1 and s = 2; numpy
    # warns on that, and the marker turns any warning into an error
    with np.errstate(all="warn"):
        out = bump_mollifier().chi_prime(np.array([1.0, 2.0]))
    assert np.array_equal(out, [0.0, 0.0])


def test_mollifier_smoothness_is_its_derivative():
    assert bump_mollifier().smooth and not boxcar_mollifier().smooth
    with pytest.raises(TypeError):
        Mollifier(chi=boxcar_mollifier().chi, chi_prime=None, smooth=True)
