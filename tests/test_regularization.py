import numpy as np
import pytest
from scipy.integrate import quad

from pointcharge.errors import (
    DegenerateNet,
    InvalidMollifier,
    SmoothnessRequired,
)
from pointcharge.regularization import (
    GeneralizedNet,
    Mollifier,
    boxcar_mollifier,
    bump_mollifier,
    family_check,
    geometric_grid,
    make_family,
    moderateness_slope,
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
                     chi_prime=None, smooth=False, label="half-mass")
    with pytest.raises(InvalidMollifier):
        make_family(half)
    wide = Mollifier(
        chi=lambda s: np.where((np.asarray(s) >= 0.5) & (np.asarray(s) <= 2.0),
                               1.0 / 1.5, 0.0),
        chi_prime=None, smooth=False, label="wide")
    with pytest.raises(InvalidMollifier):
        make_family(wide)
    signed = Mollifier(
        chi=lambda s: np.where((np.asarray(s) >= 1.0) & (np.asarray(s) <= 2.0),
                               np.cos(3 * np.pi * (np.asarray(s) - 1.0))
                               * 1.047 + 1.0, 0.0),
        chi_prime=None, smooth=False, label="signed")
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
