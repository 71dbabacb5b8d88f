import string
import sys
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointcharge.distalg import (
    MAX_ORDER,
    THETA,
    DistExpr,
    _fd_derivative,
    _fd_step,
    delta,
    differentiate,
    euler_apply,
    format_expr,
    fp_minus,
    fp_plus,
    mono,
    mul_by_t,
    numeric_pairing,
    pair_expr,
    parse_expr,
    solve_euler_delta,
    upsilon,
)
from pointcharge.errors import ClosureViolation, UnsupportedAtom
from oracles import bump_1d, bump_1d_integral

RNG = np.random.default_rng(11)


def random_test_function(rng):
    """1D bump times a random polynomial; support straddles the origin with
    both edges at distance >= 1 from it (the finite-difference Taylor
    coefficients in the oracle need phi smooth on scale ~1 near 0)."""
    c = rng.uniform(-1.0, 1.0)
    r = rng.uniform(2.0, 3.0)
    coeffs = rng.uniform(-1.0, 1.0, size=4)

    def poly(y):
        return coeffs[0] + y * (coeffs[1] + y * (coeffs[2] + y * coeffs[3]))

    phi = bump_1d(c, r, poly)
    return phi, (c - r, c + r)


# ---------------------------------------------------------------------------
# exact rewrite tables


def test_atom_constructors_validate():
    with pytest.raises(ValueError):
        mono(-1)
    with pytest.raises(ValueError):
        fp_plus(0)
    with pytest.raises(ValueError):
        delta(-1)


def test_differentiation_table():
    assert differentiate(DistExpr.atom(THETA)) == DistExpr.atom(delta(0))
    assert differentiate(DistExpr.atom(mono(0))).is_zero()
    assert differentiate(DistExpr.atom(mono(3))) == DistExpr({mono(2): 3})
    assert differentiate(DistExpr.atom(delta(2))) == DistExpr.atom(delta(3))
    # (tplus^-k)' = -k tplus^-(k+1) + (-1)^k delta^(k)/k!
    assert differentiate(DistExpr.atom(fp_plus(1))) == DistExpr(
        {fp_plus(2): -1, delta(1): -1})
    assert differentiate(DistExpr.atom(fp_plus(2))) == DistExpr(
        {fp_plus(3): -2, delta(2): Fraction(1, 2)})
    # the minus-side delta term flips sign
    assert differentiate(DistExpr.atom(fp_minus(1))) == DistExpr(
        {fp_minus(2): -1, delta(1): 1})
    assert differentiate(DistExpr.atom(fp_minus(2))) == DistExpr(
        {fp_minus(3): -2, delta(2): Fraction(-1, 2)})


def test_multiplication_table():
    assert mul_by_t(DistExpr.atom(mono(2))) == DistExpr.atom(mono(3))
    assert mul_by_t(DistExpr.atom(fp_plus(1))) == DistExpr.atom(THETA)
    assert mul_by_t(DistExpr.atom(fp_plus(3))) == DistExpr.atom(fp_plus(2))
    assert mul_by_t(DistExpr.atom(fp_minus(1))) == DistExpr(
        {mono(0): 1, THETA: -1})
    assert mul_by_t(DistExpr.atom(fp_minus(2))) == DistExpr.atom(fp_minus(1))
    assert mul_by_t(DistExpr.atom(delta(0))).is_zero()
    assert mul_by_t(DistExpr.atom(delta(3))) == DistExpr({delta(2): -3})


def test_t_times_theta_leaves_alphabet():
    with pytest.raises(ClosureViolation):
        mul_by_t(DistExpr.atom(THETA))


def test_max_order_enforced():
    with pytest.raises(UnsupportedAtom):
        differentiate(DistExpr.atom(delta(MAX_ORDER)))
    with pytest.raises(UnsupportedAtom):
        differentiate(DistExpr.atom(fp_plus(MAX_ORDER)))
    # a larger limit admits the same atom
    assert not differentiate(DistExpr.atom(delta(MAX_ORDER)),
                             max_order=MAX_ORDER + 1).is_zero()


LEIBNIZ_ATOMS = ([mono(n) for n in range(4)]
                 + [fp_plus(k) for k in range(1, 5)]
                 + [fp_minus(k) for k in range(1, 5)]
                 + [delta(k) for k in range(5)])


@pytest.mark.parametrize("atom", LEIBNIZ_ATOMS, ids=str)
def test_leibniz_rule(atom):
    # (t*u)' = u + t*u' whenever t*u stays in the alphabet
    u = DistExpr.atom(atom)
    assert differentiate(mul_by_t(u)) == u + mul_by_t(differentiate(u))


# ---------------------------------------------------------------------------
# the Euler equation t*u' + u = delta


@pytest.mark.parametrize("n", [0, 1, 4, 8])
def test_solve_euler_delta_structure(n):
    particular, homogeneous = solve_euler_delta(n)
    assert particular == DistExpr.atom(fp_plus(1))
    assert len(homogeneous) == 2
    order = max(MAX_ORDER, n + 1)
    assert euler_apply(particular, order) == DistExpr.atom(delta(0))
    span_atoms = {fp_plus(1), fp_minus(1), delta(0)}
    for h in homogeneous:
        assert euler_apply(h, order).is_zero()
        assert set(h.coeffs) <= span_atoms
        # membership in span{tplus^-1 + tminus^-1, delta}
        assert h.coeffs.get(fp_plus(1), Fraction(0)) == \
            h.coeffs.get(fp_minus(1), Fraction(0))
    # the two basis vectors are independent
    m = np.array([[float(h.coeffs.get(a, 0)) for a in (fp_plus(1), delta(0))]
                  for h in homogeneous])
    assert abs(np.linalg.det(m)) > 0


def test_upsilon_is_theta():
    assert upsilon() == DistExpr.atom(THETA)
    # without normalization the free constant c - 1 survives (c = 3)
    assert mul_by_t(DistExpr({fp_plus(1): 3, fp_minus(1): 2})) == DistExpr(
        {THETA: 1, mono(0): 2})
    # the delta part of the general solution never contributes to t*u
    assert mul_by_t(DistExpr({fp_plus(1): 1, delta(0): 7})) == DistExpr.atom(THETA)


# ---------------------------------------------------------------------------
# numeric finite-part oracle


def test_delta_pairing_is_derivative():
    phi, support = random_test_function(np.random.default_rng(3))
    for k in range(3):
        num = numeric_pairing(delta(k), phi, support)
        h = 1e-3
        grid = np.arange(-4, 5) * h

        def fd(vals, order):
            for _ in range(order):
                vals = np.gradient(vals, h)
            return vals[vals.size // 2]

        ref = (-1) ** k * fd(phi(grid), k)
        assert num == pytest.approx(ref, abs=1e-5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1, 2, 3])
def test_derivative_table_against_oracle(k):
    # <u', phi> must equal -<u, phi'> for the finite-part atoms
    rng = np.random.default_rng(100 + k)
    for _ in range(3):
        phi, support = random_test_function(rng)
        h = 1e-5

        def dphi(t):
            return (phi(t + h) - phi(t - h)) / (2 * h)

        for atom in (fp_plus(k), fp_minus(k)):
            lhs = pair_expr(differentiate(DistExpr.atom(atom)), phi, support)
            rhs = -numeric_pairing(atom, dphi, support)
            assert lhs == pytest.approx(rhs, abs=2e-6)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_multiplication_table_against_oracle(k):
    # <t*u, phi> must equal <u, t*phi>
    rng = np.random.default_rng(200 + k)
    for _ in range(3):
        phi, support = random_test_function(rng)

        def tphi(t):
            return t * phi(t)

        for atom in (fp_plus(k), fp_minus(k), delta(k)):
            lhs = pair_expr(mul_by_t(DistExpr.atom(atom)), phi, support)
            rhs = numeric_pairing(atom, tphi, support)
            assert lhs == pytest.approx(rhs, abs=1e-6)


def test_oracle_runs_without_scipy(monkeypatch):
    # None in sys.modules makes any import of scipy raise ImportError
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.integrate", None)
    phi, support = random_test_function(np.random.default_rng(7))
    for atom in (mono(1), THETA, delta(2), fp_plus(2), fp_minus(2)):
        assert np.isfinite(numeric_pairing(atom, phi, support))
    u = DistExpr({fp_plus(1): 1, fp_minus(1): 1, delta(0): 1})
    assert np.isfinite(pair_expr(u, phi, support))


@pytest.mark.parametrize("center,radius", [(0.0, 1.5), (0.0, 3.0),
                                           (0.7, 2.0), (-0.4, 2.5)])
def test_oracle_integrals_match_integral_of(center, radius):
    # the mono and theta pairings alone, outside any duality identity,
    # against integral_of's radial rule in 1D
    phi = bump_1d(center, radius)
    support = (center - radius, center + radius)
    exact = bump_1d_integral(radius)
    assert numeric_pairing(mono(0), phi, support) == pytest.approx(
        exact, rel=1e-13)
    if center == 0.0:  # the bump is even, so theta takes half of it
        assert numeric_pairing(THETA, phi, support) == pytest.approx(
            exact / 2, rel=1e-13)


def test_euler_solution_pairs_like_delta():
    rng = np.random.default_rng(5)
    particular, _ = solve_euler_delta(3)
    for _ in range(3):
        phi, support = random_test_function(rng)
        # t * d/dt of the pairing identity: <t*u' + u, phi> = phi(0)
        lhs = pair_expr(euler_apply(particular), phi, support)
        assert lhs == pytest.approx(float(phi(0.0)), abs=1e-6)


# ---------------------------------------------------------------------------
# text syntax


@pytest.mark.parametrize("text,expected", [
    ("theta", DistExpr.atom(THETA)),
    ("tplus^-1", DistExpr.atom(fp_plus(1))),
    ("tplus^-1 + tminus^-1", DistExpr({fp_plus(1): 1, fp_minus(1): 1})),
    ("delta", DistExpr.atom(delta(0))),
    ("delta^(3)", DistExpr.atom(delta(3))),
    ("2*t^2 - 1/2*delta", DistExpr({mono(2): 2, delta(0): Fraction(-1, 2)})),
    ("1 - theta", DistExpr({mono(0): 1, THETA: -1})),
    ("0", DistExpr.zero()),
])
def test_parse_expr(text, expected):
    assert parse_expr(text) == expected


@pytest.mark.parametrize("bad", ["", "spam", "delta^(x)", "t^"])
def test_parse_expr_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_expr(bad)


ATOM_POOL = ([mono(n) for n in range(3)] + [THETA]
             + [fp_plus(k) for k in range(1, 4)]
             + [fp_minus(k) for k in range(1, 4)]
             + [delta(k) for k in range(4)])


@given(
    picks=st.lists(
        st.tuples(st.sampled_from(ATOM_POOL),
                  st.fractions(min_value=-5, max_value=5)),
        min_size=0, max_size=5,
    )
)
@settings(max_examples=80, deadline=None)
def test_format_parse_round_trip(picks):
    u = DistExpr({})
    for atom, c in picks:
        u = u + DistExpr.atom(atom, c)
    assert parse_expr(format_expr(u)) == u


# property test over the expression syntax: parse_expr returns a DistExpr
# or raises ValueError (ZeroDivisionError for a zero denominator)

INT = st.integers(-3, 20).map(str)
ATOM_TEXT = st.one_of(
    st.sampled_from(["1", "t", "theta", "delta", "0"]),
    st.builds("t^{}".format, INT),
    st.builds("tplus^-{}".format, INT),
    st.builds("tminus^-{}".format, INT),
    st.builds("delta^({})".format, INT),
    st.builds("{}/{}".format, INT, INT),
    st.text(alphabet=string.ascii_letters + string.digits + string.punctuation,
            max_size=4),
)
COEF = st.one_of(st.just(""), st.builds("{}*".format, INT),
                 st.builds("{}/{} * ".format, INT, INT))
TERM = st.builds(lambda c, a, stray: c + a + stray, COEF, ATOM_TEXT,
                 st.sampled_from(["", " ", "*", "^", ")"]))


@given(signs=st.lists(st.sampled_from(["", "+", "-", " - ", "+-"]),
                      min_size=1, max_size=4),
       terms=st.lists(TERM, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_parse_expr_returns_or_raises_value_error(signs, terms):
    text = "".join(s + t for s, t in zip(signs, terms))
    try:
        assert isinstance(parse_expr(text), DistExpr)
    except (ValueError, ZeroDivisionError):
        pass


@pytest.mark.parametrize("acc", [8, 10])
def test_fd_derivative_matches_an_uncached_solve(acc):
    # the cached unit-step weights, divided by h^k at the call site, give
    # the same bits as solving the Vandermonde system at every call
    phi = bump_1d(0.3, 1.5)
    for k in range(7):
        h = _fd_step(k)
        half = (k + acc - 1) // 2
        offsets = np.arange(-half, half + 1)
        V = np.vander(offsets.astype(float), offsets.size, increasing=True).T
        rhs = np.zeros(offsets.size)
        rhs[k] = factorial(k)
        w = np.linalg.solve(V, rhs) / h ** k
        vals = np.array([float(phi(0.0 + o * h)) for o in offsets])
        expected = float(phi(0.0)) if k == 0 else float(w @ vals)
        assert _fd_derivative(phi, k, acc=acc) == expected, k
