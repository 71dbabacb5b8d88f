"""Exact algebra of one-dimensional distributions closed under d/dt and t*(.).

Atom alphabet: t^n (n >= 0), theta(t), finite parts tplus^-k / tminus^-k
(k >= 1, with tminus^-k agreeing with t^-k on t < 0), and delta^(k).
Expressions are canonical Fraction-linear combinations; theta(-t) is not
canonical and is eliminated as 1 - theta(t).

The Euler operator u -> t*u' + u has particular solution tplus^-1 for the
right-hand side delta, with two-dimensional homogeneous space spanned by
tplus^-1 + tminus^-1 and delta.  Multiplying the general solution by t
yields theta up to an additive constant, which normalization to 1 on the
positive axis removes.
"""

import re
from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np

from .errors import ClosureViolation, UnsupportedAtom
from .regularization import gauss_panels

MAX_ORDER = 8

# atoms are tuples: ("mono", n) ("theta",) ("fp+", k) ("fp-", k) ("delta", k)


def mono(n):
    if n < 0:
        raise ValueError("monomial degree must be >= 0")
    return ("mono", int(n))


THETA = ("theta",)
THETA_MINUS = ("theta-",)  # input-only; canonicalized away


def fp_plus(k):
    if k < 1:
        raise ValueError("finite-part order must be >= 1")
    return ("fp+", int(k))


def fp_minus(k):
    if k < 1:
        raise ValueError("finite-part order must be >= 1")
    return ("fp-", int(k))


def delta(k=0):
    if k < 0:
        raise ValueError("delta order must be >= 0")
    return ("delta", int(k))


class DistExpr:
    """Canonical Fraction-linear combination of atoms."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        canon = {}
        for atom, c in (coeffs or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if atom == THETA_MINUS:  # theta(-t) = 1 - theta(t)
                canon[mono(0)] = canon.get(mono(0), Fraction(0)) + c
                canon[THETA] = canon.get(THETA, Fraction(0)) - c
            else:
                canon[atom] = canon.get(atom, Fraction(0)) + c
        self.coeffs = {a: c for a, c in canon.items() if c != 0}

    @classmethod
    def atom(cls, a, c=1):
        return cls({a: Fraction(c)})

    @classmethod
    def zero(cls):
        return cls({})

    def __add__(self, other):
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, Fraction(0)) + c
        return DistExpr(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        return DistExpr({a: s * c for a, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, DistExpr) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        return f"DistExpr({format_expr(self)!r})"


def _check_order(k, max_order):
    if k > max_order:
        raise UnsupportedAtom(
            f"order {k} exceeds the maximum supported order {max_order}"
        )


def _diff_atom(atom, max_order):
    kind = atom[0]
    if kind == "mono":
        n = atom[1]
        return DistExpr({mono(n - 1): n}) if n > 0 else DistExpr.zero()
    if kind == "theta":
        return DistExpr.atom(delta(0))
    if kind == "fp+":
        k = atom[1]
        _check_order(k + 1, max_order)
        return DistExpr({
            fp_plus(k + 1): -k,
            delta(k): Fraction((-1) ** k, factorial(k)),
        })
    if kind == "fp-":
        k = atom[1]
        _check_order(k + 1, max_order)
        return DistExpr({
            fp_minus(k + 1): -k,
            delta(k): Fraction((-1) ** (k + 1), factorial(k)),
        })
    if kind == "delta":
        k = atom[1]
        _check_order(k + 1, max_order)
        return DistExpr.atom(delta(k + 1))
    raise UnsupportedAtom(f"unknown atom {atom!r}")


def _mul_t_atom(atom):
    kind = atom[0]
    if kind == "mono":
        return DistExpr.atom(mono(atom[1] + 1))
    if kind == "theta":
        raise ClosureViolation("t*theta(t) is outside the atom alphabet")
    if kind == "fp+":
        k = atom[1]
        return DistExpr.atom(THETA) if k == 1 else DistExpr.atom(fp_plus(k - 1))
    if kind == "fp-":
        k = atom[1]
        if k == 1:  # t * tminus^-1 = theta(-t) = 1 - theta(t)
            return DistExpr({mono(0): 1, THETA: -1})
        return DistExpr.atom(fp_minus(k - 1))
    if kind == "delta":
        k = atom[1]
        return DistExpr({delta(k - 1): -k}) if k > 0 else DistExpr.zero()
    raise UnsupportedAtom(f"unknown atom {atom!r}")


def _extend(table, u):
    out = DistExpr.zero()
    for atom, c in u.coeffs.items():
        out = out + c * table(atom)
    return out


def differentiate(u, max_order=MAX_ORDER):
    """d/dt, extended linearly over the atom table."""
    return _extend(lambda a: _diff_atom(a, max_order), u)


def mul_by_t(u):
    """Multiplication by t, extended linearly over the atom table."""
    return _extend(_mul_t_atom, u)


def euler_apply(u, max_order=MAX_ORDER):
    """The Euler operator t*u' + u."""
    return mul_by_t(differentiate(u, max_order)) + u


def solve_euler_delta(max_delta_order=3):
    """Solve t*u' + u = delta over the ansatz span{tplus^-1, tminus^-1,
    delta^(0..N)} by exact Gaussian elimination.

    Returns (particular, homogeneous_basis).  Also verifies that on the
    pure-delta block the operator acts as delta^(k) -> -k delta^(k), so
    delta is in the kernel but not in the image (no pure-delta solution).
    """
    if max_delta_order < 0:
        raise ValueError("max_delta_order must be >= 0")
    order = max(MAX_ORDER, max_delta_order + 1)
    basis = [fp_plus(1), fp_minus(1)] + [delta(k) for k in range(max_delta_order + 1)]
    images = [euler_apply(DistExpr.atom(a), max_order=order) for a in basis]
    for k in range(max_delta_order + 1):
        expect = DistExpr({delta(k): -k})
        if images[2 + k] != expect:
            raise AssertionError("pure-delta block is not diagonal -k")

    target_atoms = sorted({a for im in images for a in im.coeffs}, key=repr)
    rows = len(target_atoms)
    cols = len(basis)
    A = [[images[j].coeffs.get(target_atoms[i], Fraction(0)) for j in range(cols)]
         for i in range(rows)]
    b = [Fraction(1) if target_atoms[i] == delta(0) else Fraction(0)
         for i in range(rows)]

    # exact row reduction of [A | b]
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    pivots = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    if any(all(M[i][c] == 0 for c in range(cols)) and M[i][cols] != 0
           for i in range(rows)):
        raise AssertionError("euler system is inconsistent")

    free = [c for c in range(cols) if c not in pivots]
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = M[i][cols]
    particular = DistExpr({basis[c]: x[c] for c in range(cols)})

    homogeneous = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -M[i][fc]
        homogeneous.append(DistExpr({basis[c]: v[c] for c in range(cols)}))
    return particular, homogeneous


def upsilon(normalize_positive=True, c=Fraction(1), a0=Fraction(0)):
    """t * (general Euler solution) = theta + (c - 1); the requirement of
    being 1 on the positive axis forces c = 1, leaving exactly theta."""
    if normalize_positive:
        c = Fraction(1)
    phi = DistExpr({fp_plus(1): Fraction(c),
                    fp_minus(1): Fraction(c) - 1,
                    delta(0): Fraction(a0)})
    return mul_by_t(phi)


# ---------------------------------------------------------------------------
# numeric oracle: Hadamard finite-part pairings

ORACLE_NODES = 128  # Gauss-Legendre nodes of each oracle integral
SERIES_EDGE = 0.02  # the finite-part integral takes [0, SERIES_EDGE] by series


def _fd_step(k):
    # balance truncation (wants small h) against roundoff ~ 1e-16/h^k
    if k <= 2:
        return 0.005
    if k == 3:
        return 0.01
    if k == 4:
        return 0.02
    return 0.025


def _fd_derivative(phi, k, acc=8):
    """k-th derivative at 0 by a central finite-difference stencil of order
    acc and step _fd_step(k).

    Accurate when phi varies on scale ~1 near 0; a support edge of a bump
    closer than ~0.3 to 0 makes the local high-order derivatives blow up
    and degrades the estimate.
    """
    if k == 0:
        return float(phi(0.0))
    h = _fd_step(k)
    offsets, w = _fd_weights(k, acc)
    vals = np.array([float(phi(o * h)) for o in offsets])
    return float((w / h ** k) @ vals)


@cache
def _fd_weights(k, acc):
    """(offsets, weights) of the central stencil for the k-th derivative at
    unit step, order acc: the Vandermonde solve, done once per (k, acc).
    Both arrays are read-only, as every caller shares them."""
    half = (k + acc - 1) // 2
    offsets = np.arange(-half, half + 1)
    n = offsets.size
    V = np.vander(offsets.astype(float), n, increasing=True).T
    rhs = np.zeros(n)
    rhs[k] = factorial(k)
    w = np.linalg.solve(V, rhs)
    offsets.flags.writeable = w.flags.writeable = False
    return offsets, w


def _integral(f, a, b):
    """int_a^b f on one Gauss-Legendre cell of ORACLE_NODES nodes; f takes
    one float at a time."""
    x, half, w = gauss_panels((a, b), ORACLE_NODES)
    return float(half[0, 0] * (np.array(list(map(f, x[0].tolist()))) @ w))


def _pair_fp_plus(phi, k, support_hi):
    """<tplus^-k, phi> from int_0^1 (phi - T_k)/t^k + int_1^inf phi/t^k,
    T_k the Taylor polynomial of phi at 0 below degree k.

    Evaluating phi - T_k in floats cancels catastrophically near 0, so the
    piece on [0, SERIES_EDGE] uses the next Taylor coefficients instead.
    """
    n_extra = 3
    derivs = [_fd_derivative(phi, j, acc=8 if j <= 4 else 10)
              for j in range(k + n_extra)]
    taylor = [d / factorial(j) for j, d in enumerate(derivs)]
    head, tail = taylor[:k], taylor[k:]

    def mid(t):
        poly = 0.0
        for c in reversed(head):
            poly = poly * t + c
        return (phi(t) - poly) / t ** k

    val = (sum(c * SERIES_EDGE ** (m + 1) / (m + 1)
               for m, c in enumerate(tail))
           + _integral(mid, SERIES_EDGE, 1.0)
           + _integral(lambda t: phi(t) / t ** k, 1.0, max(1.0, support_hi)))
    # <tplus^-k, phi> = A_k(phi) + sum_{j<k-1} phi^(j)(0)/(j! (j+1-k)), from
    # the recursion <tplus^-(k+1), phi> = (<tplus^-k, phi'> + phi^(k)(0)/k!)/k
    for j in range(k - 1):
        val += (1.0 / (j + 1 - k)) * taylor[j]  # taylor[j] = phi^(j)(0)/j!
    return val


def numeric_pairing(atom, phi, support):
    """<atom, phi> by Gauss-Legendre quadrature / finite parts; phi smooth
    with compact support inside the interval `support`.  A numeric oracle
    for the exact algebra that no subcommand calls."""
    lo, hi = support
    kind = atom[0]
    if kind == "mono":
        n = atom[1]
        return _integral(lambda t: t ** n * phi(t), lo, hi)
    if kind == "theta":
        return _integral(phi, max(lo, 0.0), max(hi, 0.0))
    if kind == "delta":
        k = atom[1]
        return (-1) ** k * _fd_derivative(phi, k)
    if kind == "fp+":
        return _pair_fp_plus(phi, atom[1], hi)
    if kind == "fp-":
        k = atom[1]
        return (-1) ** k * _pair_fp_plus(lambda t: phi(-t), k, -lo)
    raise UnsupportedAtom(f"unknown atom {atom!r}")


def pair_expr(u, phi, support):
    """<u, phi> for a full expression, by linearity."""
    return sum(float(c) * numeric_pairing(a, phi, support)
               for a, c in u.coeffs.items())


# ---------------------------------------------------------------------------
# text syntax: `theta`, `tplus^-K`, `tminus^-K`, `delta`, `delta^(K)`,
# `t`, `t^N`, `1`; terms joined with + and -, optional rational coefficient
# followed by `*`.

# a rational coefficient, and the only form a bare constant may take
_COEF = r"-?\d+(?:/\d+)?"
_CONST_RE = re.compile(_COEF)
_ATOM_RE = re.compile(
    rf"^(?:(?P<coef>{_COEF})\s*\*\s*)?(?P<atom>"
    r"theta|tplus\^-\d+|tminus\^-\d+|delta(?:\^\(\d+\))?|t(?:\^\d+)?|1)$"
)


def _atom_from_text(s):
    if s == "theta":
        return THETA
    if s == "1":
        return mono(0)
    if s == "t":
        return mono(1)
    if s.startswith("t^"):
        return mono(int(s[2:]))
    if s.startswith("tplus^-"):
        return fp_plus(int(s[7:]))
    if s.startswith("tminus^-"):
        return fp_minus(int(s[8:]))
    if s == "delta":
        return delta(0)
    if s.startswith("delta^("):
        return delta(int(s[7:-1]))
    raise ValueError(f"unknown atom {s!r}")


def parse_expr(text):
    """Parse the stable text syntax into a DistExpr."""
    text = text.strip()
    if not text:
        raise ValueError("empty expression")
    if text == "0":
        return DistExpr.zero()
    # split into signed terms; +/- after '^' belongs to an exponent
    pieces = re.split(r"(?<!\^)([+-])", text.replace(" ", ""))
    terms = []
    sign = Fraction(1)
    for piece in pieces:
        if piece == "":
            continue
        if piece == "+":
            continue
        if piece == "-":
            sign = -sign
            continue
        terms.append((sign, piece))
        sign = Fraction(1)
    coeffs = {}
    for sign, term in terms:
        m = _ATOM_RE.match(term)
        if not m:
            # bare rational constant; no exponent or decimal form, so the
            # text bounds the size of the Fraction
            if not _CONST_RE.fullmatch(term):
                raise ValueError(f"cannot parse term {term!r}")
            atom, coef = mono(0), Fraction(term)
        else:
            atom = _atom_from_text(m.group("atom"))
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        coeffs[atom] = coeffs.get(atom, Fraction(0)) + sign * coef
    return DistExpr(coeffs)


def _atom_text(atom):
    kind = atom[0]
    if kind == "mono":
        n = atom[1]
        return "1" if n == 0 else ("t" if n == 1 else f"t^{n}")
    if kind == "theta":
        return "theta"
    if kind == "fp+":
        return f"tplus^-{atom[1]}"
    if kind == "fp-":
        return f"tminus^-{atom[1]}"
    if kind == "delta":
        k = atom[1]
        return "delta" if k == 0 else f"delta^({k})"
    raise UnsupportedAtom(f"unknown atom {atom!r}")


_ATOM_SORT = {"mono": 0, "theta": 1, "fp+": 2, "fp-": 3, "delta": 4}


def format_expr(u):
    """Render a DistExpr in the stable text syntax (deterministic order)."""
    if u.is_zero():
        return "0"
    atoms = sorted(u.coeffs, key=lambda a: (_ATOM_SORT[a[0]], a[1:]))
    parts = []
    for a in atoms:
        c = u.coeffs[a]
        text = _atom_text(a)
        mag = abs(c)
        body = str(mag) if a == mono(0) else (
            text if mag == 1 else f"{mag}*{text}")
        parts.append(("-" if c < 0 else "+", body))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sgn, body in parts[1:]:
        out += f" {sgn} {body}"
    return out
