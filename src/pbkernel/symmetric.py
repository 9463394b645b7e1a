"""Symmetric pseudo-Boolean functions: power basis, roots, worked families.

A symmetric function depends only on the Hamming weight of its input, so
it has two natural coordinate systems: the canonical coefficients
(a_0 .. a_n, one per monomial size) and the power basis
f(x) = sum_l c_l (x_1 + ... + x_n)^l.  The change of basis a = B c uses
the upper-triangular matrix with entries B[i][j] = i! * S(j, i) built
from Stirling numbers of the second kind; its inverse is read off the
falling factorials C(X, k) = X (X - 1) .. (X - k + 1) / k!, which the
size-k monomials sum to at weight X.

Substituting X = x_1 + ... + x_n turns the power form into a univariate
polynomial Q(X) which factors over C, giving the product representation

    f(x) = K * prod_l (X - lambda_l),   K = leading power coefficient.

:func:`factorize` first splits off the exact rational roots: the
rational-root theorem runs on one primitive integer multiple of Q, and
each root is divided out of it exactly.  The search is skipped when an
end of that polynomial passes :data:`ROOT_SEARCH_CAP`.  The rest goes to
``np.roots``, so a coefficient left for it, the ratio of one to the
leading one, and K (nonzero K must not underflow to 0.0) must fit a
float; a ValueError names the one that does not.

Note on sign conventions: the factorization is written with (X - lambda)
factors.  Writing (lambda - X) instead flips K by (-1)^degree for odd
degrees; the (X - lambda) form is the one that reproduces the worked
delta and XOR factorizations with K = 1/2 and K = 2/3 respectively.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Sequence

import numpy as np

from .pbf import (DEFAULT_ENUMERATION_CAP, PseudoBoolean, _assignments, _check_arity, _check_cap, _coerce,
                  _count, _numerators)

#: numeric roots with |Im| below tol*(1+|root|) are treated as real
REAL_ROOT_TOL = 1e-9
#: largest |end coefficient| the rational-root search trial-divides; past it
#: the search is skipped and every root is numeric
ROOT_SEARCH_CAP = 10**15


@dataclass(frozen=True)
class WeightProfile:
    """Values of a symmetric function, one per Hamming weight 0..n; the
    arity is read by :func:`pbkernel.pbf._check_arity`, so it is an int in
    0..64."""

    n: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", _check_arity(self.n))
        if len(self.values) != self.n + 1:
            raise ValueError(f"profile needs {self.n + 1} values, got {len(self.values)}")
        object.__setattr__(self, "values", tuple(_coerce(v) for v in self.values))


@dataclass(frozen=True)
class SymmetricForm:
    """Power-basis coefficients c_0..c_n of a symmetric function.

    The arity is read by :func:`pbkernel.pbf._check_arity`, as a profile's
    is.  An exact coefficient (any ``numbers.Rational``) is read by
    :func:`pbkernel.pbf._coerce`, so a numpy integer is held as a Python int
    and :meth:`weight_value` cannot wrap; a float or complex coefficient (a
    numeric form, such as :func:`reconstruct` builds) is held as given.
    """

    n: int
    power_coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", _check_arity(self.n))
        if len(self.power_coeffs) != self.n + 1:
            raise ValueError(f"power form needs {self.n + 1} coefficients, got {len(self.power_coeffs)}")
        coeffs = (_coerce(c) if isinstance(c, Rational) else c for c in self.power_coeffs)
        object.__setattr__(self, "power_coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        for l in range(self.n, -1, -1):
            if self.power_coeffs[l] != 0:
                return l
        return 0

    def weight_value(self, j: int):
        """Value at Hamming weight j: sum_l c_l j**l (Horner)."""
        acc = self.power_coeffs[self.n]
        for l in range(self.n - 1, -1, -1):
            acc = acc * j + self.power_coeffs[l]
        return acc

    def profile(self) -> WeightProfile:
        return WeightProfile(self.n, tuple(self.weight_value(j) for j in range(self.n + 1)))

    def to_pbf(self) -> PseudoBoolean:
        return profile_to_pbf(self.profile())


@dataclass(frozen=True)
class RootFactorization:
    """f(x) = scale * prod_l (x_1+...+x_n - roots[l]).

    Roots found by exact rational-root extraction are Fractions and are
    repeated in ``exact_roots``; the rest are numeric (float/complex from
    companion-matrix eigenvalues).  Roots are sorted by (real, imag).
    """

    n: int
    scale: object
    roots: tuple
    exact_roots: tuple

    @property
    def degree(self) -> int:
        return len(self.roots)

    def to_dict(self) -> dict:
        try:
            k = complex(self.scale)
        except OverflowError:
            k = 0j
        if self.scale and not k:  # past the float range, or a nonzero K that underflows to 0
            raise ValueError("K does not fit a float")
        return {
            "K": [k.real, k.imag],
            "roots": [[complex(r).real, complex(r).imag] for r in self.roots],
            "exact_roots": [str(r) for r in self.exact_roots],
        }


class SymmetryResult(NamedTuple):
    profile: WeightProfile | None
    witness: tuple | None  # pair of equal-weight assignments with different values


def detect_symmetric(
    f: PseudoBoolean, cap: int = DEFAULT_ENUMERATION_CAP
) -> SymmetryResult:
    """Exhaustively test invariance under permutations of the input bits.

    The witness pairs the first assignment of the offending weight w in
    varmask order, mask 2^w - 1, with the first one that differs from it.
    """
    vals, denom = f._cube_values(cap, "symmetry scan")
    weights = _hamming_weights(f.n)
    firsts = (1 << np.arange(f.n + 1)) - 1
    mismatch = np.flatnonzero(vals != vals[firsts][weights])[:1]
    if mismatch.size:
        return SymmetryResult(None, tuple(_assignments(np.append(firsts[weights[mismatch]], mismatch), f.n)))
    profile = WeightProfile(f.n, tuple(Fraction(v, denom) for v in vals[firsts].tolist()))
    return SymmetryResult(profile, None)


@functools.lru_cache(maxsize=16)
def _hamming_weights(n: int) -> np.ndarray:
    """Hamming weight of every varmask 0 .. 2^n - 1, as one read-only array
    built once per n.  It is an intp array, not a uint8 one: numpy gathers by
    an index array of its own index type, and a uint8 one costs a conversion
    on every gather (at n = 16 ``detect_symmetric`` and ``profile_to_pbf``
    took 1.15 ms against 0.89 ms)."""
    weights = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        weights = np.concatenate((weights, weights + 1))
    weights.flags.writeable = False
    return weights


def profile_to_pbf(p: WeightProfile) -> PseudoBoolean:
    """Multilinear polynomial taking value p.values[|x|] at every x.

    Every monomial of size k carries the k-th forward difference of the
    profile at 0, sum_j (-1)^(k-j) C(k, j) v_j, as an integer numerator over
    the values' one denominator.  They are picked from the 2^n Hamming
    weights, so n over ``DEFAULT_ENUMERATION_CAP`` raises EnumerationCapError
    before that array exists; the profile checked its arity when it was built.
    """
    _check_cap(p.n, DEFAULT_ENUMERATION_CAP, "profile expansion")
    diffs, denom = _numerators(p.values)
    coeffs = []
    for _ in range(p.n + 1):
        coeffs.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    weights = _hamming_weights(p.n)
    masks = np.flatnonzero(np.array([c != 0 for c in coeffs])[weights])
    return PseudoBoolean._of(p.n, {m: coeffs[w] for m, w in zip(masks.tolist(), weights[masks].tolist())}, denom)


def canonical_coefficients(f: PseudoBoolean) -> list | None:
    """Per-size coefficients (a_0..a_n) if the polynomial is symmetric.

    All C(n, j) monomials of size j must carry the same coefficient;
    returns None otherwise.  This is a structural test on the canonical
    form, complementary to the value-based :func:`detect_symmetric`.
    """
    by_size: dict = {}
    for mask, c in f._terms.items():
        by_size.setdefault(mask.bit_count(), []).append(c)
    out = [Fraction(0)] * (f.n + 1)
    for j, coeffs in by_size.items():
        if len(set(coeffs)) != 1 or len(coeffs) != math.comb(f.n, j):
            return None
        out[j] = Fraction(coeffs[0], f._den)
    return out


def stirling_matrix(n: int) -> list:
    """The n x n change-of-basis matrix with entries B[i][j] = i! S(j, i).

    Rows and columns are 1-based in the formula; the returned nested list
    is 0-based (entry [i-1][j-1]).  Upper triangular with diagonal i!.
    """
    n = _count(n, "n")
    if not 1 <= n <= 64:
        raise ValueError(f"n must be in 1..64, got {n}")
    # S[j][i], Stirling numbers of the second kind
    stirling = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    stirling[0][0] = Fraction(1)
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            stirling[j][i] = i * stirling[j - 1][i] + stirling[j - 1][i - 1]
    rows = []
    for i in range(1, n + 1):
        fact = Fraction(math.factorial(i))
        rows.append([fact * stirling[j][i] for j in range(1, n + 1)])
    return rows


def canonical_to_power(a: Sequence) -> SymmetricForm:
    """The power coefficients of a = (a_0 .. a_n).

    The monomials of size k sum to C(X, k) = X (X - 1) .. (X - k + 1) / k!
    at weight X, so c = sum_k a_k / k! times the coefficients of that
    falling factorial.  With the a_k as integer numerators over their LCM
    D, n! D c is an integer sum of falling-factorial rows, row k scaled by
    n! / k!, and each c_l is one Fraction.
    """
    nums, denom = _numerators(a)
    n = len(nums) - 1
    c, row = [0] * (n + 1), [1]  # row k: X (X - 1) .. (X - k + 1), ascending
    for k, num in enumerate(nums):
        scale = num * math.perm(n, n - k)
        for j, r in enumerate(row):
            c[j] += scale * r
        row = [p - k * q for p, q in zip([0] + row, row + [0])]  # times (X - k)
    return SymmetricForm(n, tuple(Fraction(v, denom * math.factorial(n)) for v in c))


def power_to_canonical(s: SymmetricForm) -> list:
    """a = B c, returned as the full vector (a_0 .. a_n)."""
    B = stirling_matrix(s.n) if s.n else []
    a = [_coerce(s.power_coeffs[0])]
    for i in range(1, s.n + 1):
        a.append(sum((B[i - 1][j - 1] * s.power_coeffs[j] for j in range(i, s.n + 1)), Fraction(0)))
    return a


def _divisors(m: int) -> list:
    m = abs(m)
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            if d != m // d:
                out.append(m // d)
        d += 1
    return sorted(out)


def _cleared_value(ints: list, p: int, q: int) -> int:
    """q^d * P(p/q) = sum_i a_i p^i q^(d-i) for ascending integer a_0..a_d."""
    acc, qk = ints[-1], 1
    for c in ints[-2::-1]:
        qk *= q
        acc = acc * p + c * qk
    return acc


def _rational_roots(coeffs: list) -> tuple:
    """Split exact rational roots (with multiplicity) off a Fraction poly.

    The leading coefficient must be nonzero.  Returns (roots, remaining
    coefficients, ascending): the zero roots, then the others in the order
    found, and the quotient scaled to the input's leading coefficient.

    After the zero roots, the polynomial is cleared once to its primitive
    integer multiple a_0..a_d.  Candidates p/q run over p | a_0 and q | a_d
    in ascending order, +p/q before -p/q; a pair with a common factor is
    skipped, as an earlier pair names the same rational.  Each candidate
    costs one integer Horner pass, and a root is divided out exactly as the
    primitive factor qX - p, so by Gauss's lemma the quotient is again a
    primitive integer polynomial.  The search stops when either end passes
    ``ROOT_SEARCH_CAP``, where divisor enumeration by trial division would stall.
    """
    zeros = next(i for i, c in enumerate(coeffs) if c)
    roots, poly = [Fraction(0)] * zeros, coeffs[zeros:]
    ints, _ = _numerators(poly)
    content = math.gcd(*ints)
    ints = [v // content for v in ints]
    while len(ints) > 1 and abs(ints[0]) <= ROOT_SEARCH_CAP and abs(ints[-1]) <= ROOT_SEARCH_CAP:
        qs = _divisors(ints[-1])  # listed once, not once per p
        candidates = (
            (sp, q)
            for p in _divisors(ints[0])
            for q in qs
            if math.gcd(p, q) == 1
            for sp in (p, -p)
            if _cleared_value(ints, sp, q) == 0
        )
        found = next(candidates, None)
        if found is None:
            break
        p, q = found
        roots.append(Fraction(p, q))
        quotient = [0]  # ints = (qX - p) * quotient, divided out from the top
        for c in ints[:0:-1]:
            quotient.append((c + p * quotient[-1]) // q)
        ints = quotient[:0:-1]
    unit = Fraction(poly[-1], ints[-1])
    return roots, [unit * c for c in ints]


def _root_sort_key(r):
    c = complex(r)
    return (c.real, c.imag)


def factorize(s: SymmetricForm) -> RootFactorization:
    """Roots of Q(X) = sum_l c_l X^l and the scale K = leading coefficient.

    Rational roots are extracted exactly first (rational-root theorem on
    the cleared-denominator polynomial); whatever remains goes to the
    companion-matrix eigensolver.  Near-real numeric roots are snapped to
    the real axis within REAL_ROOT_TOL.
    """
    coeffs = [_coerce(c) for c in s.power_coeffs]
    deg = s.degree
    if deg == 0:
        raise ValueError("constant or zero form has no product factorization")
    poly = coeffs[: deg + 1]
    scale = poly[-1]
    exact, residual = _rational_roots(poly)
    numeric = []
    if len(residual) > 1:
        try:
            monic = np.array([float(c) for c in residual[::-1]])
        except OverflowError:
            raise ValueError("a coefficient left for np.roots does not fit a float") from None
        if not monic[0]:  # residual[-1] is K; np.roots would strip it as a zero
            raise ValueError("K does not fit a float")
        try:
            with np.errstate(over="raise", invalid="raise"):
                numeric_roots = np.roots(monic)
        except FloatingPointError:
            raise ValueError("a coefficient ratio left for np.roots does not fit a float") from None
        for r in numeric_roots:
            if abs(r.imag) <= REAL_ROOT_TOL * (1 + abs(r)):
                numeric.append(float(r.real))
            else:
                numeric.append(complex(r))
    roots = tuple(sorted(exact + numeric, key=_root_sort_key))
    return RootFactorization(
        n=s.n,
        scale=scale,
        roots=roots,
        exact_roots=tuple(sorted(exact, key=_root_sort_key)),
    )


def _expand(scale, roots) -> list:
    """Ascending coefficients of scale * prod_r (X - r), in the arithmetic of
    ``scale`` and the roots: Fractions stay Fractions, complex stays complex."""
    poly = [scale]
    for r in roots:
        nxt = [type(scale)()] * (len(poly) + 1)  # Fraction(0) or 0j
        for k, c in enumerate(poly):
            nxt[k + 1] += c
            nxt[k] -= r * c
        poly = nxt
    return poly


def reconstruct(rf: RootFactorization, tol: float = 1e-9) -> SymmetricForm:
    """Expand scale * prod (X - root) back into power coefficients.

    Exact (Fraction coefficients) when the scale and every root are
    exact; otherwise numeric, with residual imaginary parts below
    ``tol * (1 + |coeff|)`` truncated and larger ones rejected.
    """
    all_exact = isinstance(rf.scale, Fraction) and all(
        isinstance(r, Fraction) for r in rf.roots
    )
    if all_exact:
        poly = _expand(rf.scale, rf.roots)
    else:
        poly = _expand(complex(rf.scale), [complex(r) for r in rf.roots])
        cleaned = []
        for c in poly:
            if abs(c.imag) > tol * (1 + abs(c)):
                raise ValueError(
                    f"residual imaginary part {c.imag} exceeds tolerance; "
                    "roots are not conjugate-consistent"
                )
            cleaned.append(c.real)
        poly = cleaned
    if len(poly) > rf.n + 1:
        raise ValueError(f"degree {len(poly) - 1} exceeds arity {rf.n}")
    pad = [Fraction(0) if all_exact else 0.0] * (rf.n + 1 - len(poly))
    return SymmetricForm(rf.n, tuple(poly) + tuple(pad))


def delta_product_form(k: int) -> SymmetricForm:
    """Product form of the all-bits-equal indicator on k variables:

        ((-1)^(k-1) / (k-1)!) * prod_{j=1..k-1} (X - j)

    expanded literally.  The expansion vanishes at weights 1..k-1 and is
    1 at weight 0; at full weight k its value is (-1)^(k-1), so for even
    k the product form reproduces the indicator's kernel complement but
    not its value at the all-ones input (see the package docs; the k = 2
    case gives 1 - X, which is -1 at weight 2).
    """
    k = _count(k, "k")
    if not 2 <= k <= 20:
        raise ValueError(f"k must be in 2..20, got {k}")
    poly = _expand(Fraction((-1) ** (k - 1), math.factorial(k - 1)), range(1, k))
    poly += [Fraction(0)] * (k + 1 - len(poly))
    return SymmetricForm(k, tuple(poly))


def symmetric_ising(J, h, n: int) -> PseudoBoolean:
    """The symmetric quadratic model J/2 * sum_{l<k} 2 x_l x_k + h * sum x_l.

    Each unordered pair carries coupling J/2 and each variable bias h, so
    the power form is (J/4) X^2 + (h - J/4) X = (J/4) (X + 4h/J - 1) X.
    The kernel is the union of the weight hyperplanes X = 0 and
    X = 1 - 4h/J.
    """
    J, h, n = _coerce(J), _coerce(h), _count(n, "n")
    if J == 0:
        raise ValueError("J = 0 makes the model trivial")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    terms = {(l,): h for l in range(n)}
    for l in range(n):
        for k in range(l + 1, n):
            terms[(l, k)] = J / 2
    return PseudoBoolean.from_terms(n, terms)
