"""Symmetric pseudo-Boolean functions: power basis, roots, worked families.

A symmetric function depends only on the Hamming weight of its input, so
it has two natural coordinate systems: the canonical coefficients
(a_0 .. a_n, one per monomial size) and the power basis
f(x) = sum_l c_l (x_1 + ... + x_n)^l.  The change of basis a = B c uses
the upper-triangular matrix with entries B[i][j] = i! * S(j, i) built
from Stirling numbers of the second kind; it is solved exactly by back
substitution.

Substituting X = x_1 + ... + x_n turns the power form into a univariate
polynomial Q(X) which factors over C, giving the product representation

    f(x) = K * prod_l (X - lambda_l),   K = leading power coefficient.

Note on sign conventions: the factorization is written with (X - lambda)
factors.  Writing (lambda - X) instead flips K by (-1)^degree for odd
degrees; the (X - lambda) form is the one that reproduces the worked
delta and XOR factorizations with K = 1/2 and K = 2/3 respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .pbf import DEFAULT_ENUMERATION_CAP, PseudoBoolean, _assignments, _coerce, _scaled

#: numeric roots with |Im| below tol*(1+|root|) are treated as real
REAL_ROOT_TOL = 1e-9


@dataclass(frozen=True)
class WeightProfile:
    """Values of a symmetric function, one per Hamming weight 0..n."""

    n: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.n + 1:
            raise ValueError(f"profile needs {self.n + 1} values, got {len(self.values)}")
        object.__setattr__(self, "values", tuple(_coerce(v) for v in self.values))


@dataclass(frozen=True)
class SymmetricForm:
    """Power-basis coefficients c_0..c_n of a symmetric function."""

    n: int
    power_coeffs: tuple

    def __post_init__(self):
        if len(self.power_coeffs) != self.n + 1:
            raise ValueError(
                f"power form needs {self.n + 1} coefficients, got {len(self.power_coeffs)}"
            )

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
        k = complex(self.scale)
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
    ones = PseudoBoolean(f.n, {1 << i: 1 for i in range(f.n)})  # x_1 + ... + x_n
    weights, _ = ones._cube_values(cap, "symmetry scan")  # Hamming weight of each mask
    firsts = (1 << np.arange(f.n + 1)) - 1
    mismatch = np.flatnonzero(vals != vals[firsts][weights])[:1]
    if mismatch.size:
        pair = np.append(firsts[weights[mismatch]], mismatch)
        return SymmetryResult(None, tuple(_assignments(pair, f.n)))
    profile = WeightProfile(f.n, tuple(Fraction(v, denom) for v in vals[firsts].tolist()))
    return SymmetryResult(profile, None)


def profile_to_pbf(p: WeightProfile) -> PseudoBoolean:
    """Multilinear polynomial taking value p.values[|x|] at every x."""
    table = [p.values[idx.bit_count()] for idx in range(1 << p.n)]
    return PseudoBoolean.from_disjoint_form(table)


def canonical_coefficients(f: PseudoBoolean) -> list | None:
    """Per-size coefficients (a_0..a_n) if the polynomial is symmetric.

    All C(n, j) monomials of size j must carry the same coefficient;
    returns None otherwise.  This is a structural test on the canonical
    form, complementary to the value-based :func:`detect_symmetric`.
    """
    by_size: dict = {}
    for mask, c in f.masked_terms().items():
        by_size.setdefault(mask.bit_count(), []).append(c)
    out = []
    for j in range(f.n + 1):
        coeffs = by_size.get(j, [])
        if not coeffs:
            out.append(Fraction(0))
            continue
        if len(set(coeffs)) != 1 or len(coeffs) != math.comb(f.n, j):
            return None
        out.append(coeffs[0])
    return out


def stirling_matrix(n: int) -> list:
    """The n x n change-of-basis matrix with entries B[i][j] = i! S(j, i).

    Rows and columns are 1-based in the formula; the returned nested list
    is 0-based (entry [i-1][j-1]).  Upper triangular with diagonal i!.
    """
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
    """Solve a = B c for the power coefficients; input is (a_0 .. a_n).

    c_0 = a_0 directly; the triangular system couples only indices 1..n
    and is solved bottom-up, so the result is exact and unique.
    """
    a = [_coerce(v) for v in a]
    n = len(a) - 1
    if n == 0:
        return SymmetricForm(0, (a[0],))
    B = stirling_matrix(n)
    c = [Fraction(0)] * (n + 1)
    c[0] = a[0]
    for i in range(n, 0, -1):
        acc = a[i]
        for j in range(i + 1, n + 1):
            acc -= B[i - 1][j - 1] * c[j]
        c[i] = acc / B[i - 1][i - 1]
    return SymmetricForm(n, tuple(c))


def power_to_canonical(s: SymmetricForm) -> list:
    """a = B c, returned as the full vector (a_0 .. a_n)."""
    n = s.n
    if n == 0:
        return [_coerce(s.power_coeffs[0])]
    B = stirling_matrix(n)
    a = [_coerce(s.power_coeffs[0])]
    for i in range(1, n + 1):
        a.append(sum((B[i - 1][j - 1] * s.power_coeffs[j] for j in range(i, n + 1)), Fraction(0)))
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


def _rational_roots(coeffs: list) -> tuple:
    """Split exact rational roots (with multiplicity) off a Fraction poly.

    Returns (roots, remaining coefficients, ascending).  Skips the exact
    search when clearing denominators would need divisor enumeration on
    integers past 10**15.
    """
    roots = []
    poly = list(coeffs)
    while len(poly) > 1 and poly[0] == 0:
        roots.append(Fraction(0))
        poly = poly[1:]
    while len(poly) > 1:
        ints = _scaled(poly)[0].tolist()
        content = math.gcd(*ints)
        ints = [v // content for v in ints]
        if abs(ints[0]) > 10**15 or abs(ints[-1]) > 10**15:
            break
        found = None
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    acc = Fraction(0)
                    for c in reversed(poly):
                        acc = acc * cand + c
                    if acc == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        # exact synthetic division by (X - found)
        new = [Fraction(0)] * (len(poly) - 1)
        carry = Fraction(0)
        for k in range(len(poly) - 1, 0, -1):
            carry = poly[k] + carry * found
            new[k - 1] = carry
        poly = new
        while len(poly) > 1 and poly[0] == 0:
            roots.append(Fraction(0))
            poly = poly[1:]
    return roots, poly


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
        monic = np.array([float(c) for c in residual[::-1]])
        for r in np.roots(monic):
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
        poly = [rf.scale]
        for r in rf.roots:
            nxt = [Fraction(0)] * (len(poly) + 1)
            for k, c in enumerate(poly):
                nxt[k + 1] += c
                nxt[k] -= r * c
            poly = nxt
    else:
        poly = [complex(rf.scale)]
        for r in rf.roots:
            rc = complex(r)
            nxt = [0j] * (len(poly) + 1)
            for k, c in enumerate(poly):
                nxt[k + 1] += c
                nxt[k] -= rc * c
            poly = nxt
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
    if not 2 <= k <= 20:
        raise ValueError(f"k must be in 2..20, got {k}")
    poly = [Fraction((-1) ** (k - 1), math.factorial(k - 1))]
    for j in range(1, k):
        nxt = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] += c
            nxt[i] -= j * c
        poly = nxt
    poly += [Fraction(0)] * (k + 1 - len(poly))
    return SymmetricForm(k, tuple(poly))


def symmetric_ising(J, h, n: int) -> PseudoBoolean:
    """The symmetric quadratic model J/2 * sum_{l<k} 2 x_l x_k + h * sum x_l.

    Each unordered pair carries coupling J/2 and each variable bias h, so
    the power form is (J/4) X^2 + (h - J/4) X = (J/4) (X + 4h/J - 1) X.
    The kernel is the union of the weight hyperplanes X = 0 and
    X = 1 - 4h/J.
    """
    J = _coerce(J)
    h = _coerce(h)
    if J == 0:
        raise ValueError("J = 0 makes the model trivial")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    terms = {(l,): h for l in range(n)}
    for l in range(n):
        for k in range(l + 1, n):
            terms[(l, k)] = J / 2
    return PseudoBoolean.from_terms(n, terms)
