"""Exact-arithmetic pseudo-Boolean polynomials.

A pseudo-Boolean function f : {0,1}^n -> Q is stored as its unique
multilinear polynomial: a sparse map from variable subsets to nonzero
rational coefficients.  Subsets are encoded as bitmasks with bit i
standing for variable i, so idempotence (x*x = x) is subset union and
multilinearity is structural.

Conventions used throughout the package:

* variables carry 0-based indices in the Python API; the text and JSON
  formats are 1-based (``x1`` is variable 0),
* an assignment is a tuple of 0/1 ints, entry i = value of variable i,
* tables indexed by computational-basis state (disjoint-form tables,
  operator diagonals, amplitude vectors) put variable 0 in the MOST
  significant bit of the index: ``index_of((1,0,0)) == 4``.

All coefficients are `fractions.Fraction`; every mutation prunes zero
coefficients so structural equality coincides with semantic equality.

Every oracle over the whole cube runs on one exact engine: values or
coefficients become integer numerators over the LCM of their denominators
in one numpy array (int64 under a proven bound, Python ints above it, so
exact either way), and the zeta transform (coefficients -> values) or its
Moebius inverse runs as n in-place passes over that array.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, EnumerationCapError

#: Hard limit on the number of variables (bitmask keys stay word-sized).
MAX_ARITY = 64

#: Default cap for brute-force enumeration oracles (kernel, non-negativity,
#: disjoint tables).  2^20 exact evaluations is still desk scale.
DEFAULT_ENUMERATION_CAP = 20


def index_of(bits: Sequence[int]) -> int:
    """Basis-state index of an assignment (variable 0 = most significant bit)."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | (b & 1)
    return idx


def bits_of(index: int, n: int) -> tuple:
    """Inverse of :func:`index_of` for arity ``n``."""
    return tuple((index >> (n - 1 - i)) & 1 for i in range(n))


def _point_indices(members, n: int) -> list:
    """Basis-state indices of the members that are n-bit assignments; others name no point."""
    return [index_of(b) for b in members if len(b) == n and set(b) <= {0, 1}]


def _assignments(masks: np.ndarray, n: int) -> list:
    """Assignment tuples of an array of varmask-order positions."""
    return list(map(tuple, ((masks[:, None] >> np.arange(n)) & 1).tolist()))


def _scaled(values: list) -> tuple:
    """(numerators, denom): Fractions as one integer array over their LCM.

    Every intermediate of either subset transform is a +-1 combination of
    distinct inputs, so sum(|numerators|) < 2^62 rules out int64 overflow;
    above that bound the same code runs on Python ints.
    """
    denom = math.lcm(*{v.denominator for v in values})
    nums = [v.numerator * (denom // v.denominator) for v in values]
    return np.array(nums, dtype=np.int64 if sum(map(abs, nums)) < 1 << 62 else object), denom


def _subset_transform(vals: np.ndarray, n: int, sign: int) -> None:
    """In-place zeta (sign 1) or Moebius (sign -1) transform, varmask order."""
    for i in range(n):
        halves = vals.reshape(-1, 2, 1 << i)  # halves[:, 1] has variable i set
        halves[:, 1] += sign * halves[:, 0]


def _swap_order(vals: np.ndarray, n: int) -> np.ndarray:
    """Varmask order <-> state order: reverse the axes of the (2,)*n view."""
    return vals.reshape((2,) * n).transpose().reshape(-1)


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise EnumerationCapError(f"{what} would enumerate 2^{n} points (cap 2^{cap})")


class NonNegativity(NamedTuple):
    """Result of an exhaustive non-negativity scan."""

    ok: bool
    witness: tuple | None  # an assignment with f(x) < 0, if any


class PseudoBoolean:
    """Sparse multilinear polynomial over exact rationals."""

    __slots__ = ("n", "_terms")

    def __init__(self, arity: int, masked_terms: Mapping[int, Fraction] | None = None):
        if arity < 0 or arity > MAX_ARITY:
            raise ValueError(f"arity must be in 0..{MAX_ARITY}, got {arity}")
        self.n = int(arity)
        terms = {}
        if masked_terms:
            for mask, coeff in masked_terms.items():
                c = _coerce(coeff)
                if c == 0:
                    continue
                if mask < 0 or mask >> self.n:
                    raise ValueError(f"monomial mask {mask:#x} uses variables >= arity {self.n}")
                terms[mask] = c
        self._terms = terms

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "PseudoBoolean":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value) -> "PseudoBoolean":
        return cls(arity, {0: _coerce(value)})

    @classmethod
    def variable(cls, arity: int, i: int) -> "PseudoBoolean":
        if not 0 <= i < arity:
            raise ValueError(f"variable index {i} out of range for arity {arity}")
        return cls(arity, {1 << i: Fraction(1)})

    @classmethod
    def from_terms(cls, arity: int, terms: Mapping[Iterable[int], object]) -> "PseudoBoolean":
        """Build from a map {iterable of variable indices: coefficient}."""
        masked = {}
        for vars_, coeff in terms.items():
            mask = 0
            for i in vars_:
                if not 0 <= i < arity:
                    raise ValueError(f"variable index {i} out of range for arity {arity}")
                mask |= 1 << i
            masked[mask] = masked.get(mask, Fraction(0)) + _coerce(coeff)
        return cls(arity, masked)

    @classmethod
    def from_disjoint_form(cls, table: Sequence) -> "PseudoBoolean":
        """Unique multilinear polynomial with the given value table.

        ``table[index_of(x)] == f(x)`` for every assignment x; the length
        must be a power of two.  This is Moebius inversion over the subset
        lattice.
        """
        size = len(table)
        if size == 0 or size & (size - 1):
            raise ValueError(f"table length {size} is not a power of two")
        n = size.bit_length() - 1
        vals, denom = _scaled([_coerce(v) for v in table])
        vals = _swap_order(vals, n)
        _subset_transform(vals, n, -1)
        masks = np.flatnonzero(vals)
        return cls(n, {m: Fraction(c, denom) for m, c in zip(masks.tolist(), vals[masks].tolist())})

    # -- inspection ----------------------------------------------------

    def terms(self):
        """Sorted list of (variable-index tuple, coefficient) pairs."""
        out = []
        for mask in sorted(self._terms, key=lambda m: (m.bit_count(), m)):
            vars_ = tuple(i for i in range(self.n) if mask & (1 << i))
            out.append((vars_, self._terms[mask]))
        return out

    def masked_terms(self) -> dict:
        """Copy of the internal {mask: coefficient} map."""
        return dict(self._terms)

    def coefficient(self, vars_: Iterable[int]) -> Fraction:
        mask = 0
        for i in vars_:
            mask |= 1 << i
        return self._terms.get(mask, Fraction(0))

    @property
    def degree(self) -> int:
        """Largest monomial size (0 for constants and the zero polynomial)."""
        return max((m.bit_count() for m in self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, PseudoBoolean):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def __repr__(self):
        return f"PseudoBoolean({self.n}, {self.to_text()!r})"

    def to_text(self, var: str = "x") -> str:
        """Render in the text-expression grammar (1-based variables).

        ``var`` only changes the display prefix (e.g. "z" for spin
        polynomials); the grammar itself always parses x-variables.
        """
        if not self._terms:
            return "0"
        parts = []
        for vars_, coeff in self.terms():
            mono = "*".join(f"{var}{i + 1}" for i in vars_)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    # -- algebra -------------------------------------------------------

    def _require_same_arity(self, other: "PseudoBoolean") -> None:
        if self.n != other.n:
            raise DimensionError(f"arity mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, PseudoBoolean):
            self._require_same_arity(other)
            terms = dict(self._terms)
            for mask, c in other._terms.items():
                s = terms.get(mask, Fraction(0)) + c
                if s:
                    terms[mask] = s
                else:
                    terms.pop(mask, None)
            out = PseudoBoolean(self.n)
            out._terms = terms
            return out
        return self + PseudoBoolean.constant(self.n, other)

    __radd__ = __add__

    def __neg__(self):
        out = PseudoBoolean(self.n)
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, PseudoBoolean):
            return self + (-other)
        return self + PseudoBoolean.constant(self.n, -_coerce(other))

    def __rsub__(self, other):
        return (-self) + PseudoBoolean.constant(self.n, other)

    def __mul__(self, other):
        if isinstance(other, PseudoBoolean):
            self._require_same_arity(other)
            terms: dict = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    mask = m1 | m2  # x*x = x: union of variable subsets
                    s = terms.get(mask, Fraction(0)) + c1 * c2
                    if s:
                        terms[mask] = s
                    else:
                        terms.pop(mask, None)
            out = PseudoBoolean(self.n)
            out._terms = terms
            return out
        c = _coerce(other)
        if c == 0:
            return PseudoBoolean.zero(self.n)
        out = PseudoBoolean(self.n)
        out._terms = {m: c * v for m, v in self._terms.items()}
        return out

    __rmul__ = __mul__

    def embed(self, arity: int, mapping: Sequence[int] | None = None) -> "PseudoBoolean":
        """Re-seat the polynomial on ``arity`` variables.

        ``mapping[i]`` is the new index of old variable i; by default
        variables keep their indices (pure arity padding).  Mapping two
        old variables to one target identifies them (the substitution is
        exact on the Boolean cube thanks to idempotence), which is how
        netlist wires are contracted.
        """
        if mapping is None:
            mapping = list(range(self.n))
        if len(mapping) != self.n:
            raise DimensionError(f"mapping length {len(mapping)} != arity {self.n}")
        terms: dict = {}
        for mask, c in self._terms.items():
            new_mask = 0
            for i in range(self.n):
                if mask & (1 << i):
                    j = mapping[i]
                    if not 0 <= j < arity:
                        raise ValueError(f"mapped index {j} out of range for arity {arity}")
                    new_mask |= 1 << j
            s = terms.get(new_mask, Fraction(0)) + c
            if s:
                terms[new_mask] = s
            else:
                terms.pop(new_mask, None)
        return PseudoBoolean(arity, terms)

    # -- evaluation ----------------------------------------------------

    def eval(self, x: Sequence[int]) -> Fraction:
        """Exact value at a Boolean assignment."""
        if len(x) != self.n:
            raise DimensionError(f"assignment length {len(x)} != arity {self.n}")
        xmask = 0
        for i, b in enumerate(x):
            if b not in (0, 1):
                raise ValueError(f"assignment entry {b!r} is not a bit")
            if b:
                xmask |= 1 << i
        total = Fraction(0)
        for mask, c in self._terms.items():
            if mask & xmask == mask:
                total += c
        return total

    def eval_real(self, r: Sequence) -> Fraction:
        """Multilinear extension evaluated at a point of [0,1]^n."""
        if len(r) != self.n:
            raise DimensionError(f"point length {len(r)} != arity {self.n}")
        coords = [_coerce(v) for v in r]
        for v in coords:
            if v < 0 or v > 1:
                raise ValueError(f"coordinate {v} outside [0,1]")
        total = Fraction(0)
        for mask, c in self._terms.items():
            p = c
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                p *= coords[i]
                m &= m - 1
            total += p
        return total

    def _cube_values(self, cap: int, what: str) -> tuple:
        """(vals, denom) with vals[mask] == denom * f(x) for every varmask."""
        _check_cap(self.n, cap, what)
        coeffs, denom = _scaled(list(self._terms.values()))
        vals = np.zeros(1 << self.n, dtype=coeffs.dtype)
        vals[list(self._terms)] = coeffs
        _subset_transform(vals, self.n, 1)
        return vals, denom

    def to_disjoint_form(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list:
        """Value table a with a[index_of(x)] = f(x) for all 2^n assignments."""
        vals, denom = self._cube_values(cap, "disjoint-form table")
        return [Fraction(v, denom) for v in _swap_order(vals, self.n).tolist()]

    def kernel(self, cap: int = DEFAULT_ENUMERATION_CAP) -> set:
        """The set of assignments where f vanishes (exact zero test)."""
        vals, _ = self._cube_values(cap, "kernel")
        return set(_assignments(np.flatnonzero(vals == 0), self.n))

    def is_nonnegative(self, cap: int = DEFAULT_ENUMERATION_CAP) -> NonNegativity:
        """Exhaustive check f(x) >= 0; the witness is the first negative point in varmask order."""
        vals, _ = self._cube_values(cap, "non-negativity scan")
        witness = _assignments(np.flatnonzero(vals < 0)[:1], self.n)
        return NonNegativity(not witness, witness[0] if witness else None)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """JSON form: 1-based sorted variable lists, rational strings."""
        terms = [
            {"vars": [i + 1 for i in vars_], "coeff": str(coeff)}
            for vars_, coeff in self.terms()
        ]
        return {"arity": self.n, "terms": terms}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PseudoBoolean":
        arity = int(data["arity"])
        terms = {}
        for entry in data["terms"]:
            vars_ = tuple(int(v) - 1 for v in entry["vars"])
            if any(v < 0 for v in vars_):
                raise ValueError("JSON variable indices are 1-based")
            terms[vars_] = Fraction(entry["coeff"])
        return cls.from_terms(arity, terms)


def boolean_to_spin(f: PseudoBoolean) -> PseudoBoolean:
    """Substitute x_i = (1 - z_i)/2; result is a polynomial in spin variables.

    The returned object reuses the multilinear representation, with
    variable i read as z_i in {-1, +1}.
    """
    return _substitute_affine(f, Fraction(1, 2), Fraction(-1, 2))


def spin_to_boolean(g: PseudoBoolean) -> PseudoBoolean:
    """Substitute z_i = 1 - 2 x_i; exact inverse of :func:`boolean_to_spin`."""
    return _substitute_affine(g, Fraction(1), Fraction(-2))


def _substitute_affine(f: PseudoBoolean, alpha: Fraction, beta: Fraction) -> PseudoBoolean:
    # replaces every variable v by (alpha + beta * v'); no squares arise
    # because each variable occurs at most once per monomial
    terms: dict = {}
    for mask, c in f._terms.items():
        expansion = {0: c}
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            nxt: dict = {}
            for sub, coeff in expansion.items():
                a = coeff * alpha
                if a:
                    nxt[sub] = nxt.get(sub, Fraction(0)) + a
                b = coeff * beta
                if b:
                    nxt[sub | (1 << i)] = nxt.get(sub | (1 << i), Fraction(0)) + b
            expansion = nxt
        for sub, coeff in expansion.items():
            s = terms.get(sub, Fraction(0)) + coeff
            if s:
                terms[sub] = s
            else:
                terms.pop(sub, None)
    return PseudoBoolean(f.n, terms)
