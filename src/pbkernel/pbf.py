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

A polynomial is one kind of :class:`_TermTable`, a {key: nonzero int}
table of numerators over one positive denominator on n variables, in least
terms, so structural equality coincides with semantic equality.  Its one
constructor, equality, sum and scaling by a number are shared with
:class:`pbkernel.pauli.PauliSum` (keyed by Pauli words).  Every consumer
reads the integers; the readers (``terms``, ``coefficient``,
``masked_terms``, ``eval``, ``to_dict``, ``to_text``) build the rational
coefficients as Fractions on each read.

Every number from outside reaches an exact table by one rule.  A single
number goes through :func:`_coerce`: any ``numbers.Rational`` (an int, a
Fraction, a numpy integer scalar, a Fraction over numpy integers) becomes a
Fraction of Python ints, so a numpy integer is read as a Python int and no
int64 sum or product can wrap; anything else goes to ``Fraction()``, which
raises for a bad one.  A sequence goes through :func:`_read_table` (behind
``_numerators`` and ``_scaled``), which takes Python ints as their own
numerators and reads every other entry by :func:`_coerce`; a text field
goes through :func:`pbkernel.expr.rational`.  A number that names a count,
such as an arity, is read by :func:`_count`: an int, a numpy integer or a
decimal string; a float or a bool is a ValueError, never truncated.

Every sum of sparse term tables in the package (polynomial sums and
products, re-seating, clamping, the expression parser, JSON polynomials,
one-body forms, Pauli sums, Pauli text files and their Clifford
conjugates) runs through one rule, :func:`_accumulate`:
add the (key, numerator) pairs in order over one denominator and drop a
key as soon as its sum is zero, so a table's key order is that of the
pairs it was built from.

Every oracle over the whole cube runs on one exact engine: a polynomial's
numerators, or values cleared to integer numerators over the LCM of their
denominators, sit in one numpy array, and the zeta transform (coefficients
-> values) or its Moebius inverse runs as n passes over it.  Both share
one pass form, :func:`_passes`, with the Walsh-Hadamard transform: each
pass works in place through ufunc ``out=`` with no temporary, and from 2^9
entries on the three lowest passes run column by column, because numpy
runs a 2-D op whose inner axis holds 2 or 4 entries row by row (at n = 15
pass 1 took about an eighth of the time as two strided columns).  A value
table handed out as Fractions holds one object per distinct value, shared
by every entry equal to it, written by one of three paths chosen by the
table's size, dtype and span (:func:`_shared_fractions`): a dict from each
distinct value to its Fraction up to 2^8 entries, where numpy's fixed cost
would dominate, and for Python ints at any size, which np.unique would sort
by Python comparisons; a range table for int64 whose span max - min is
below its length, one bincount and one gather with no sort; and
np.unique and one gather for a wider int64 span.  Reading a table back
tells its objects apart by id in one numpy sort, coerces and scales each
distinct object once and gathers the integers back in one pass.
Minimization takes its minimum on the integer array, not over Fractions.
The assignment tuples of kernels, witnesses and argmin sets are joined
from cached 8-bit chunk tuples (:func:`_assignments`).

Every exact integer array in the package takes its dtype from one rule,
:func:`_int_dtype`: int64 when a bound the caller's arithmetic proves on
every entry and intermediate is below 2^63, else Python ints (object),
on which the same numpy code runs; each caller states only its bound.

The Boolean <-> spin change of variables (:func:`boolean_to_spin`,
:func:`spin_to_boolean`) is the same kind of map on sparse input: a
product of one 2 x 2 matrix per variable.  It runs as one pass per
variable over the polynomial's integer numerators, each scaled by a
power of the substitution's denominator, so a dense polynomial costs
n * 2^n dict updates rather than 3^n, and no Fraction is built.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from numbers import Integral, Rational
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


def _check_assignment(x: Sequence, n: int) -> None:
    """DimensionError unless x has n entries, ValueError unless each is a bit."""
    if len(x) != n:
        raise DimensionError(f"assignment length {len(x)} != arity {n}")
    for b in x:
        if b not in (0, 1):
            raise ValueError(f"assignment entry {b!r} is not a bit")


def bits_of(index: int, n: int) -> tuple:
    """Inverse of :func:`index_of` for arity ``n``."""
    return tuple((index >> (n - 1 - i)) & 1 for i in range(n))


def _point_indices(members, n: int) -> list:
    """Basis-state indices of the members that are n-bit assignments (each bit
    read through ``int``, so 1.0 and True are 1); others name no point."""
    return [index_of(map(int, b)) for b in members if len(b) == n and set(b) <= {0, 1}]


@functools.cache
def _bit_chunks(width: int) -> tuple:
    """The assignment tuple of every varmask 0 .. 2^width - 1 (width <= 8)."""
    return tuple(tuple(m >> i & 1 for i in range(width)) for m in range(1 << width))


def _assignments(masks: np.ndarray, n: int) -> list:
    """Assignment tuples of an array of varmask-order positions: each is the
    cached :func:`_bit_chunks` tuples of its 8-bit chunks, lowest variables
    first, joined by ``operator.add``, one lookup per 8 variables."""
    out = map(_bit_chunks(min(n, 8)).__getitem__, (masks & 255).tolist())
    for lo in range(8, n, 8):
        out = map(operator.add, out, map(_bit_chunks(min(n - lo, 8)).__getitem__, (masks >> lo & 255).tolist()))
    return list(out)


def _int_dtype(bound: int):
    """The dtype of an exact integer array whose every entry and intermediate
    stays below ``bound`` in absolute value: int64 below 2^63, else Python
    ints (object), on which the same numpy code runs exactly."""
    return np.int64 if bound < 1 << 63 else object


def _read_table(values: Iterable) -> tuple:
    """(nums, denom, inverse, counts): each distinct object of ``values`` read once.

    When every entry is a Python int (a bool is not one), the entries are
    their own numerators over 1, in entry order, with no further pass; the
    check stops at the first entry that is not one.  Otherwise objects are
    told apart by id: one numpy sort of the ids finds whether any object
    repeats, so an input where none does (the amplitudes of a state file,
    an LP vector) pays no more numpy than that.  Each distinct object that
    is not a Python int is read by :func:`_coerce` once, in first-occurrence
    order (so the first bad entry raises first, and a numpy integer is read
    as a Python int), and ``nums`` holds its numerator over the LCM
    ``denom`` of all denominators.  When no object repeats, ``inverse`` and
    ``counts`` are None and ``nums`` is in entry order; otherwise entry i
    holds ``nums[inverse[i]]`` and ``counts[j]`` entries share object j.
    """
    values = list(values)  # keeps every entry alive, so equal ids mean one object
    if all(type(v) is int for v in values):
        return values, 1, None, None
    count = len(values)
    ids = np.fromiter(map(id, values), np.uintp, count)
    keys = ids.copy()
    keys.sort()
    same = keys[1:] == keys[:-1]  # sorted neighbours that are one object
    inverse = counts = None
    if np.count_nonzero(same):
        new = np.empty(count, dtype=bool)  # new[p]: sorted position p starts a distinct object
        new[0] = True
        np.logical_not(same, out=new[1:])
        order = ids.argsort()
        firsts = np.minimum.reduceat(order, new.nonzero()[0])  # first entry of each distinct object
        seq = firsts.argsort()  # distinct objects in first-occurrence order
        rank = np.empty_like(seq)
        rank[seq] = np.arange(seq.size)
        inverse = np.empty(count, dtype=np.intp)
        inverse[order] = rank[new.cumsum() - 1]
        counts = np.bincount(inverse).tolist()
        values = [values[i] for i in firsts[seq].tolist()]
    exact = [v if type(v) is int else _coerce(v) for v in values]
    denom = math.lcm(*{v.denominator for v in exact})
    if denom == 1:
        return [v.numerator for v in exact], denom, inverse, counts
    return [v.numerator * (denom // v.denominator) for v in exact], denom, inverse, counts


def _numerators(values: Iterable) -> tuple:
    """(numerators, denom): exact values as a list of ints over their LCM,
    read by :func:`_read_table`; entries that share one object share one int."""
    nums, denom, inverse, _ = _read_table(values)
    if inverse is not None:
        nums = np.array(nums, dtype=object)[inverse].tolist()
    return nums, denom


def _scaled(values: Iterable) -> tuple:
    """(numerators, denom): exact values as one integer array over their LCM,
    read by :func:`_read_table` and gathered once.

    Every intermediate of either subset transform is a +-1 combination of
    distinct inputs, and the Walsh-Hadamard pass also holds twice one, so
    every entry stays below 2 * sum(|numerators|), the bound handed to
    :func:`_int_dtype`.  The sum runs over every entry, as count times
    |numerator| per distinct object.
    """
    nums, denom, inverse, counts = _read_table(values)
    total = sum(map(abs, nums)) if counts is None else sum(c * abs(v) for c, v in zip(counts, nums))
    vals = np.array(nums, dtype=_int_dtype(2 * total))
    return (vals if inverse is None else vals[inverse]), denom


def _passes(vals: np.ndarray, n: int):
    """The (a, b) view pairs of the n passes of a cube transform, varmask
    order: a holds the entries without variable i, b the same entries with it.

    A pass is 2^i columns of 2^(n-i-1) entries each.  Above 2^8 entries
    the passes i < 3 yield each column as its own 1-D strided view:
    numpy runs a 2-D op with a short inner axis row by row, and at n = 15
    (2-core x86-64, NumPy 2.4) pass 1 took 127-134 us as one op against
    12-15 us as two, pass 2 66-75 against 27-31 us.  At n <= 8 the extra
    calls cost more than they save.
    """
    for i in range(n):
        halves = vals.reshape(-1, 2, 1 << i)
        for j in range(1 << i) if i < 3 and n > 8 else [slice(None)]:
            yield halves[:, 0, j], halves[:, 1, j]


def _subset_transform(vals: np.ndarray, n: int, sign: int) -> None:
    """In-place zeta (sign 1: b += a) or Moebius (sign -1: b -= a)
    transform, varmask order, over :func:`_passes` with no temporary."""
    op = np.add if sign > 0 else np.subtract
    for a, b in _passes(vals, n):
        op(b, a, out=b)


def _hadamard_transform(vals: np.ndarray, n: int) -> None:
    """In-place Walsh-Hadamard transform, varmask order: the coefficients of a
    spin polynomial become its values at z_l = 1 - 2 x_l for every varmask x.

    Each of :func:`_passes` maps (a, b) to (a + b, a - b) through three
    in-place ops: a += b, b *= -2, b += a.  Every a + b and a - b is a +-1
    combination of distinct inputs and -2b is twice one, so every entry stays
    below the bound 2 * sum(|numerators|) that :func:`_scaled` hands to
    :func:`_int_dtype`.
    """
    for a, b in _passes(vals, n):
        np.add(a, b, out=a)
        np.multiply(b, -2, out=b)
        np.add(b, a, out=b)


def _swap_order(vals: np.ndarray, n: int) -> np.ndarray:
    """Varmask order <-> state order: reverse the axes of the (2,)*n view."""
    return vals.reshape((2,) * n).transpose().reshape(-1)


def _shared_fractions(nums: np.ndarray, denom: int) -> list:
    """[Fraction(v, denom) for v in nums], built as one Fraction per distinct
    value, so equal entries share one object.  The path follows the table's
    size, dtype and span:

    * up to 2^8 entries, and Python ints (object) at any size, a dict from
      each distinct value to its Fraction: numpy's fixed cost would dominate
      a small table, and np.unique sorts objects by Python comparisons (on a
      2^20-entry table, 1.5 s against 0.4 s for the dict);
    * int64 whose span max - min is below its length, a range table: each
      entry's offset from the minimum indexes an object table over the span,
      which holds the Fractions of the offsets present (one ``bincount``), so
      one gather writes the table in O(2^n), with no sort;
    * wider int64 spans, one np.unique and one gather.
    """
    if nums.size <= 1 << 8 or nums.dtype == object:
        values = nums.tolist()
        shared = {v: Fraction(v, denom) for v in set(values)}
        return list(map(shared.__getitem__, values))
    low, high = int(nums.min()), int(nums.max())
    if high - low < nums.size:
        inverse = nums - low
        present = np.flatnonzero(np.bincount(inverse))
        shared = np.empty(high - low + 1, dtype=object)
        shared[present] = [Fraction(v + low, denom) for v in present.tolist()]
    else:
        distinct, inverse = np.unique(nums, return_inverse=True)
        shared = np.array([Fraction(v, denom) for v in distinct.tolist()], dtype=object)
    return shared[inverse].tolist()


def _coerce(value) -> Fraction:
    """The one rule for a single outside number: any ``numbers.Rational`` (an
    int, a bool, a numpy integer, a Fraction, even one over numpy integers)
    becomes a Fraction of Python ints, and a Fraction that already is one is
    returned as it is; anything else goes to ``Fraction()`` and raises what
    that raises."""
    if type(value) is Fraction and type(value.numerator) is int is type(value.denominator):
        return value
    if isinstance(value, Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    return Fraction(value)


def _accumulate(table: dict, pairs: Iterable) -> dict:
    """Add each (key, coefficient) pair into ``table`` in order, dropping a key
    whose sum reaches zero; returns ``table``.  An absent key takes a nonzero
    coefficient as given, so a bool would stay a bool: callers pass numbers."""
    for key, c in pairs:
        if key in table:
            s = table[key] + c
            if s:
                table[key] = s
            else:
                del table[key]
        elif c:
            table[key] = c
    return table


def _mask(vars_: Iterable[int], arity: int, what: str = "variable index") -> int:
    """Bitmask of variable indices, each checked to lie in 0..arity-1."""
    mask = 0
    for i in vars_:
        if not 0 <= i < arity:
            raise ValueError(f"{what} {i} out of range for arity {arity}")
        mask |= 1 << i
    return mask


def _count(value, what: str) -> int:
    """A number that names a count, as a Python int: an int, a numpy integer
    or a decimal string (which :meth:`PseudoBoolean.from_dict` reads); a
    float, a bool or anything else is a ValueError naming it.  A Python int
    pays one type check."""
    value = int(value) if isinstance(value, str) else value
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_arity(arity) -> int:
    arity = _count(arity, "arity")
    if arity < 0 or arity > MAX_ARITY:
        raise ValueError(f"arity must be in 0..{MAX_ARITY}, got {arity}")
    return arity


def _check_cap(n: int, cap, what: str) -> None:
    """EnumerationCapError when 2^n points pass 2^cap, the cap read by :func:`_count`."""
    cap = _count(cap, "cap")
    if n > cap:
        raise EnumerationCapError(f"{what} would enumerate 2^{n} points (cap 2^{cap})")


class NonNegativity(NamedTuple):
    """Result of an exhaustive non-negativity scan."""

    ok: bool
    witness: tuple | None  # an assignment with f(x) < 0, if any


class _TermTable:
    """A {key: nonzero int} table ``_terms`` over one positive denominator
    ``_den`` on ``n`` variables, in least terms (gcd(``_den``, every
    numerator) = 1): the exact form :class:`PseudoBoolean` (keys are monomial
    masks) and :class:`pbkernel.pauli.PauliSum` (keys are Pauli words) share.
    Tables of one type and arity compare equal when their denominators and
    terms do, add through :func:`_accumulate` over the LCM of their
    denominators and scale by a coerced scalar.  It defines ``__eq__`` and
    no hash, so a subclass is hashable only if it says so.  Each subclass
    gives ``_arity``, the checked n of a table asked for with an arity, and
    ``_key``, the checked key of a table's entry."""

    __slots__ = ("n", "_terms", "_den")

    def __init__(self, arity: int, terms: Mapping | None = None):
        """The table of ``terms``, {key: coefficient}: each key is checked by
        the subclass's ``_key`` before its coefficient is coerced, zeros are
        dropped and the rest are cleared over the LCM of their denominators,
        which leaves them in least terms."""
        self.n = self._arity(arity)
        pairs = [(self._key(key), _coerce(c)) for key, c in terms.items()] if terms else []
        den = math.lcm(*(c.denominator for _, c in pairs))
        self._terms = {key: c.numerator * (den // c.denominator) for key, c in pairs if c}
        self._den = den

    @classmethod
    def _of(cls, arity: int, table: dict, den: int = 1):
        """Wrap a trusted {key: nonzero int} table over ``den`` > 0 on a checked
        arity, divided by their gcd into least terms: each caller passes an
        existing table's n or an arity it checked once (the parser,
        ``from_disjoint_form``, ``profile_to_pbf``)."""
        out = object.__new__(cls)
        out.n = arity
        g = math.gcd(den, *table.values())
        out._terms = {key: c // g for key, c in table.items()} if g > 1 else table
        out._den = den // g
        return out

    @classmethod
    def _sum(cls, arity: int, tables: Sequence):
        """The sum of ``tables`` of this type and arity: their numerators over
        the LCM of their denominators, added in order by :func:`_accumulate`."""
        den = math.lcm(*(t._den for t in tables))
        table: dict = {}
        for t in tables:
            scale = den // t._den
            _accumulate(table, ((k, scale * c) for k, c in t._terms.items()) if scale > 1 else t._terms.items())
        return cls._of(arity, table, den)

    @classmethod
    def zero(cls, arity: int):
        return cls(arity)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._terms == other._terms

    def _require_same_arity(self, other: "_TermTable") -> None:
        if self.n != other.n:
            raise DimensionError(f"arity mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_arity(other)
        return self._sum(self.n, (self, other))

    def _times(self, scalar):
        c = _coerce(scalar)
        table = {k: c.numerator * v for k, v in self._terms.items()} if c else {}
        return self._of(self.n, table, self._den * c.denominator)


class PseudoBoolean(_TermTable):
    """Sparse multilinear polynomial over exact rationals."""

    __slots__ = ()
    _arity = staticmethod(_check_arity)

    def _key(self, mask: int) -> int:
        if mask < 0 or mask >> self.n:
            raise ValueError(f"monomial mask {mask:#x} uses variables >= arity {self.n}")
        return mask

    # -- construction -------------------------------------------------

    @classmethod
    def constant(cls, arity: int, value) -> "PseudoBoolean":
        return cls(arity, {0: value})

    @classmethod
    def variable(cls, arity: int, i: int) -> "PseudoBoolean":
        if not 0 <= i < arity:
            raise ValueError(f"variable index {i} out of range for arity {arity}")
        return cls(arity, {1 << i: 1})

    @classmethod
    def from_terms(cls, arity: int, terms: Mapping[Iterable[int], object]) -> "PseudoBoolean":
        """Build from a map {iterable of variable indices: coefficient}."""
        _check_arity(arity)  # before building masks up to arity bits wide
        pairs = ((_mask(vars_, arity), _coerce(coeff)) for vars_, coeff in terms.items())
        return cls(arity, _accumulate({}, pairs))

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
        vals, denom = _scaled(table)
        vals = _swap_order(vals, n)
        _subset_transform(vals, n, -1)
        masks = np.flatnonzero(vals)
        return cls._of(n, dict(zip(masks.tolist(), vals[masks].tolist())), denom)

    # -- inspection ----------------------------------------------------

    def terms(self):
        """Sorted list of (variable-index tuple, coefficient) pairs."""
        out = []
        for mask in sorted(self._terms, key=lambda m: (m.bit_count(), m)):
            vars_ = tuple(i for i in range(self.n) if mask & (1 << i))
            out.append((vars_, Fraction(self._terms[mask], self._den)))
        return out

    def masked_terms(self) -> dict:
        """The {mask: coefficient} map, in the table's key order."""
        return {mask: Fraction(c, self._den) for mask, c in self._terms.items()}

    def coefficient(self, vars_: Iterable[int]) -> Fraction:
        mask = 0
        for i in vars_:
            mask |= 1 << i
        return Fraction(self._terms.get(mask, 0), self._den)

    @property
    def degree(self) -> int:
        """Largest monomial size (0 for constants and the zero polynomial)."""
        return max((m.bit_count() for m in self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    def __hash__(self):
        return hash((self.n, self._den, frozenset(self._terms.items())))

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

    def __add__(self, other):
        if isinstance(other, PseudoBoolean):
            return super().__add__(other)
        return self + PseudoBoolean.constant(self.n, other)

    __radd__ = __add__

    def __neg__(self):
        return PseudoBoolean._of(self.n, {m: -c for m, c in self._terms.items()}, self._den)

    def __sub__(self, other):
        if isinstance(other, PseudoBoolean):
            return self + (-other)
        return self + PseudoBoolean.constant(self.n, -_coerce(other))

    def __rsub__(self, other):
        return (-self) + PseudoBoolean.constant(self.n, other)

    def __mul__(self, other):
        if isinstance(other, PseudoBoolean):
            self._require_same_arity(other)
            # x*x = x: a product monomial is the union of its factors' variable subsets
            right = other._terms.items()
            pairs = ((m1 | m2, c1 * c2) for m1, c1 in self._terms.items() for m2, c2 in right)
            return PseudoBoolean._of(self.n, _accumulate({}, pairs), self._den * other._den)
        return self._times(other)

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
        _check_arity(arity)  # before seat's range checks name a mapped index

        def seat(mask: int) -> int:  # range-checks only the variables the monomial uses
            targets = (mapping[i] for i in range(mask.bit_length()) if mask >> i & 1)
            return _mask(targets, arity, "mapped index")

        pairs = ((seat(mask), c) for mask, c in self._terms.items())
        return PseudoBoolean._of(arity, _accumulate({}, pairs), self._den)

    # -- evaluation ----------------------------------------------------

    def eval(self, x: Sequence[int]) -> Fraction:
        """Exact value at a Boolean assignment."""
        _check_assignment(x, self.n)
        xmask = sum(1 << i for i, b in enumerate(x) if b)
        return Fraction(sum(c for mask, c in self._terms.items() if mask & xmask == mask), self._den)

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
        return total / self._den

    def _cube_values(self, cap: int, what: str) -> tuple:
        """(vals, denom) with vals[mask] == denom * f(x) for every varmask, on
        the dtype of :func:`_scaled`'s bound 2 * sum(|numerators|)."""
        _check_cap(self.n, cap, what)
        coeffs = list(self._terms.values())
        vals = np.zeros(1 << self.n, dtype=_int_dtype(2 * sum(map(abs, coeffs))))
        vals[list(self._terms)] = coeffs
        _subset_transform(vals, self.n, 1)
        return vals, self._den

    def to_disjoint_form(self, cap: int = DEFAULT_ENUMERATION_CAP) -> list:
        """Value table a with a[index_of(x)] = f(x) for all 2^n assignments.

        Entries equal in value are one shared Fraction: one is built per
        distinct value and gathered into state order by
        :func:`_shared_fractions`, which at n >= 9 takes the range table when
        the values span fewer integers than the table has entries (the usual
        case for small coefficients), np.unique for a wider int64 span and a
        dict for Python ints.
        """
        vals, denom = self._cube_values(cap, "disjoint-form table")
        return _shared_fractions(_swap_order(vals, self.n), denom)

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
        """Read :meth:`to_dict`'s form.  The arity and each variable index are
        read by :func:`_count`, each coefficient by :func:`_coerce`, and the
        terms add up in order, whatever the order of a monomial's variables."""
        arity = _check_arity(data["arity"])
        pairs = []
        for entry in data["terms"]:
            vars_ = [_count(v, "variable index") - 1 for v in entry["vars"]]
            if any(v < 0 for v in vars_):
                raise ValueError("JSON variable indices are 1-based")
            pairs.append((_mask(vars_, arity), _coerce(entry["coeff"])))
        return cls(arity, _accumulate({}, pairs))


def boolean_to_spin(f: PseudoBoolean) -> PseudoBoolean:
    """Substitute x_i = (1 - z_i)/2; result is a polynomial in spin variables.

    The returned object reuses the multilinear representation, with
    variable i read as z_i in {-1, +1}.
    """
    return _substitute_affine(f, 2, -1)


def spin_to_boolean(g: PseudoBoolean) -> PseudoBoolean:
    """Substitute z_i = 1 - 2 x_i; exact inverse of :func:`boolean_to_spin`."""
    return _substitute_affine(g, 1, -2)


def _substitute_affine(f: PseudoBoolean, scale: int, ratio: int) -> PseudoBoolean:
    """Replace every variable v by (1 + ratio * v') / scale, both nonzero ints.

    With d the degree, each c * v_M becomes the numerator of c times
    scale^(d - |M|) over the polynomial's denominator times scale^d.  Then,
    one variable at a time, every term that holds the variable becomes ratio
    times itself and adds its numerator to the term without it.  The table
    only ever holds subsets of input monomials, so at most sum 2^|M| keys.
    """
    d = f.degree
    table = {mask: c * scale ** (d - mask.bit_count()) for mask, c in f._terms.items()}
    for bit in (1 << i for i in range(f.n)):
        held = [(mask, c) for mask, c in table.items() if mask & bit]
        table.update((mask, ratio * c) for mask, c in held)
        _accumulate(table, ((mask ^ bit, c) for mask, c in held))
    return PseudoBoolean._of(f.n, table, f._den * scale ** d)
