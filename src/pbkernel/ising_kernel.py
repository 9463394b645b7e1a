"""One-body penalty classification and the Ising Kernel decision procedure.

The classification side builds the elementary non-negative penalties:
one-body forms c_0 + sum c_k x_k^(tau_k) with their closed-form kernels,
the product of two one-body forms whose kernel is {0^n, 1^n}, and the
squared form with a one-dimensional kernel.

The decision side answers: given a set S of bit strings, is there a
quadratic diagonal (Ising) form vanishing exactly on S and positive
elsewhere?  The open-cone existence question is scale invariant, so it
is normalized to the margin system

    f(s) = 0  for s in S,      f(x) >= 1  for x not in S,

over the 1 + n + n(n-1)/2 unknowns (c0, h_l, J_lk of the Z-basis form).
Feasibility is decided by an exact two-phase simplex with Bland's rule;
the margin system itself has 2^n rows, so the solve runs on its dual
(whose row count is the number of unknowns) and recovers either a
coefficient vector (from the optimal dual multipliers) or a Farkas
certificate (from the unbounded ray).  The target set is read once, by
lookups in a per-n cache (:func:`_cube`) that also holds the features of
all 2^n points as one integer matrix: the LP's rows are one gather of it.

Each LP row is cleared once, when the LPInstance is built, to integers
over the LCM of its own denominators.  Rows that numpy reads at once as
integers int64 holds are stacked by that one read; any other row goes
through the package's one table reader,
:func:`pbkernel.pbf._numerators`: Python ints are their own numerators,
and every other entry (a numpy integer too) is read by
:func:`pbkernel.pbf._coerce` as a Fraction of Python ints.  The LP keeps
the rows as one integer array and builds its Fraction rows only if they
are read.  The tableau builds its initial tableau T0 by columns, one
gather of a per-variable source.  A pivot rewrites only K = [Q | Q b],
the row operations since the start, and each entering column is one
product of K and T0, made on demand (revised simplex).  Row i of Q T0
over its gcd is the Bareiss and Edmonds row over its gcd, so Bland's
rule takes the pivots a Fraction tableau would.  Each answer is read off
K and T0 as integers over one denominator and re-checked on them against
the LP's integer rows: one primal check (A x against b, or 0 for a ray)
and one dual check (y^T A against c, returning y^T b) cover points,
rays, duals and Farkas certificates, each one integer matrix product; a
Fraction is built only for an output entry.  A recovered realization is
re-checked at every point of the cube by one Walsh-Hadamard pass over
its integer spin coefficients, a certificate (its multipliers one
Fraction each, of the ray's integer numerators) on the cached features
of its points.
"""

from __future__ import annotations

import functools
import math
import reprlib
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, EnumerationCapError
from .pbf import (DEFAULT_ENUMERATION_CAP, PseudoBoolean, _accumulate, _assignments, _coerce, _count,
                  _hadamard_transform, _int_dtype, _numerators, _point_indices, _scaled, _swap_order, spin_to_boolean)

#: brute-force cap for the realizability decision (2^n constraint rows)
REALIZABILITY_CAP = 12


# ---------------------------------------------------------------------------
# one-body forms and their derived models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OneBodyForm:
    """g = offset + sum_k coeffs[k] * x_k^(tau[k]).

    ``tau[k] = 1`` keeps x_k, ``tau[k] = 0`` complements it (1 - x_k).
    Coefficients and offset are restricted to non-negative rationals,
    which keeps the form a penalty function.
    """

    coeffs: tuple
    tau: tuple
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        coeffs = tuple(_coerce(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offset", _coerce(self.offset))
        if len(self.tau) != len(coeffs):
            raise DimensionError("tau and coefficient lengths differ")
        if any(t not in (0, 1) for t in self.tau):
            raise ValueError("tau entries must be bits")
        if any(c < 0 for c in coeffs):
            raise ValueError("one-body coefficients must be non-negative")
        if self.offset < 0:
            raise ValueError("offset must be non-negative")

    @property
    def n(self) -> int:
        return len(self.coeffs)


def one_body(form: OneBodyForm) -> PseudoBoolean:
    """Expand the one-body form into its multilinear polynomial."""
    pairs = [(0, form.offset)]
    for k, (c, t) in enumerate(zip(form.coeffs, form.tau)):
        pairs += [(1 << k, c)] if t else [(0, c), (1 << k, -c)]  # c * x_k, or c - c * x_k
    return PseudoBoolean(form.n, _accumulate({}, pairs))


class OneBodyKernel(NamedTuple):
    """Closed-form kernel description of a one-body form.

    Positions with positive coefficient are pinned to the complement of
    tau; zero-coefficient positions are free.  ``assignments`` is the
    explicit kernel set when the arity is small enough to enumerate.
    """

    pinned: dict
    free: tuple
    empty: bool
    assignments: frozenset | None


def one_body_kernel(form: OneBodyForm, explicit_cap: int = DEFAULT_ENUMERATION_CAP) -> OneBodyKernel:
    explicit_cap = _count(explicit_cap, "explicit_cap")
    if form.offset > 0:
        return OneBodyKernel({}, (), True, frozenset())
    pinned = {k: 1 - form.tau[k] for k, c in enumerate(form.coeffs) if c > 0}
    free = tuple(k for k, c in enumerate(form.coeffs) if c == 0)
    assignments = None
    if form.n <= explicit_cap:  # the pinned bits' varmask OR-ed with each subset of the free bits
        masks = np.array([sum(1 << k for k, v in pinned.items() if v)], dtype=_int_dtype(1 << form.n))
        for k in free:
            masks = np.concatenate([masks, masks | 1 << k])
        assignments = frozenset(_assignments(masks, form.n))
    return OneBodyKernel(pinned, free, False, assignments)


def ghz_quadratic(c: Sequence, a: Sequence) -> PseudoBoolean:
    """(sum c_k x_k) * (sum a_k - sum a_k x_k); kernel {0^n, 1^n}.

    The kernel statement needs every coefficient strictly positive: a
    zero c_k (or a_k) frees that bit in the corresponding factor and the
    kernel grows past the two fully-aligned strings.
    """
    c = [_coerce(v) for v in c]
    a = [_coerce(v) for v in a]
    if len(c) != len(a) or not c:
        raise DimensionError("coefficient vectors must share a positive length")
    if any(v < 0 for v in c + a):
        raise ValueError("coefficients must be non-negative")
    if any(v == 0 for v in c + a):
        warnings.warn("zero coefficient: kernel may strictly contain {0^n, 1^n}", stacklevel=2)
    n = len(c)
    first = PseudoBoolean.from_terms(n, {(k,): c[k] for k in range(n)})
    second = PseudoBoolean.constant(n, sum(a, Fraction(0))) + PseudoBoolean.from_terms(
        n, {(k,): -a[k] for k in range(n)}
    )
    return first * second


def square_form(form: OneBodyForm) -> PseudoBoolean:
    """f^2 for a one-body f; with offset 0 and all c_k > 0 the kernel is
    the single string complementing tau, and the spectrum is the set of
    squared one-body energies."""
    if any(c == 0 for c in form.coeffs):
        warnings.warn("zero coefficient: squared kernel is degenerate", stacklevel=2)
    f = one_body(form)
    return f * f


# ---------------------------------------------------------------------------
# exact-rational linear programming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LPInstance:
    """min/max objective . x subject to eq rows (= rhs), geq rows (>= rhs).

    ``nonneg[i]`` constrains x_i >= 0; False leaves it free.  Each row is
    cleared once to integers over the LCM of its own denominators:
    ``_matrix`` holds those numerators as one read-only array (eq rows
    first, right-hand side last; of the dtype :func:`pbkernel.pbf._int_dtype`
    gives its largest |entry|), ``_lcm`` each row's LCM, and ``_cost`` the
    objective's numerators over their LCM, ``_peak`` its largest |entry|.
    Rows that numpy reads at once as integers int64 holds are their own
    numerators over 1; every other row and the objective are read by
    :func:`pbkernel.pbf._numerators`, which
    takes Python ints as their own numerators over 1 and reads any other
    entry by :func:`pbkernel.pbf._coerce` (a numpy integer as a Python int),
    so a bad one raises here.
    ``objective``, ``eq`` and ``geq`` are built as Fractions on first access.
    """

    num_vars: int
    objective: tuple
    eq: tuple = ()
    geq: tuple = ()
    nonneg: tuple = ()
    sense: str = "min"
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _lcm: tuple = field(init=False, repr=False, compare=False)
    _cost: tuple = field(init=False, repr=False, compare=False)
    _neq: int = field(init=False, repr=False, compare=False)
    _peak: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be min or max, got {self.sense!r}")
        nums, denom = _numerators(self.objective)
        if len(nums) != self.num_vars:
            raise DimensionError("objective length != num_vars")
        nonneg = tuple(self.nonneg) if self.nonneg else (True,) * self.num_vars
        if len(nonneg) != self.num_vars:
            raise DimensionError("nonneg length != num_vars")
        eq = list(self.eq)
        matrix, peak, lcm = _stack((*eq, *self.geq), self.num_vars, self._row)
        vars(self).update(nonneg=nonneg, _matrix=matrix, _peak=peak, _cost=(tuple(nums), denom), _lcm=lcm,
                          _neq=len(eq))
        for name in ("objective", "eq", "geq"):
            del vars(self)[name]  # __getattr__ builds them again

    def _row(self, coeffs, rhs) -> tuple:
        """(integer coefficients, integer rhs, LCM) of one row; its entries
        are read first, then its width, then its rhs."""
        if isinstance(coeffs, np.ndarray):  # its entries as Python numbers
            if coeffs.ndim != 1:
                raise DimensionError("row width != num_vars")
            coeffs = coeffs.tolist()
        entries = list(coeffs)
        if len(entries) != self.num_vars:
            _numerators(entries)  # a bad entry raises before the width does
            raise DimensionError("row width != num_vars")
        nums, denom = _numerators((*entries, rhs))
        return nums[:-1], nums[-1], denom

    def __getattr__(self, name: str):
        """``objective``, ``eq`` and ``geq``, built as Fractions on the first read of one."""
        if name not in ("objective", "eq", "geq"):
            raise AttributeError(name)
        rows = [[Fraction(a, lcm) for a in row] for row, lcm in zip(self._matrix.tolist(), self._lcm)]
        rows = [(tuple(row[:-1]), row[-1]) for row in rows]
        vars(self).update(objective=tuple(Fraction(a, self._cost[1]) for a in self._cost[0]),
                          eq=tuple(rows[: self._neq]), geq=tuple(rows[self._neq :]))
        return vars(self)[name]

    def row_refs(self) -> list:
        return [("eq", i) for i in range(self._neq)] + [("geq", i) for i in range(len(self._lcm) - self._neq)]


del LPInstance.eq, LPInstance.geq  # class defaults would hide the rows from __getattr__; __init__ keeps its own


@dataclass
class SimplexResult:
    """Outcome of an exact simplex solve.

    * optimal: ``x`` and ``value`` are set; ``duals`` holds one exact
      multiplier per row (eq rows first) satisfying LP duality for the
      solved sense.
    * infeasible: ``certificate`` lists (row reference, multiplier)
      pairs; the combination cancels every variable and leaves the
      contradiction 0 >= 1.
    * unbounded: ``ray`` is an improving feasible direction by variable
      index.
    """

    status: str
    x: tuple | None = None
    value: Fraction | None = None
    duals: tuple | None = None
    certificate: list | None = None
    ray: dict | None = None


class _Tableau:
    """Revised simplex on integer row operations, Bland's anti-cycling rule.

    ``T0T`` is the initial tableau T0, transposed to one contiguous row per
    column: the m LP rows [A | b], each cleared over its own LCM with the
    surplus and artificial entries of the initial basis, the reduced-cost rows,
    and a zero row.  ``K`` = [Q | Q b] is the row operations since the start (Q
    square, initially the identity) and the right-hand side, which meets that
    zero row, so K times a row of ``T0T`` is Q times a column of T0.  Row i of
    Q T0 is a positive multiple of row i of B^-1 [A | b], basic entry > 0, and
    over its gcd is the primitive (Bareiss 1968, Edmonds 1967) row.  Pricing is
    one product of T0 with the last row of K, the entering column one of K with
    its row of ``T0T`` (revised simplex, Dantzig & Orchard-Hays 1954).  A pivot
    on p = (Q T0)[r, j] > 0 sets each row of K with f = (Q T0)[i, j] != 0 to
    p K_i - f K_r and divides none: no sign or ratio sees a row's scale.

    The columns are the structural ones, where column j is ``sign[j]`` times
    x_``var[j]`` (x_v, then -x_v for a free v), then one surplus column per geq
    row, then from ``first_art`` on one artificial column per row that needs
    one.  The rows after the m constraint rows are the phase-2 reduced-cost row,
    then, until phase 1 ends, the phase-1 row, each d / a times the exact
    c - c_B B^-1 [A | b] for its ``scale`` [a, d]: a pivot multiplies d by p, a
    reduction a by the row's gcd.  With R the width of K, every product of K and
    T0 is below R top_K top_T0 and every update below 2 R top_K^2 top_T0 (top
    the largest |entry|).  Both arrays take the dtype
    :func:`pbkernel.pbf._int_dtype` gives that bound; once an update passes it,
    every row of K goes over its gcd, and if K still passes, to Python ints for
    the rest of the solve.
    """

    def __init__(self, lp: LPInstance):
        nv, neq, m, lcm = lp.num_vars, lp._neq, len(lp._lcm), lp._lcm
        # the columns before the artificial ones, each a row of the source below:
        # x_v, then -x_v for a free v, then one surplus column per geq row
        cols = np.arange(nv + m - neq).repeat(2 - np.fromiter((*lp.nonneg, *(True,) * (m - neq)), bool))
        sign = np.ones(len(cols), dtype=np.int64)
        sign[1:][cols[1:] == cols[:-1]] = -1  # the second column of a free variable
        self.first_art = first = len(cols)
        surplus = first - m  # geq row i has its surplus in column surplus + i
        self.var, self.sign = cols[: surplus + neq], sign[: surplus + neq]
        rhs = lp._matrix[:, -1].tolist()
        self.sigma = sigma = [-1 if b < 0 else 1 for b in rhs]  # std row = sigma * row
        # initial basis: a negated geq row exposes its surplus at +1, any other row an artificial
        art = [i for i, b in enumerate(rhs) if i < neq or b >= 0]
        self.ncols = ncols = first + len(art)
        R = m + 1 + (ncols > first)  # with the phase-2 row, and the phase-1 row while needed
        # phase 1 costs 1 per artificial; over L, the LCM of their basic
        # entries, its reduced costs are -sum (L / lcm_i) row_i (0 on the artificials)
        L = math.lcm(*map(lcm.__getitem__, art))
        self.init_col, weights, units = list(range(surplus, first)), [0] * m, []
        for k, i in enumerate(art):  # artificial column first + k holds lcm_i in row i
            self.init_col[i], weights[i] = first + k, L // lcm[i]
            units.append((first + k) * (R + 1) + i)
        self.basis = list(self.init_col)
        # phase-2 costs over the LCM of the objective's denominators (the initial basic columns
        # cost 0, so these are its reduced costs); every |entry| below is at most the LP's, a row
        # LCM or a cost, and every partial sum of the phase-1 row sum(weights) times that
        obj, denom = lp._cost
        top = max(map(abs, obj), default=0)
        dtype = _int_dtype((sum(weights) + 1) * max(lp._peak, *lcm, top))
        # per variable, per surplus column, then the rhs: its entries in sigma * [A | b],
        # its reduced costs in phase 2 and phase 1, each row over its gcd, and T0's zero row
        src = np.zeros((nv + m - neq + 1, R + 1), dtype)
        src[:nv, :m], src[-1, :m] = lp._matrix[:, :-1].T, lp._matrix[:, -1]
        if neq < m:  # surplus column i: -lcm_i in row i
            src[nv:-1].reshape(-1)[neq :: R + 2] = [-l for l in lcm[neq:]]
        if -1 in sigma:
            src[:, :m] *= np.array(sigma, dtype)
        g = math.gcd(*obj) or 1
        flip = g if lp.sense == "min" else -g  # an exact division, negated for max
        src[:nv, m] = obj if flip == 1 else [a // flip for a in obj]
        self.scale = [[g, denom]]  # per reduced-cost row [a, d]: its reduced costs are (K T0) * a / d
        tops, top_k = [lp._peak, *lcm, top // g], max(map(abs, rhs), default=0)  # of T0, of K's rhs
        if R > m + 1:
            c = np.matmul(src[:, :m], np.array([-w for w in weights], dtype), out=src[:, m + 1])
            cl = c.tolist()
            g = math.gcd(*cl) or 1
            if g > 1:
                c //= g
            self.scale.append([g, L])
            tops.append(max(map(abs, cl)) // g)
            top_k = max(top_k, abs(cl[-1]) // g)
        T0T = np.zeros((ncols + 1, R + 1), dtype)  # T0 by columns
        np.multiply(src.take(cols, 0), sign[:, None], out=T0T[:first])
        T0T[-1] = src[-1]
        T0T.put(units, [lcm[i] for i in art])
        self.K = np.eye(R, R + 1, dtype=dtype)  # [I | Q b] with Q = I
        self.K[:, -1] = T0T[-1, :R]
        self.T0T, self.growth = T0T, 2 * (R + 1) * max(tops)  # updates < growth top_K^2
        cast = _int_dtype(self.growth * max(1, top_k) ** 2)
        if cast is not dtype:
            self._cast(cast)

    def _cast(self, dtype) -> None:
        self.K, self.T0T = self.K.astype(dtype), np.ascontiguousarray(self.T0T, dtype)

    def column(self, j: int) -> np.ndarray:
        """Column j of Q T0 (the right-hand side for j = -1)."""
        return self.K @ self.T0T[j]

    def _pivot(self, r: int, j: int, col: np.ndarray) -> None:
        K, p, m = self.K, int(col[r]), len(self.basis)
        if p < 0:
            K[r], p = -K[r], -p
        col[r] = 0  # the rows to rewrite are the others with a nonzero entry
        rows = col.nonzero()[0]
        new = K.take(rows, 0)
        new *= p
        new -= col.take(rows)[:, None] * K[r]
        K[rows] = new
        for k in range(rows.searchsorted(m), len(rows)):  # the reduced-cost rows
            self.scale[rows[k] - m][1] *= p
        if _int_dtype(self.growth * int(np.abs(new).max(initial=0)) ** 2) is object:  # every row over its gcd
            g = np.gcd.reduce(K, axis=1)
            K //= g[:, None]
            for scale, gi in zip(self.scale, g.tolist()[m:]):
                scale[0] *= gi
            if K.dtype != object and _int_dtype(self.growth * _top(K) ** 2) is object:
                self._cast(object)
        self.basis[r] = j

    def run(self, end: int) -> int | None:
        """Bland-rule simplex on the last reduced-cost row, entering only
        columns below ``end`` (basic ones have reduced cost 0).  Returns None
        at an optimum, or the entering column when the LP is unbounded."""
        basis, m = self.basis, len(self.basis)
        while True:
            entering = (self.T0T[:end] @ self.K[-1] < 0).nonzero()[0]
            if not len(entering):
                return None
            enter = int(entering[0])
            col = self.column(enter)
            # exact min of rhs / a over a > 0 (a row's scale cancels), ties to the lower basis index
            leave = None
            for i, (a, rhs) in enumerate(zip(col.tolist(), self.K[:m, -1].tolist())):
                if a > 0:
                    d = -1 if leave is None else rhs * lead_a - lead_rhs * a
                    if d < 0 or (d == 0 and basis[i] < basis[leave]):
                        leave, lead_a, lead_rhs = i, a, rhs
            if leave is None:
                return enter
            self._pivot(leave, enter, col)

    def column_values(self, j: int, sign: int = 1) -> tuple:
        """({v: numerator}, denom): sign times column j of B^-1 [A | b] (the basic
        solution for j = -1), summed by variable over the basic structural columns."""
        basis = np.array(self.basis, dtype=np.intp)
        col = self.column(j)[: len(basis)]
        rows = ((col != 0) & (basis < len(self.var))).nonzero()[0]
        cols = basis.take(rows)
        basic = np.add.reduce(self.K.take(rows, 0) * self.T0T.take(cols, 0), axis=1).tolist()
        denom = math.lcm(*basic)
        entries = zip(self.var[cols].tolist(), (sign * self.sign[cols]).tolist(), col[rows].tolist(), basic)
        values = _accumulate({}, ((v, s * a * (denom // p)) for v, s, a, p in entries))
        nums, denom = _reduced([*values.values()], denom)
        return dict(zip(values, nums)), denom

    def row_multipliers(self, unit_from: int, sign: int = 1) -> tuple:
        """(numerators, d): sign times the multiplier per original row over d, read off
        the initial identity columns, whose costs are 1 from column ``unit_from`` on and
        0 below it: sigma * ((j >= unit_from) * d - a * z_j) / d for the scale [a, d]."""
        (a, d), z = self.scale[-1], (self.T0T.take(self.init_col, 0) @ self.K[-1]).tolist()
        return [sign * s * ((j >= unit_from) * d - a * zj) for s, j, zj in zip(self.sigma, self.init_col, z)], d


def _stack(rows: tuple, width: int, read_row) -> tuple:
    """(matrix, top, lcm) of rows (coeffs, rhs): their numerators as one read-only
    (rows, width + 1) array, rhs last, of the dtype :func:`pbkernel.pbf._int_dtype`
    gives its largest |entry| top, and each row's LCM.  Rows that one numpy read
    gives as integers int64 holds are their own numerators over 1; otherwise
    ``read_row`` clears each to (coefficients, rhs, LCM)."""
    try:
        ints = np.array([coeffs for coeffs, _ in rows]), np.array([rhs for _, rhs in rows])
    except (TypeError, ValueError, OverflowError):  # ragged, or an entry numpy cannot read
        ints = ()
    shaped = [a.shape for a in ints] == [(len(rows), width), (len(rows),)]
    if shaped and all(a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64) for a in ints):
        (coeffs, rhs), lcm = ints, (1,) * len(rows)
    else:
        read = [read_row(coeffs, rhs) for coeffs, rhs in rows]
        coeffs, rhs, lcm = [c for c, _, _ in read], [b for _, b, _ in read], tuple(l for *_, l in read)
    for dtype in (np.int64, object):
        matrix = np.empty((len(rhs), width + 1), dtype)
        try:
            if len(rhs):
                matrix[:, :-1], matrix[:, -1] = coeffs, rhs
        except OverflowError:  # a Python int past int64
            continue
        top = _top(matrix)
        if _int_dtype(top) is dtype:
            break
    matrix.flags.writeable = False
    return matrix, top, lcm


def _top(a: np.ndarray) -> int:
    """The largest |entry| of an integer array, as a Python int (0 if empty)."""
    return max(int(np.maximum.reduce(a, None, initial=0)), -int(np.minimum.reduce(a, None, initial=0)))


def _reduced(nums: list, denom: int) -> tuple:
    """nums / denom over their gcd, so that denom is the LCM of the reduced denominators."""
    g = math.gcd(denom, *nums)
    return [a // g for a in nums], denom // g


def simplex_solve(lp: LPInstance) -> SimplexResult:
    """Exact two-phase simplex; every exit path is verified exactly.

    Feasible points satisfy all rows by substitution, infeasibility
    certificates are checked to cancel all variables with positive
    right-hand side, and unbounded rays are checked to be feasible
    improving directions, each on the tableau's own integers.
    """
    tab = _Tableau(lp)

    # phase 1: minimize the artificial sum, -a K[-1, -1] / d for the scale [a, d]
    if tab.ncols > tab.first_art:
        if tab.run(tab.ncols) is not None:
            raise AssertionError("phase 1 is bounded below by 0")
        if tab.K[-1, -1] < 0:  # a positive sum: the certificate is each multiplier over it
            nums, denom = _reduced(tab.row_multipliers(tab.first_art)[0], -tab.scale[-1][0] * int(tab.K[-1, -1]))
            certificate = list(zip(lp.row_refs(), nums))
            verify_certificate(lp, certificate)
            certificate = [(ref, Fraction(y, denom)) for ref, y in certificate if y]
            return SimplexResult(status="infeasible", certificate=certificate)
        # drive leftover artificials out of the basis (degenerate pivots;
        # their rows carry rhs 0, so any nonzero entry will do)
        for i, b in enumerate(tab.basis):
            if b >= tab.first_art:
                nonzero = (tab.T0T[: tab.first_art] @ tab.K[i]).nonzero()[0]
                if len(nonzero):
                    tab._pivot(i, int(nonzero[0]), tab.column(int(nonzero[0])))
        tab.K = tab.K[:-1]  # the phase-2 row is last again; no other row uses its column of Q
        tab.scale.pop()

    # phase 2
    j = tab.run(tab.first_art)
    if j is not None:  # the ray: +1 on the entering column, -(B^-1 a_enter) on the basic ones
        support, denom = tab.column_values(j, -1)
        ray = _accumulate({int(tab.var[j]): int(tab.sign[j]) * denom} if j < len(tab.var) else {}, support.items())
        _check_ray(lp, ray)
        return SimplexResult(status="unbounded", ray={v: Fraction(a, denom) for v, a in ray.items()})
    support, denom = tab.column_values(-1)
    _check_point_ints(lp, support, denom)
    cost, cden = lp._cost
    value = Fraction(sum(cost[v] * a for v, a in support.items()), cden * denom)
    nums, d = _reduced(*tab.row_multipliers(tab.ncols, 1 if lp.sense == "min" else -1))
    if _check_duals_ints(lp, nums, d, lp._cost, lp.sense) != value:
        raise AssertionError("dual bound does not match the optimal value")
    x = [Fraction(0)] * lp.num_vars
    for v, a in support.items():
        x[v] = Fraction(a, denom)
    return SimplexResult(status="optimal", x=tuple(x), value=value, duals=tuple(Fraction(y, d) for y in nums))


def verify_certificate(lp: LPInstance, cert: list) -> None:
    """Exact check that a certificate proves 0 >= 1: the weighted row combination
    must cancel free variables, have non-positive weight on sign-constrained
    variables, use non-negative multipliers on inequality rows, and combine
    right-hand sides to a positive value (normalized to 1).  The check is
    homogeneous, so the multipliers may be Fractions or integers over one denominator."""
    position = {ref: i for i, ref in enumerate(lp.row_refs())}
    y = [0] * len(position)
    for ref, mult in cert:
        if ref not in position:
            raise ValueError(f"unknown row reference {ref!r}")
        y[position[ref]] += mult
    if _check_duals_ints(lp, *_numerators(y), ((0,) * lp.num_vars, 1), "min") <= 0:
        raise AssertionError("certificate right-hand side is not positive")


def _weighted_row_sum(weights: list, rows: np.ndarray, top: int) -> list:
    """sum_i weights[i] * rows[i] for integer weights and an integer row array whose
    |entries| are at most ``top``, as Python ints: one matrix product, of the dtype
    :func:`pbkernel.pbf._int_dtype` gives sum |weights| times top (each at least 1), which
    bounds every partial sum."""
    dtype = _int_dtype(max(sum(map(abs, weights)), 1) * max(top, 1))
    return (np.array(weights, dtype=dtype) @ rows.astype(dtype, copy=False)).tolist()


def _check_point_ints(lp: LPInstance, support: dict, rhs: int) -> None:
    """One primal check of x = {v: numerator} over one denominator, 0 where absent, with
    b weighted by ``rhs`` (that denominator for a point, 0 for a ray): x_v >= 0 on every
    sign-constrained variable, then each row A_i x = b_i (eq) or >= b_i (geq)."""
    if any(a < 0 and lp.nonneg[v] for v, a in support.items()):
        raise AssertionError("negative value on a sign-constrained variable")
    gaps = _weighted_row_sum([*support.values(), -rhs], lp._matrix.take([*support, -1], 1).T, lp._peak)
    if any(gaps[: lp._neq]):
        raise AssertionError("equality row violated")
    if any(gap < 0 for gap in gaps):
        raise AssertionError("inequality row violated")


def _check_duals_ints(lp: LPInstance, nums: list, denom: int, cost: tuple, sense: str) -> Fraction:
    """One dual check, returning y^T b: y = nums / denom (one per row, eq rows
    first) is >= 0 on geq rows for min sense (<= 0 for max), and y^T A, the
    integer rows weighted by y_i / L_i, meets c = (numerators, denominator):
    = c on a free column, <= c (min) or >= c (max) on a sign-constrained one.
    Optimal duals take the LP's objective and sense, a certificate 0 and min."""
    flip = 1 if sense == "min" else -1
    if any(flip * a < 0 for a in nums[lp._neq :]):
        raise AssertionError("dual sign violated on an inequality row")
    # y_i / L_i = nums_i * (L / L_i) / (denom * L), L the LCM of the row LCMs
    L = math.lcm(*lp._lcm)
    combo = _weighted_row_sum([a * (L // lcm) for a, lcm in zip(nums, lp._lcm)], lp._matrix, lp._peak)
    denom *= L
    cost, cden = cost
    for v, (c, a, nonneg) in enumerate(zip(cost, combo, lp.nonneg)):
        slack = flip * (c * denom - a * cden)  # sign of c - (y^T A)_v, flipped for max
        if not nonneg:
            if slack != 0:
                raise AssertionError(f"dual equality violated on free x{v}")
        elif slack < 0:
            raise AssertionError(f"dual feasibility violated on x{v}")
    return Fraction(combo[-1], denom)


def _check_ray(lp: LPInstance, ray: dict) -> None:
    """A ray {v: value}, Fractions or integers over one denominator: feasible and improving."""
    ray = dict(zip(ray, _numerators(ray.values())[0]))
    _check_point_ints(lp, ray, 0)
    gain = sum(lp._cost[0][v] * d for v, d in ray.items())
    if lp.sense == "max" and gain <= 0:
        raise AssertionError("ray does not improve a max objective")
    if lp.sense == "min" and gain >= 0:
        raise AssertionError("ray does not improve a min objective")


# ---------------------------------------------------------------------------
# the Ising Kernel decision
# ---------------------------------------------------------------------------


#: a bit of a target entry: '0', '1', or a value equal to 0 or 1 (True, 1.0, a numpy 1)
_BIT = {"0": 0, "1": 1, 0: 0, 1: 1}


@functools.lru_cache(maxsize=16)
def _cube(n: int) -> tuple:
    """(points, index, features) of the n-cube, built once per n: the 2^n bit
    tuples in basis-state order, {bit tuple or bit string: basis-state index},
    and the margin-row features (1, z_l, z_l * z_k for l < k; z = 1 - 2x,
    variable 0 the most significant bit) as one read-only array, a column per point."""
    points = _assignments(_swap_order(np.arange(1 << n), n), n)
    index = {bits: i for i, bits in enumerate(points)}
    index.update({"".join(map(str, bits)): i for bits, i in index.items()})
    z = 1 - 2 * np.array(points, dtype=np.int64).T
    first, second = np.triu_indices(n, 1)
    features = np.concatenate([np.ones((1, 1 << n), dtype=np.int64), z, z[first] * z[second]])
    features.flags.writeable = False
    return points, index, features


@dataclass
class QuadraticRealization:
    """Answer to the Ising Kernel Problem for a target set S.

    Feasible: Z-basis coefficients of a diagonal quadratic form that is
    zero on S and >= 1 elsewhere.  Infeasible: an exact Farkas
    certificate, i.e. non-negative multipliers on the margin rows
    combining to 0 >= 1.
    """

    feasible: bool
    n: int
    constant: Fraction | None = None
    fields: tuple | None = None
    couplings: dict | None = None
    certificate: list | None = None

    def _boolean_form(self) -> PseudoBoolean:
        fields = {(l,): h for l, h in enumerate(self.fields)}
        spin = PseudoBoolean.from_terms(self.n, {(): self.constant, **fields, **self.couplings})
        return spin_to_boolean(spin)

    def energy(self, bits: Sequence[int]) -> Fraction:
        if not self.feasible:
            raise ValueError("infeasible realization has no energy function")
        return self._boolean_form().eval(bits)

    def verify(self, target: set) -> bool:
        """Exhaustive margin check, uncapped (the decision capped n): the
        scaled values denom * f(x) must be 0 on S and at least denom off S.
        The spin form's integer numerators sit at their masks and one
        Walsh-Hadamard pass evaluates it at every point."""
        if not self.feasible:
            return False
        masks = [0, *(1 << l for l in range(len(self.fields)))]
        masks += [(1 << l) | (1 << k) for l, k in self.couplings]
        coeffs, denom = _scaled([self.constant, *self.fields, *self.couplings.values()])
        vals = np.zeros(1 << self.n, dtype=coeffs.dtype)
        np.add.at(vals, masks, coeffs)  # a repeated mask adds, as from_terms would
        _hadamard_transform(vals, self.n)
        on_s = np.zeros(vals.size, dtype=bool)
        on_s[_point_indices(target, self.n)] = True
        vals = _swap_order(vals, self.n)
        return bool((vals[on_s] == 0).all() and (vals[~on_s] >= denom).all())

    def to_dict(self) -> dict:
        if self.feasible:
            return {
                "feasible": True,
                "c0": str(self.constant),
                "h": [str(h) for h in self.fields],
                "J": [
                    [l + 1, k + 1, str(j)]
                    for (l, k), j in sorted(self.couplings.items())
                    if j
                ],
            }
        return {
            "feasible": False,
            "certificate": [
                ["".join(map(str, bits)), str(mult)] for bits, mult in self.certificate
            ],
        }


def quadratic_realizability(
    S, n: int, cap: int = REALIZABILITY_CAP
) -> QuadraticRealization:
    """Decide whether some quadratic Ising form has kernel exactly S.

    For diagonal operators the span condition of the Ising Kernel
    Problem reduces to the set-level margin system; see the module
    docstring for the normalization and the dual-form solve.

    Each entry of S is a str of n characters '0' and '1' or a sequence of
    n bits, each '0', '1' or a value equal to 0 or 1 (True, 1.0), as
    :func:`pbkernel.pbf._check_assignment` reads one; any other entry (1.5,
    a space, a Unicode digit such as '\u0660') is a ``bad bit string``.
    """
    n, cap = _count(n, "n"), _count(cap, "cap")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > cap:
        raise EnumerationCapError(f"2^{n} margin rows exceed cap 2^{cap}")
    points, index, features = _cube(n)
    found = []
    for item in S:  # a str is looked up whole, any other entry by its bits
        try:
            found.append(index[item if isinstance(item, str) else tuple(map(_BIT.get, item))])
        except (KeyError, TypeError):  # not a point, not a sequence, or an unhashable bit
            raise ValueError(f"bad bit string {reprlib.repr(item)} for n = {n}") from None  # shortened if long
    if not found:
        raise ValueError("S must be nonempty")

    # the points by basis-state index, S first, then the rest
    off_s = np.ones(1 << n, dtype=bool)
    off_s[found] = False
    idx = off_s.argsort(kind="stable")
    target = {points[i] for i in found}
    ns = len(target)

    # dual of {phi(s).w = 0, phi(x).w >= 1}: free v per s row, u >= 0 per
    # x row, maximize sum(u) subject to sum v phi(s) + sum u phi(x) = 0
    lp = LPInstance(
        num_vars=len(idx),
        objective=[0] * ns + [1] * (len(idx) - ns),
        eq=[(row, 0) for row in features.take(idx, 1)],
        nonneg=[False] * ns + [True] * (len(idx) - ns),
        sense="max",
    )
    result = simplex_solve(lp)
    if result.status == "optimal":
        if result.value != 0:
            raise AssertionError("dual optimum must be zero when the margin system is feasible")
        w = result.duals  # c0, the h_l, then the J_lk in pair order
        couplings = dict(zip(combinations(range(n), 2), w[n + 1 :]))  # Python-int keys
        real = QuadraticRealization(feasible=True, n=n, constant=w[0], fields=w[1 : n + 1], couplings=couplings)
        if not real.verify(target):
            raise AssertionError("recovered coefficients fail the margin re-verification")
        return real
    if result.status != "unbounded":
        raise AssertionError(f"unexpected simplex status {result.status}")
    # the ray's numerators over one denominator; each multiplier is one over their margin total
    ray = dict(sorted(result.ray.items()))
    nums, _ = _numerators(ray.values())
    total = sum(a for j, a in zip(ray, nums) if j >= ns)
    if total <= 0:
        raise AssertionError("unbounded ray carries no inequality mass")
    idx = idx.tolist()
    certificate = [(points[idx[j]], Fraction(a, total)) for j, a in zip(ray, nums)]
    real = QuadraticRealization(feasible=False, n=n, certificate=certificate)
    verify_infeasibility(real, target, n)
    return real


def verify_infeasibility(
    real: QuadraticRealization, target: set, n: int
) -> None:
    """Exact Farkas check: the certificate multipliers cancel every
    feature column, are non-negative off S, and carry unit total mass on
    the margin rows, so any form vanishing on S would need 0 >= 1."""
    nums, _ = _numerators(mult for _, mult in real.certificate)
    margin = [a for (bits, _), a in zip(real.certificate, nums) if bits not in target]
    if any(a < 0 for a in margin):
        raise AssertionError("negative multiplier on a margin row")
    _, index, features = _cube(n)
    rows = features.take([index[bits] for bits, _ in real.certificate], 1).T
    if any(_weighted_row_sum(nums, rows, 1)):  # features are +-1
        raise AssertionError("certificate does not cancel the feature columns")
    if sum(margin) <= 0:
        raise AssertionError("certificate has no mass on the margin rows")
