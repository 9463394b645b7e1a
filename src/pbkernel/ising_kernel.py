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
certificate (from the unbounded ray).  Its rows come from one integer
feature matrix over the basis-state indices of the points.

Each LP row is cleared once, when the LPInstance is built, to integers
over the LCM of its own denominators by the package's one table reader,
:func:`pbkernel.pbf._numerators`: Python ints are their own numerators,
and every other entry (a numpy integer too) is read by
:func:`pbkernel.pbf._coerce` as a Fraction of Python ints.  The LP keeps
the rows as one integer array and builds its Fraction rows only if they
are read.  An integer array row is its own numerators, so the feature
matrix reaches the LP without Python lists.  The tableau is built with
numpy from those rows as the initial tableau T0.  A pivot rewrites only K = [Q | Q b], the row
operations since the start, and each entering column is one product of K
and T0, made on demand (revised simplex).  Row i of Q T0 over its gcd is
the Bareiss and Edmonds row over its gcd, so Bland's rule takes the
pivots a Fraction tableau would.  Each answer is read off K and T0 as
integers over one denominator and re-checked on them against the LP's
integer rows: one primal check (A x against b, or 0 for a ray) and one
dual check (y^T A against c, returning y^T b) cover points, rays, duals
and Farkas certificates, each one integer matrix product; a Fraction is
built only for an output entry.  A recovered realization is re-checked
at every point of the cube by one Walsh-Hadamard pass over its integer
spin coefficients.
"""

from __future__ import annotations

import functools
import itertools
import math
import reprlib
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, EnumerationCapError
from .pbf import DEFAULT_ENUMERATION_CAP, PseudoBoolean, _accumulate, _coerce, _hadamard_transform, _int_dtype
from .pbf import _numerators, _point_indices, _scaled, _swap_order, bits_of, index_of, spin_to_boolean

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
    if form.offset > 0:
        return OneBodyKernel({}, (), True, frozenset())
    pinned = {k: 1 - form.tau[k] for k, c in enumerate(form.coeffs) if c > 0}
    free = tuple(k for k, c in enumerate(form.coeffs) if c == 0)
    assignments = None
    if form.n <= explicit_cap:
        assignments = set()
        for free_bits in range(1 << len(free)):
            row = [0] * form.n
            for k, v in pinned.items():
                row[k] = v
            for j, k in enumerate(free):
                row[k] = (free_bits >> j) & 1
            assignments.add(tuple(row))
        assignments = frozenset(assignments)
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
    objective's numerators over their LCM.  An integer array row with a
    Python-int right-hand side is its own numerators over 1; every other
    row and the objective are read by :func:`pbkernel.pbf._numerators`, which
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
        rows = [self._row(coeffs, rhs) for coeffs, rhs in (*eq, *self.geq)]
        vars(self).update(nonneg=nonneg, _matrix=_stack(rows, self.num_vars), _cost=(tuple(nums), denom),
                          _lcm=tuple(lcm for *_, lcm in rows), _neq=len(eq))
        for name in ("objective", "eq", "geq"):
            del vars(self)[name]  # __getattr__ builds them again

    def _row(self, coeffs, rhs) -> tuple:
        """(integer coefficients, integer rhs, LCM) of one row; its entries
        are read first, then its width, then its rhs."""
        if isinstance(coeffs, np.ndarray):  # read by its dtype, which int64 must hold
            if coeffs.ndim != 1:
                raise DimensionError("row width != num_vars")
            own = coeffs.dtype.kind in "iu" and np.can_cast(coeffs.dtype, np.int64)
            if own and type(rhs) is int and len(coeffs) == self.num_vars:
                return coeffs, rhs, 1
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
    Q T0 is a positive multiple of row i of B^-1 [A | b], basic entry > 0;
    ``matrix`` gives each over its gcd, the primitive (Bareiss 1968, Edmonds
    1967) row.  Pricing is one product of T0 with the last row of K, the
    entering column one of K with its row of ``T0T`` (revised simplex, Dantzig &
    Orchard-Hays 1954).  A pivot on p = (Q T0)[r, j] > 0 sets each row of K with
    f = (Q T0)[i, j] != 0 to p K_i - f K_r and divides none: no sign or ratio
    sees a row's scale.

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
        free = np.logical_not(lp.nonneg, dtype=bool)
        self.var = np.repeat(np.arange(lp.num_vars), 1 + free)
        self.sign = np.ones(len(self.var), dtype=np.int64)
        self.sign[np.cumsum(1 + free)[free] - 1] = -1
        neq, m = lp._neq, len(lp._lcm)
        self.sigma = [-1 if b < 0 else 1 for b in lp._matrix[:, -1].tolist()]  # std row = sigma * row
        # initial basis: a negated geq row exposes its surplus at +1;
        # everything else gets an artificial column
        surplus = len(self.var) - neq  # geq row i has its surplus in column surplus + i
        art = [i < neq or s > 0 for i, s in enumerate(self.sigma)]
        self.first_art = surplus + m
        arts = itertools.count(self.first_art)
        self.init_col = [next(arts) if a else surplus + i for i, a in enumerate(art)]
        self.ncols = ncols = next(arts)
        self.basis = list(self.init_col)
        # phase 1 costs 1 per artificial; over L, the LCM of their basic
        # entries, its reduced costs are -sum (L / lcm_i) row_i (0 on the artificials)
        L = math.lcm(*(l for a, l in zip(art, lp._lcm) if a))
        weights = [L // l if a else 0 for a, l in zip(art, lp._lcm)]
        # phase-2 costs over the LCM of the objective's denominators; the
        # initial basic columns cost 0, so these are its reduced costs
        obj, denom = lp._cost
        # every |entry| below is at most top and every partial sum of the phase-1
        # row at most sum(weights) * top
        top = max(_top(lp._matrix), *lp._lcm, *map(abs, obj), 0)
        dtype = _int_dtype((sum(weights) + 1) * top)
        nums, lcm, sign, sigma, weights, obj = (
            np.asarray(v, dtype) for v in (lp._matrix, lp._lcm, self.sign, self.sigma, weights, obj)
        )
        R = m + 1 + (ncols > self.first_art)  # with the phase-2 row, and the phase-1 row while needed
        T0 = np.zeros((R + 1, ncols + 1), dtype)  # the last row stays 0
        rows = T0[:m]
        rows[:, : len(self.var)] = nums[:, self.var] * sign
        rows[:, -1] = nums[:, -1]
        geq = np.arange(neq, m)
        rows[geq, surplus + geq] = -lcm[neq:]
        rows *= sigma[:, None]
        rows[np.arange(m), self.init_col] = lcm
        T0[m, : len(self.var)] = (1 if lp.sense == "min" else -1) * obj[self.var] * sign
        if R > m + 1:
            T0[-2] = -(weights @ rows)
            T0[-2, self.first_art : -1] = 0
        self.scale = []  # per reduced-cost row [a, d]: its reduced costs are (K T0) * a / d
        for z, d in zip(T0[m:R], (denom, L)):
            g = int(np.gcd.reduce(z)) or 1
            z //= g
            self.scale.append([g, d])
        self.K = np.eye(R, R + 1, dtype=dtype)
        self.K[:, -1] = T0[:R, -1]
        self.T0T, self.growth = T0.T, 2 * (R + 1) * _top(T0)  # updates < growth top_K^2
        self._cast(_int_dtype(self.growth * _top(self.K) ** 2))

    def _cast(self, dtype) -> None:
        self.K, self.T0T = self.K.astype(dtype), np.ascontiguousarray(self.T0T, dtype)

    @property
    def matrix(self) -> np.ndarray:
        """The primitive rows: Q T0 over its row gcds, in the dtype ``_int_dtype(2 top^2)``."""
        rows = self.K @ self.T0T.T
        rows //= np.maximum(np.gcd.reduce(rows, axis=1), 1)[:, None]
        return rows.astype(_int_dtype(2 * _top(rows) ** 2))

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

    def run(self, end: int) -> None:
        """Bland-rule simplex on the last reduced-cost row, entering only
        columns below ``end`` (basic ones have reduced cost 0).  Raises on
        unbounded via _Unbounded."""
        basis, m = self.basis, len(self.basis)
        while True:
            entering = (self.T0T[:end] @ self.K[-1] < 0).nonzero()[0]
            if not len(entering):
                return
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
                raise _Unbounded(enter)
            self._pivot(leave, enter, col)

    def column_values(self, j: int, sign: int = 1) -> tuple:
        """({v: numerator}, denom): sign times column j of B^-1 [A | b] (the basic
        solution for j = -1), summed by variable over the basic structural columns."""
        basis = np.array(self.basis, dtype=np.intp)
        col = self.column(j)[: len(basis)]
        rows = np.flatnonzero((col != 0) & (basis < len(self.var)))
        cols = basis[rows]
        basic = (self.K[rows] * self.T0T[cols]).sum(axis=1).tolist()
        denom = math.lcm(*basic)
        entries = zip(self.var[cols].tolist(), (sign * self.sign[cols]).tolist(), col[rows].tolist(), basic)
        values = _accumulate({}, ((v, s * a * (denom // p)) for v, s, a, p in entries))
        nums, denom = _reduced([*values.values()], denom)
        return dict(zip(values, nums)), denom

    def row_multipliers(self, unit_from: int, sign: int = 1) -> tuple:
        """(numerators, d): sign times the multiplier per original row over d, read off
        the initial identity columns, whose costs are 1 from column ``unit_from`` on and
        0 below it: sigma * ((j >= unit_from) * d - a * z_j) / d for the scale [a, d]."""
        (a, d), z = self.scale[-1], (self.T0T[self.init_col] @ self.K[-1]).tolist()
        return [sign * s * ((j >= unit_from) * d - a * zj) for s, j, zj in zip(self.sigma, self.init_col, z)], d


def _stack(rows: list, width: int) -> np.ndarray:
    """Integer rows (coefficients, rhs, _) as one read-only (rows, width + 1)
    array of :func:`pbkernel.pbf._int_dtype` of its largest |entry|."""
    for dtype in (np.int64, object):
        matrix = np.empty((len(rows), width + 1), dtype)
        try:
            for i, (coeffs, rhs, _) in enumerate(rows):
                matrix[i, :-1], matrix[i, -1] = coeffs, rhs
        except OverflowError:  # a Python int past int64
            continue
        if _int_dtype(_top(matrix)) is dtype:
            break
    matrix.flags.writeable = False
    return matrix


def _top(a: np.ndarray) -> int:
    """The largest |entry| of an integer array, as a Python int (0 if empty)."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _reduced(nums: list, denom: int) -> tuple:
    """nums / denom over their gcd, so that denom is the LCM of the reduced denominators."""
    g = math.gcd(denom, *nums)
    return [a // g for a in nums], denom // g


class _Unbounded(Exception):
    def __init__(self, col):
        self.col = col


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
        tab.run(tab.ncols)
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
    try:
        tab.run(tab.first_art)
    except _Unbounded as unb:  # the ray: +1 on the entering column, -(B^-1 a_enter) on the basic ones
        j = unb.col
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


def _weighted_row_sum(weights: list, rows: np.ndarray) -> list:
    """sum_i weights[i] * rows[i] for integer weights and an integer row array, as Python
    ints: one matrix product, of the dtype :func:`pbkernel.pbf._int_dtype` gives sum
    |weights| times the largest |entry| (each at least 1), which bounds every partial sum."""
    dtype = _int_dtype(max(sum(map(abs, weights)), 1) * max(_top(rows), 1))
    return (np.array(weights, dtype=dtype) @ rows.astype(dtype, copy=False)).tolist()


def _check_point(lp: LPInstance, x: Sequence, ray: bool = False) -> None:
    """:func:`_check_point_ints` on a point (or ray) given as one value per variable."""
    nums, denom = _numerators(x)
    _check_point_ints(lp, {v: a for v, a in enumerate(nums) if a}, 0 if ray else denom)


def _check_point_ints(lp: LPInstance, support: dict, rhs: int) -> None:
    """One primal check of x = {v: numerator} over one denominator, 0 where absent, with
    b weighted by ``rhs`` (that denominator for a point, 0 for a ray): x_v >= 0 on every
    sign-constrained variable, then each row A_i x = b_i (eq) or >= b_i (geq)."""
    if any(a < 0 and lp.nonneg[v] for v, a in support.items()):
        raise AssertionError("negative value on a sign-constrained variable")
    gaps = _weighted_row_sum([*support.values(), -rhs], lp._matrix.T[[*support, -1]])
    if any(gaps[: lp._neq]):
        raise AssertionError("equality row violated")
    if any(gap < 0 for gap in gaps):
        raise AssertionError("inequality row violated")


def _check_duals(lp: LPInstance, y: Sequence, objective: Sequence, sense: str) -> Fraction:
    """:func:`_check_duals_ints` on duals and an objective given as values."""
    return _check_duals_ints(lp, *_numerators(y), _numerators(objective), sense)


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
    combo = _weighted_row_sum([a * (L // lcm) for a, lcm in zip(nums, lp._lcm)], lp._matrix)
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


@functools.lru_cache(maxsize=64)
def _pairs(n: int) -> tuple:
    """The coupling pairs l < k in feature order, as two read-only index
    arrays built once per n."""
    first, second = np.triu_indices(n, 1)
    first.flags.writeable = second.flags.writeable = False
    return first, second


def _feature_rows(idx: np.ndarray, n: int) -> np.ndarray:
    """Margin-row features (1, z_l, z_l * z_k for l < k) of the points with
    basis-state indices ``idx``, one row each: z = 1 - 2x, x_l the bit of
    variable l (variable 0 the most significant)."""
    z = 1 - 2 * ((np.asarray(idx, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    first, second = _pairs(n)
    return np.hstack([np.ones((len(z), 1), dtype=np.int64), z, z[:, first] * z[:, second]])


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
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > cap:
        raise EnumerationCapError(f"2^{n} margin rows exceed cap 2^{cap}")
    target = set()
    for item in S:
        bits = tuple(int(b) for b in item)
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise ValueError(f"bad bit string {reprlib.repr(item)} for n = {n}")  # shortened if long
        target.add(bits)
    if not target:
        raise ValueError("S must be nonempty")

    # the points by basis-state index, S first, then the rest
    on_s = np.zeros(1 << n, dtype=bool)
    on_s[[index_of(bits) for bits in target]] = True
    idx = np.concatenate([np.flatnonzero(on_s), np.flatnonzero(~on_s)])
    ns = len(target)

    # dual of {phi(s).w = 0, phi(x).w >= 1}: free v per s row, u >= 0 per
    # x row, maximize sum(u) subject to sum v phi(s) + sum u phi(x) = 0.
    lp = LPInstance(
        num_vars=len(idx),
        objective=[0] * ns + [1] * (len(idx) - ns),
        eq=[(column, 0) for column in _feature_rows(idx, n).T],
        nonneg=[False] * ns + [True] * (len(idx) - ns),
        sense="max",
    )
    result = simplex_solve(lp)
    if result.status == "optimal":
        if result.value != 0:
            raise AssertionError("dual optimum must be zero when the margin system is feasible")
        w = result.duals  # c0, the h_l, then the J_lk in pair order
        pairs = zip(*(ks.tolist() for ks in _pairs(n)))  # Python-int keys
        real = QuadraticRealization(
            feasible=True, n=n, constant=w[0], fields=w[1 : n + 1], couplings=dict(zip(pairs, w[n + 1 :]))
        )
        if not real.verify(target):
            raise AssertionError("recovered coefficients fail the margin re-verification")
        return real
    if result.status != "unbounded":
        raise AssertionError(f"unexpected simplex status {result.status}")
    ray = result.ray
    total = sum((d for j, d in ray.items() if j >= ns), Fraction(0))
    if total <= 0:
        raise AssertionError("unbounded ray carries no inequality mass")
    certificate = [(bits_of(int(idx[j]), n), ray[j] / total) for j in sorted(ray)]
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
    rows = _feature_rows([index_of(bits) for bits, _ in real.certificate], n)
    if any(_weighted_row_sum(nums, rows)):
        raise AssertionError("certificate does not cancel the feature columns")
    if sum(margin) <= 0:
        raise AssertionError("certificate has no mass on the margin rows")
