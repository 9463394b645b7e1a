"""The lookup tables that write the cube oracles' exact outputs.

``pbf._shared_fractions`` writes a value table by one of three paths,
chosen by the table's size, dtype and span: a dict up to 2^8 entries and
for Python ints at any size, a range table for int64 whose span is below
its length, and ``np.unique`` for wider int64 spans.  ``pbf._assignments``
joins cached 8-bit chunk tuples, and ``symmetric._hamming_weights`` is one
read-only array per n.  Each must give what the code it replaced
(``ref_shared_fractions``, ``ref_assignments`` in ``conftest``) gives,
object for object: Fractions only, one object per distinct value.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from pbkernel import (
    PseudoBoolean,
    SymmetricForm,
    WeightProfile,
    canonical_to_power,
    minimize_bruteforce,
)
from pbkernel import pbf
from pbkernel.pbf import _assignments, _shared_fractions
from pbkernel.symmetric import _hamming_weights
from conftest import random_pbf, ref_assignments, ref_minimize, ref_shared_fractions

LENGTHS = [1, 2, 3, 16, 255, 256, 257, 300, 1024, 4096, 1 << 16]


def assert_shared(table, want):
    assert table == want
    assert all(type(v) is Fraction for v in table)
    assert len({id(v) for v in table}) == len(set(table))  # one object per distinct value


def narrow(rng, size, span, offset=0, dtype=np.int64):
    """``size`` values in offset .. offset + span, both ends present from 2 entries on."""
    values = [offset, offset + span] + [offset + rng.randint(0, span) for _ in range(size - 2)]
    rng.shuffle(values)
    return np.array(values[:size], dtype=dtype)


@pytest.mark.parametrize("size", LENGTHS)
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_writer_matches_the_reference_on_either_side_of_the_span(size, dtype):
    rng = random.Random(size)
    for span in {0, size // 2, size - 1, size, size + 1, 10 * size}:
        for denom in (1, 6):
            nums = narrow(rng, size, span, -span // 3, dtype)
            assert_shared(_shared_fractions(nums, denom), ref_shared_fractions(nums, denom))


@pytest.mark.parametrize("size", [6, 300, 4096])
def test_narrow_span_at_a_huge_magnitude(size):
    nums = np.array([(1 << 70) + i % 6 for i in range(size)], dtype=object)  # 2^70 + 0..5
    for denom in (1, 3):
        table = _shared_fractions(nums, denom)
        assert_shared(table, ref_shared_fractions(nums, denom))
        assert len(set(table)) == 6


def test_the_path_follows_size_dtype_and_span(monkeypatch):
    calls = []
    unique = np.unique
    monkeypatch.setattr(pbf.np, "unique", lambda *a, **k: calls.append(a[0].size) or unique(*a, **k))
    rng = random.Random(5)
    _shared_fractions(narrow(rng, 256, 1000), 1)  # dict: 2^8 entries
    _shared_fractions(narrow(rng, 257, 256), 1)  # range table: span below the length
    _shared_fractions(narrow(rng, 4096, 1 << 40, 1 << 62, object), 1)  # dict: Python ints
    assert calls == []
    _shared_fractions(narrow(rng, 257, 257), 1)  # span equal to the length
    _shared_fractions(narrow(rng, 1 << 16, 1 << 40), 1)
    assert calls == [257, 1 << 16]


def test_range_path_at_the_ends_of_int64():
    rng = random.Random(8)
    for offset in (-(1 << 63), (1 << 63) - 300):
        nums = narrow(rng, 1024, 299, offset)
        assert_shared(_shared_fractions(nums, 7), ref_shared_fractions(nums, 7))


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 20])
def test_assignments_at_the_chunk_boundaries(n):
    rng = np.random.default_rng(n)
    masks = np.arange(1 << n) if n <= 16 else np.append(rng.integers(0, 1 << n, 5000), [0, (1 << n) - 1])
    for sample in (masks, masks[:1], masks[:0], masks[::-1][:3]):
        got = _assignments(sample, n)
        assert got == ref_assignments(sample, n)
        assert all(type(row) is tuple and len(row) == n for row in got)
        assert all(type(b) is int for row in got[:50] for b in row)


@pytest.mark.parametrize("n", [0, 1, 3, 7, 8, 9, 10])
def test_minimize_argmin_matches_the_reference(n):
    rng = random.Random(40 + n)
    cases = [random_pbf(rng, n, 6, lo=-2, hi=2) for _ in range(4)] + [PseudoBoolean.zero(n)]
    if n:  # x1 * x_n: the minimum 0 ties over every point without both
        cases.append(PseudoBoolean.from_terms(n, {(0, n - 1): 1}))
    for f in cases:
        res = minimize_bruteforce(f)
        assert (res.value, res.argmin) == ref_minimize(f)
        assert type(res.value) is Fraction


@pytest.mark.parametrize("n", range(17))
def test_hamming_weights_are_one_read_only_array_per_n(n):
    weights = _hamming_weights(n)
    assert weights is _hamming_weights(n)
    assert weights.dtype == np.intp and not weights.flags.writeable
    assert weights.tolist() == [m.bit_count() for m in range(1 << n)]
    with pytest.raises(ValueError):
        weights[0] = 1


def test_both_symmetric_forms_read_their_arity_by_the_arity_rule():
    with pytest.raises(ValueError, match=r"arity must be in 0\.\.64, got -1"):
        WeightProfile(-1, ())
    with pytest.raises(ValueError, match=r"arity must be in 0\.\.64, got -1"):
        SymmetricForm(-1, ())
    with pytest.raises(ValueError, match=r"arity must be in 0\.\.64, got -1"):
        canonical_to_power([])
    with pytest.raises(ValueError, match="arity must be an integer, got 2.0"):
        WeightProfile(2.0, (0, 1, 0))
    assert WeightProfile(0, (5,)).values == (5,) and SymmetricForm(0, (5,)).weight_value(0) == 5
    assert type(SymmetricForm(np.int64(1), (0, 1)).n) is int
