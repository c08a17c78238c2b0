from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsshare import linalg
from qsshare.errors import NoSolutionError, ZeroInverseError

import oracles
from conftest import H_ROWS, X_ROWS, Z_ROWS


def test_fp_inv_small_values():
    assert linalg.fp_inv(1, 3) == 1
    assert linalg.fp_inv(2, 3) == 2  # 2*2 = 4 = 1 mod 3


def test_fp_inv_matches_exhaustive_search():
    # independent oracle: scan [1, p) for the inverse
    for p in (3, 5, 7, 11):
        for x in range(1, p):
            expected = next(y for y in range(1, p) if (x * y) % p == 1)
            assert linalg.fp_inv(x, p) == expected
    assert linalg.fp_inv(3, 7) == 5


def test_fp_inv_zero_raises():
    with pytest.raises(ZeroInverseError):
        linalg.fp_inv(0, 5)


def test_rref_reference_code_ranks():
    stab = np.array(H_ROWS)
    assert linalg.rank(stab, 3) == 4
    full = np.array(H_ROWS + Z_ROWS + X_ROWS)
    assert linalg.rank(full, 3) == 8


def test_rref_zero_matrix():
    R, pivots, rk = linalg.rref(np.zeros((3, 5), dtype=int), 7)
    assert rk == 0 and pivots == ()
    assert not R.any()


def test_rref_idempotent_random():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        for _ in range(30):
            A = rng.integers(0, p, size=(rng.integers(1, 7), rng.integers(1, 9)))
            R1, piv1, _ = linalg.rref(A, p)
            R2, piv2, _ = linalg.rref(R1, p)
            assert np.array_equal(R1, R2)
            assert piv1 == piv2


def test_rank_nullity_random():
    rng = np.random.default_rng(23)
    for p in (2, 3, 5):
        for _ in range(40):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 13))
            A = rng.integers(0, p, size=(rows, cols))
            kernel = linalg.nullspace(A, p)
            assert linalg.rank(A, p) + kernel.shape[0] == cols
            if kernel.size:
                assert not ((kernel @ A.T) % p).any()


def test_solve_identity():
    b = np.array([3, 1, 4])
    x = linalg.solve_linear(np.eye(3, dtype=int), b, 5)
    kernel = linalg.nullspace(np.eye(3, dtype=int), 5)
    assert np.array_equal(x, b % 5)
    assert kernel.shape[0] == 0


def test_solve_reference_coefficients():
    # u1 = h3 + h4 expressed over the stabilizer rows: coefficients (0,0,1,1)
    stab = np.array(H_ROWS)
    u1 = (H_ROWS[2] + H_ROWS[3]) % 3
    x = linalg.solve_linear(stab.T, u1, 3)
    kernel = linalg.nullspace(stab.T, 3)
    assert np.array_equal(x, [0, 0, 1, 1])
    assert kernel.shape[0] == 0


def test_solve_inconsistent_raises():
    A = np.array([[1, 0], [1, 0]])
    with pytest.raises(NoSolutionError):
        linalg.solve_linear(A, np.array([1, 2]), 3)


def test_solve_verifies_on_random_systems():
    rng = np.random.default_rng(37)
    for p in (2, 3, 5):
        for _ in range(40):
            A = rng.integers(0, p, size=(rng.integers(1, 7), rng.integers(1, 7)))
            target = rng.integers(0, p, size=A.shape[1])
            b = (A @ target) % p
            x = linalg.solve_linear(A, b, p)
            kernel = linalg.nullspace(A, p)
            assert np.array_equal((A @ x) % p, b)
            for v in kernel:
                assert not ((A @ v) % p).any()


def test_intersect_same_space_is_identity():
    stab = np.array(H_ROWS)
    out = oracles.intersect_spans(stab, stab, 3)
    assert oracles.row_space_equal(out, stab, 3)


def test_intersect_with_coordinate_slab_is_empty():
    # the reference stabilizer meets the span of shares {1,2} only in zero
    stab = np.array(H_ROWS)
    slab = np.zeros((4, 12), dtype=int)
    for r, c in enumerate((0, 1, 6, 7)):  # a1, a2, b1, b2 coordinates
        slab[r, c] = 1
    out = oracles.intersect_spans(stab, slab, 3)
    assert out.shape[0] == 0


def test_intersect_rejects_column_mismatch():
    with pytest.raises(ValueError):
        oracles.intersect_spans(np.eye(2, dtype=int), np.eye(3, dtype=int), 3)


def test_intersect_by_enumeration():
    # tiny cases: compare against literal enumeration of both row spaces
    rng = np.random.default_rng(41)
    for p in (2, 3):
        for _ in range(25):
            cols = int(rng.integers(2, 5))
            A = rng.integers(0, p, size=(rng.integers(1, 3), cols))
            B = rng.integers(0, p, size=(rng.integers(1, 3), cols))
            out = oracles.intersect_spans(A, B, p)

            def span(M):
                vecs = set()
                rows = [r for r in M]
                for coeff in product(range(p), repeat=len(rows)):
                    v = np.zeros(cols, dtype=int)
                    for c, r in zip(coeff, rows):
                        v = (v + c * r) % p
                    vecs.add(tuple(v))
                return vecs

            expected = span(A) & span(B)
            assert span(out) == expected


def test_row_space_contains_zero_vector():
    assert linalg.row_space_contains(np.array(H_ROWS), np.zeros(12, dtype=int), 3)


@st.composite
def field_matrices(draw, max_rows=24, max_cols=24):
    """(p, A): a matrix over F_p, 0..24 x 0..24, often with zero, repeated
    or scaled-copy rows and zero columns, so pivots get skipped."""
    p = draw(st.sampled_from(linalg.SUPPORTED_PRIMES))
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.integers(0, p, size=(rows, cols))
    if rows and cols:
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(("zero-row", "zero-col", "copy-row")))
            i = draw(st.integers(0, rows - 1))
            if kind == "zero-row":
                A[i] = 0
            elif kind == "zero-col":
                A[:, draw(st.integers(0, cols - 1))] = 0
            else:
                A[i] = (A[draw(st.integers(0, rows - 1))] * draw(st.integers(0, p - 1))) % p
    return p, A


@settings(max_examples=300)
@given(field_matrices())
def test_rref_equals_rowloop_oracle(case):
    p, A = case
    R, pivots, rk = linalg.rref(A, p)
    R0, pivots0, rk0 = oracles.rref_rowloop(A, p)
    assert np.array_equal(R, R0)
    assert R.dtype == R0.dtype and R.shape == R0.shape
    assert (pivots, rk) == (pivots0, rk0)


@st.composite
def bit_matrices(draw):
    """A 0/1 matrix with 0..40 rows and 0..150 columns (tall, wide, widths off
    a multiple of 8 and past 64), often with zero and duplicate rows."""
    rows = draw(st.integers(0, 40))
    cols = draw(st.sampled_from((0, 1, 7, 8, 9, 63, 64, 65, 100, 150)) | st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(0, 2, size=(rows, cols)) * (rng.random((rows, cols)) < draw(st.floats(0.05, 1)))
    if rows:
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            A[i] = 0 if draw(st.booleans()) else A[j]
    return A


@settings(max_examples=300)
@given(bit_matrices())
def test_packed_p2_kernel_equals_the_general_kernel(A):
    before = A.copy()
    R, pivots, rk = linalg.rref(A, 2)
    assert np.array_equal(A, before)  # the input is left alone
    R0, pivots0, rk0 = oracles.rref_rowloop(A, 2)
    assert R.dtype == R0.dtype and R.shape == R0.shape
    assert np.array_equal(R, R0)
    assert (pivots, rk) == (pivots0, rk0)


@st.composite
def byte_lane_matrices(draw):
    """(p, A) at odd p: 0..30 rows and 0..150 columns (tall and wide), dense
    rows of p - 1, whose updates reach the byte bound p(p - 1), and zero,
    duplicate and scaled-copy rows."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    rows = draw(st.integers(0, 30))
    cols = draw(st.sampled_from((0, 1, 2, 31, 32, 33, 150)) | st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < draw(st.floats(0.05, 1)))
    if rows:
        for _ in range(draw(st.integers(0, 5))):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            kind = draw(st.sampled_from(("dense", "zero", "copy", "scaled")))
            A[i] = {"dense": p - 1, "zero": 0, "copy": A[j], "scaled": A[j] * draw(st.integers(2, p - 1)) % p}[kind]
    return p, A


@settings(max_examples=400)
@given(byte_lane_matrices())
def test_byte_lane_kernel_equals_the_rowloop_oracle(case):
    p, A = case
    before = A.copy()
    R, pivots, rk = linalg.rref(A, p)
    assert np.array_equal(A, before)  # the input is left alone
    R0, pivots0, rk0 = oracles.rref_rowloop(A, p)
    assert R.dtype == R0.dtype and R.shape == R0.shape
    assert np.array_equal(R, R0)
    assert (pivots, rk) == (pivots0, rk0)


def test_byte_lane_kernel_at_the_byte_bound():
    # rows [1, 0.., p - 1, ..] under the pivot [1, p - 1, ..]: clearing the
    # lead 1 adds (p - 1) * pivot, so bytes reach (p - 1) + (p - 1)^2 = p(p - 1)
    for p in (3, 5, 7, 11, 13):
        A = np.triu(np.full((6, 9), p - 1), 1)
        A[:, 0] = 1
        for B in (A, A.T, np.vstack([A, A])):
            R, pivots, rk = linalg.rref(B, p)
            R0, pivots0, rk0 = oracles.rref_rowloop(B, p)
            assert np.array_equal(R, R0) and (pivots, rk) == (pivots0, rk0)


@settings(max_examples=300)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(0, 8) | st.just(0),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("random", "combination", "zero")),
)
def test_row_space_contains_equals_the_two_rank_form(p, rows, cols, seed, kind):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, p, size=(rows, cols))
    if rows > 1:
        A[-1] = (A[0] + 2 * A[1]) % p  # a dependent row
    v = {
        "random": rng.integers(0, p, size=cols),
        "combination": rng.integers(0, p, size=rows) @ A % p,  # the zero vector when A has no row
        "zero": np.zeros(cols, dtype=np.int64),
    }[kind]
    got = linalg.row_space_contains(A, v, p)
    assert got == oracles.row_space_contains_by_ranks(A, v, p)
    assert got or kind == "random"


@settings(max_examples=150)
@given(field_matrices(max_rows=10, max_cols=10), st.integers(1, 4), st.integers(1, 3), st.data())
def test_stacked_solve_equals_solve_linear_on_each_system(case, count, q, data):
    # systems sharing A's shape, some with a right-hand side in A's column
    # space and some (drawn at random) mostly outside it
    p, A = case
    rows, cols = A.shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    systems = []
    for _ in range(count):
        A = rng.permutation(A, axis=0) * rng.integers(0, 2, size=(rows, 1)) % p
        b = A @ rng.integers(0, p, size=(cols, q)) % p if data.draw(st.booleans()) else rng.integers(0, p, size=(rows, q))
        systems.append(np.hstack([A, b]))
    systems = np.array(systems, dtype=np.int64).reshape(count, rows, cols + q)
    before = systems.copy()
    x, solved = linalg.solve_stacked(systems, cols, p)
    assert np.array_equal(systems, before) and x.shape == (count, cols, q)
    for s in range(count):
        try:
            expected = linalg.solve_linear(systems[s, :, :cols], systems[s, :, cols:], p)
        except NoSolutionError:
            assert not solved[s]
        else:
            assert solved[s] and np.array_equal(x[s], expected)
