"""Exact linear algebra over prime fields.

Matrices are integer numpy arrays with entries in [0, p); rows are vectors.
A basis is a matrix whose rows are linearly independent; the empty basis is
a (0, cols) array. Routines never mutate their arguments, and pivoting is
deterministic (lowest column first, then lowest row), so reduced forms,
solution picks and basis outputs are reproducible across runs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NoSolutionError, ZeroInverseError

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)


def check_prime(p: int) -> int:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"unsupported field size {p}; expected a prime <= 13")
    return p


def as_field(arr, p: int) -> np.ndarray:
    """Copy into a canonical 2-d int64 array reduced mod p."""
    out = np.atleast_2d(np.asarray(arr, dtype=np.int64)) % p
    return out


def as_field_vector(arr, p: int) -> np.ndarray:
    out = np.asarray(arr, dtype=np.int64).reshape(-1) % p
    return out


def empty_basis(cols: int) -> np.ndarray:
    return np.zeros((0, cols), dtype=np.int64)


def fp_inv(x: int, p: int) -> int:
    """Multiplicative inverse of x in F_p."""
    x = int(x) % p
    if x == 0:
        raise ZeroInverseError(f"0 has no inverse in F_{p}")
    return pow(x, -1, p)


@lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """Table t with t[x] = x^-1 mod p for x in 1..p-1, and t[0] = 0."""
    table = np.zeros(p, dtype=np.int64)
    table[1:] = [pow(x, -1, p) for x in range(1, p)]
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def rref(A, p: int) -> tuple[np.ndarray, tuple[int, ...], int]:
    """Reduced row-echelon form of A over F_p.

    Returns (R, pivots, rank) where pivots are the pivot column indices in
    increasing order. The row space of R equals the row space of A. The
    kernel is chosen by p alone: at p = 2 rows are packed into Python ints
    (_rref_packed), at odd p each pivot updates the array (_rref_field). The
    reduced form of a row space is unique, so both return the same triple.
    """
    R = as_field(A, p)
    return _rref_packed(R) if p == 2 else _rref_field(R, p)


def _rref_field(R: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...], int]:
    """rref of a canonical array, reduced in place: each pivot clears its
    column in every other row with one rank-one update."""
    rows, cols = R.shape
    inv = _inverses(p)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        # Rows r.. are zero left of c, so only columns c.. change.
        pivot = R[i, c:] * inv[R[i, c]] % p
        if i != r:
            R[i] = R[r]
        # Clearing column c in every row also zeroes row r; it then gets the pivot.
        R[:, c:] -= R[:, c, None] * pivot
        R[:, c:] %= p
        R[r, c:] = pivot
        pivots.append(c)
        r += 1
    return R, tuple(pivots), len(pivots)


def _rref_packed(R: np.ndarray) -> tuple[np.ndarray, tuple[int, ...], int]:
    """rref of a canonical F_2 array, each row one Python int with column c
    at bit c: a pivot clears its column with one XOR per row that holds it."""
    rows, cols = R.shape
    width = (cols + 7) // 8
    packed = np.packbits(R.astype(np.uint8), axis=1, bitorder="little").tobytes()
    ints = [int.from_bytes(packed[i * width : (i + 1) * width], "little") for i in range(rows)]
    pivots: list[int] = []
    for r in range(rows):
        # Rows r.. are zero at every column left of the next pivot.
        rest = 0
        for x in ints[r:]:
            rest |= x
        if not rest:
            break
        bit = rest & -rest
        i = next(i for i in range(r, rows) if ints[i] & bit)
        pivot = ints[i]
        ints[i] = ints[r]
        ints = [x ^ pivot if x & bit else x for x in ints]
        ints[r] = pivot
        pivots.append(bit.bit_length() - 1)
    packed = b"".join(x.to_bytes(width, "little") for x in ints)
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(rows, width)
    out = np.unpackbits(bits, axis=1, count=cols, bitorder="little").astype(np.int64)
    return out, tuple(pivots), len(pivots)


def rank(A, p: int) -> int:
    return rref(A, p)[2]


def row_basis(A, p: int) -> np.ndarray:
    """Canonical basis (rref nonzero rows) of the row space of A."""
    R, _, rk = rref(A, p)
    return R[:rk].copy()


def row_space_contains(A, v, p: int) -> bool:
    """True when v lies in the row space of A."""
    v = as_field_vector(v, p)
    R, pivots, rk = rref(A, p)
    # R's pivot columns are the identity, so v - v[pivots] R is zero there and
    # vanishes exactly when v is in the row space
    return not ((v - v[list(pivots)] @ R[:rk]) % p).any()


def nullspace(A, p: int) -> np.ndarray:
    """Basis of {x : A x = 0}, one row per basis vector.

    Each basis vector has a 1 in one free column and zeros in the others,
    which makes the output canonical for the fixed pivoting rule.
    """
    A = as_field(A, p)
    _, cols = A.shape
    R, pivots, rk = rref(A, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, list(pivots)] = (-R[:rk, free]).T % p
    return basis


def solve_linear(A, b, p: int) -> np.ndarray:
    """Solve A x = b over F_p.

    b is one right-hand side, or a (rows, q) matrix of q of them that one
    elimination solves together; x has the matching shape. Returns the
    particular solution with every free variable set to zero; nullspace(A, p)
    gives the rest. Raises NoSolutionError when a right-hand side is outside
    the column space of A.
    """
    A = as_field(A, p)
    b = np.asarray(b, dtype=np.int64) % p
    rows, cols = A.shape
    if b.shape[0] != rows:
        raise NoSolutionError(f"right-hand side length {b.shape[0]} != {rows} rows")
    rhs = b.reshape(-1, 1) if b.ndim == 1 else b
    # With every pivot among A's columns the row operations are A's alone, so
    # each column of b gets the same solution a separate elimination gives.
    R, pivots, rk = rref(np.hstack([A, rhs]), p)
    if rk and pivots[-1] >= cols:
        raise NoSolutionError("right-hand side outside the column space")
    x = np.zeros((cols, rhs.shape[1]), dtype=np.int64)
    x[list(pivots)] = R[:rk, cols:]
    return x if b.ndim == 2 else x[:, 0]


def solve_stacked(systems, cols: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """solve_linear of S systems of one shape at once.

    systems is (S, rows, cols + q), each [A | b] with entries in [0, p) and q
    right-hand sides. One Gauss-Jordan elimination over the leading axis
    reduces A's columns of every system, pivoting as rref does. Returns
    (x, solved): x (S, cols, q) the solutions with every free variable zero,
    and solved (S,) true where every right-hand side lies in A's column
    space (x is meaningless where it is false). The reduced form is unique,
    so each solved system's x is solve_linear's. The kernel follows the
    count, as rref's follows p: one system is solve_linear's, whose rref is
    packed at p = 2, and many are reduced together in int16, as
    |x - y*z| < p^2 <= 169.
    """
    if len(systems) == 1:
        try:
            return solve_linear(systems[0][:, :cols], systems[0][:, cols:], p)[None], np.ones(1, dtype=bool)
        except NoSolutionError:
            return np.zeros((1, cols, systems.shape[2] - cols), dtype=np.int64), np.zeros(1, dtype=bool)
    work = np.array(systems, dtype=np.int16)
    count, rows, width = work.shape
    inv = _inverses(p).astype(np.int16)
    every, row_index = np.arange(count), np.arange(rows)
    rank = np.zeros(count, dtype=np.intp)
    pivot_of = np.full((count, min(rows, cols)), cols)  # each reduced row's pivot column; cols for none
    for c in range(cols):
        if (rank == rows).all():
            break
        # rows rank.. are zero left of c, so only columns c.. change
        live = (work[:, :, c] != 0) & (row_index >= rank[:, None])
        found = live.any(axis=1)
        if not found.any():
            continue
        i = live.argmax(axis=1)
        lead = work[every, i, c]
        pivot = work[every, i, c:] * (inv[lead] * found)[:, None] % p  # zero where no row pivots
        held, r = every[found], rank[found]
        work[held, i[found]] = work[held, r]
        # clearing column c in every row also zeroes row r; it then gets the pivot
        work[:, :, c:] -= work[:, :, c, None] * pivot[:, None, :]
        work[:, :, c:] %= p
        work[held, r, c:] = pivot[found]
        pivot_of[held, r] = c
        rank += found
    solved = ~(work[:, :, cols:].any(axis=2) & (row_index >= rank[:, None])).any(axis=1)
    x = np.zeros((count, cols + 1, width - cols), dtype=np.int64)
    x[every[:, None], pivot_of] = work[:, : pivot_of.shape[1], cols:]
    return x[:, :cols], solved
