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


@lru_cache(maxsize=None)
def _residues(p: int) -> bytes:
    """The bytes.translate table taking each byte v to v mod p."""
    return bytes(v % p for v in range(256))


def rref(A, p: int) -> tuple[np.ndarray, tuple[int, ...], int]:
    """Reduced row-echelon form of A over F_p.

    Returns (R, pivots, rank) where pivots are the pivot column indices in
    increasing order. The row space of R equals the row space of A.
    """
    R = as_field(A, p)
    ints, pivots, width = _eliminate(R, p, False)
    lanes = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in ints), dtype=np.uint8).reshape(len(ints), width)
    out = np.unpackbits(lanes, axis=1, count=R.shape[1], bitorder="little") if p == 2 else lanes
    return out.astype(np.int64), tuple(pivots), len(pivots)


def rank(A, p: int) -> int:
    """Rank of A over F_p: the pivots of its echelon form, its rows never unpacked."""
    return len(_eliminate(as_field(A, p), p, True)[1])


def _eliminate(R: np.ndarray, p: int, echelon: bool) -> tuple[list[int], list[int], int]:
    """(rows, pivots, width): the field array R's rows eliminated, as ints of
    width bytes, and its pivot columns. With echelon a pivot clears its
    column only in the rows below it: echelon form, with the same pivots.

    Each row is one Python int with column c at bit c at p = 2 and at byte c
    at odd p (word-packed F_p elimination, Dumas-Giorgi-Pernet,
    arXiv:cs/0601133). A pivot clears its column only in the rows that hold
    it: one XOR at p = 2, x + (p - e) * pivot at odd p, whose bytes stay at
    most p(p - 1) <= 156, so no lane carries and one bytes.translate reduces
    the row mod p.
    """
    rows, cols = R.shape
    if p == 2:
        width, lane = (cols + 7) // 8, 1
        packed = np.packbits(R.astype(np.uint8), axis=1, bitorder="little").tobytes()
    else:
        width, lane = cols, 8
        packed = R.astype(np.uint8).tobytes()
        residues, inv = _residues(p), _inverses(p).tolist()
    from_bytes = int.from_bytes
    ints = [from_bytes(packed[i * width : (i + 1) * width], "little") for i in range(rows)]
    pivots: list[int] = []
    for r in range(rows):
        # Rows r.. are zero at every column left of the next pivot.
        rest = 0
        for x in ints[r:]:
            rest |= x
        if not rest:
            break
        shift = ((rest & -rest).bit_length() - 1) & -lane
        held = 1 << shift if p == 2 else 255 << shift
        for i in range(r, rows):
            if ints[i] & held:
                break
        pivot = ints[i]
        ints[i] = ints[r]
        start = r + 1 if echelon else 0  # row r then gets the pivot
        if p == 2:
            ints[start:] = [x ^ pivot if x & held else x for x in ints[start:]]
        else:
            if (lead := pivot >> shift & 255) != 1:
                pivot = from_bytes((pivot * inv[lead]).to_bytes(width, "little").translate(residues), "little")
            ints[start:] = [
                from_bytes((x + (p - (x >> shift & 255)) * pivot).to_bytes(width, "little").translate(residues), "little")
                if x & held
                else x
                for x in ints[start:]
            ]
        ints[r] = pivot
        pivots.append(shift // lane)
    return ints, pivots, width


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
    # with every pivot among A's columns the row operations are A's alone, so
    # each column of b gets the solution a separate elimination gives
    R, pivots, rk = rref(np.hstack([A, rhs]), p)
    if rk and pivots[-1] >= cols:
        raise NoSolutionError("right-hand side outside the column space")
    x = np.zeros((cols, rhs.shape[1]), dtype=np.int64)
    x[list(pivots)] = R[:rk, cols:]
    return x if b.ndim == 2 else x[:, 0]
