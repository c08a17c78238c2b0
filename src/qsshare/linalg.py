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

    Each row is one Python int with column c at bit c at p = 2 and at byte c
    at odd p (word-packed F_p elimination, Dumas-Giorgi-Pernet,
    arXiv:cs/0601133). A pivot clears its column only in the rows that hold
    it: one XOR at p = 2, x + (p - e) * pivot at odd p, whose bytes stay at
    most p(p - 1) <= 156, so no lane carries and one bytes.translate reduces
    the row mod p.
    """
    R = as_field(A, p)
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
        if p == 2:
            ints = [x ^ pivot if x & held else x for x in ints]
        else:
            if (lead := pivot >> shift & 255) != 1:
                pivot = from_bytes((pivot * inv[lead]).to_bytes(width, "little").translate(residues), "little")
            ints = [
                from_bytes((x + (p - (x >> shift & 255)) * pivot).to_bytes(width, "little").translate(residues), "little")
                if x & held
                else x
                for x in ints
            ]
        ints[r] = pivot
        pivots.append(shift // lane)
    lanes = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in ints), dtype=np.uint8).reshape(rows, width)
    out = np.unpackbits(lanes, axis=1, count=cols, bitorder="little") if p == 2 else lanes
    return out.astype(np.int64), tuple(pivots), len(pivots)


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
    x, solved = _solve_one(np.hstack([A, rhs]), cols, p)
    if not solved:
        raise NoSolutionError("right-hand side outside the column space")
    return x if b.ndim == 2 else x[:, 0]


def _solve_one(system, cols: int, p: int) -> tuple[np.ndarray, bool]:
    """One rref of [A | b], A with cols columns: (x, solved), x the solution
    with every free variable zero, and solved false when a pivot lies in b
    (x is then zero). With every pivot among A's columns the row operations
    are A's alone, so each column of b gets the solution a separate
    elimination gives."""
    R, pivots, rk = rref(system, p)
    x = np.zeros((cols, R.shape[1] - cols), dtype=np.int64)
    solved = not rk or pivots[-1] < cols
    if solved:
        x[list(pivots)] = R[:rk, cols:]
    return x, solved


def solve_stacked(systems, cols: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """solve_linear of S systems of one shape at once.

    systems is (S, rows, cols + q), each [A | b] with entries in [0, p) and q
    right-hand sides. One Gauss-Jordan elimination over the leading axis
    reduces A's columns of every system, pivoting as rref does. Returns
    (x, solved): x (S, cols, q) the solutions with every free variable zero,
    and solved (S,) true where every right-hand side lies in A's column
    space (x is meaningless where it is false). The reduced form is unique,
    so each solved system's x is solve_linear's. One system is one rref of
    it as given; many are reduced together in int16, as |x - y*z| < p^2 <= 169.
    """
    if len(systems) == 1:
        x, solved = _solve_one(systems[0], cols, p)
        return x[None], np.array([solved])
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
