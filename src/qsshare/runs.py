"""Runs of controlled Paulis, applied in place one control value at a time.

A run is a maximal sequence of consecutive CPAULI (or CPAULIINV) gates with
one control and distinct targets; a lone controlled gate is a run of one.
On control slice j the run is the one Pauli prod_t (X^a_t Z^b_t)^(+-j):
amplitude y reads amplitude y - s, times w^(sum_t e_t[y_t]), and both the
source index and the phase split over the digits. The slice is cut into
rows of at most ROW amplitudes, its last axes with the batch axis riding
inside. Outer sums give a source-index table and a phase table for the row
digits, from the tables of their two halves, and for the row-index digits,
whose shift walks the rows in cycles. Each row is np.take of the row it
reads, times one phase row, written from the last row of a cycle back to
its first with one saved row; slice 0 sees the identity.

The half tables and the row cycles are built on a run's first use and kept
with it, so a program serves every chunk of secrets that goes through it,
and share lets circuits that contain the same run use one set of tables;
the full row tables are formed per control value and dropped after it, so
a pass holds a few rows of memory however long the circuit. sim folds the
single-qudit gates between runs into layers, its one other op kind, and
runs the programs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from . import pauli

ROW = 2**14  # amplitudes in a row of a control slice, the batch axis included
# A row reaches back over its control axis, and so strides, only while its
# part after the control holds fewer than REACH amplitudes. Timed on 238
# single runs (2 CPUs, one BLAS thread) at p in {2, 3, 5, 7}, up to 2^17
# amplitudes, B in {1, 3, 5}: under 2^8, reaching back won 128 of 134 cases,
# by up to 43-fold (contiguous rows are then many and short); from 2^10 on,
# contiguous rows won 43 of 56, by up to 4.6-fold; in between the two split
# evenly, and 2^9 gave the least total time.
REACH = ROW // 32


class Run:
    """Consecutive controlled Paulis of one kind and one control on distinct
    targets, as axes of the working tensor: (target axis, a, b) per gate.
    tables maps a batch length to the run's _Tables."""

    __slots__ = ("inverse", "control", "targets", "tables")

    def __init__(self, inverse: bool, control: int):
        self.inverse, self.control, self.targets, self.tables = inverse, control, [], {}


def program(gates) -> list:
    """The gates in order, each maximal run of controlled Paulis folded into
    one Run; a repeated target starts a new run. Qudit q is axis q - 1."""
    ops: list = []
    for gate in gates:
        if not gate.is_two_qudit():
            ops.append(gate)
            continue
        control, target = (q - 1 for q in gate.qudits)
        inverse = gate.kind == "CPAULIINV"
        run = ops[-1] if ops else None
        if not (
            isinstance(run, Run)
            and (run.inverse, run.control) == (inverse, control)
            and all(target != t for t, _, _ in run.targets)
        ):
            run = Run(inverse, control)
            ops.append(run)
        run.targets.append((target, *gate.params))
    return ops


def share(programs) -> list:
    """The programs with equal runs made one Run object, so that the tables
    of a run that several circuits contain are built and held once."""
    first: dict = {}
    return [
        [
            first.setdefault((op.inverse, op.control, tuple(op.targets)), op) if isinstance(op, Run) else op
            for op in ops
        ]
        for ops in programs
    ]


def _outer_sum(vectors, count: int) -> np.ndarray:
    """(count, prod of lengths) tables of v_1[d_1] + ... + v_r[d_r] in C order
    of the digits, from (count, length) stacks of vectors, or (1, length)
    ones that serve every row; a table of no digits is one zero."""
    table = np.zeros((count, 1), dtype=np.int64)
    for vec in vectors:
        table = (table[:, :, None] + vec[:, None, :]).reshape(count, -1)
    return table


@lru_cache(maxsize=None)
def _powers(p: int, inverse: bool, a: int, b: int) -> tuple:
    """(p - 1, p) tables, one row per control value j = 1..p-1, of the digit
    that digit y reads and of the phase exponent it takes under
    (X^a Z^b)^j, or its inverse; read-only, shared through the cache."""
    site, reads, exps = pauli.PhasedPauli(p, 0, (a, b)), [], []
    for j in range(1, p):
        power = pauli.pauli_pow(site, -j if inverse else j)
        shift, z = (int(v) for v in power.vec)
        source = (np.arange(p) - shift) % p
        reads.append(source)
        exps.append(np.asarray(pauli.block_exponents(z, power.phase, p))[source])
    tables = np.array(reads), np.array(exps) % pauli.phase_order(p)
    for table in tables:
        table.flags.writeable = False
    return tables


class _Tables:
    """How a run moves the rows of its control slices, for one batch length.

    A control slice's first `split` axes index its rows; a row holds the
    other register axes, `size` amplitudes, times the batch axis, and is
    contiguous (`flat`) when those axes all follow the control. Per control
    value j = 1..p-1 (the first index of each table): the in-row source
    index as the tables of the two halves of the row's register digits (None
    if no target in the row moves), the in-row phase exponents as the tables
    of the same halves (None if the phase is 1), and the rows as cycles of
    (row key, row phase exponent), each row reading the one before it and
    the first the last.
    """

    __slots__ = ("split", "size", "flat", "index", "phase", "cycles")

    def __init__(self, split, size, flat, index, phase, cycles):
        self.split, self.size, self.flat = split, size, flat
        self.index, self.phase, self.cycles = index, phase, cycles


def _tables(run: Run, p: int, m: int, batch: int) -> _Tables:
    ring = pauli.phase_order(p)
    axes = [q for q in range(m) if q != run.control]
    split = len(axes)  # rows of at most ROW amplitudes, the batch included
    while split and p ** (len(axes) - split + 1) * batch <= ROW:
        if split == run.control and p ** (len(axes) - split) * batch >= REACH:
            break
        split -= 1
    powers = {t: _powers(p, run.inverse, a, b) for t, a, b in run.targets}
    same, zero = np.arange(p)[None, :], np.zeros((1, p), dtype=np.int64)  # broadcast over j
    reads = [powers[q][0] if q in powers else same for q in axes]
    phases = [powers[q][1] if q in powers else zero for q in axes]

    def index(lo, hi, end):  # source index tables of axes[lo:hi], place values up to axes[end]
        return _outer_sum([v * p ** (end - 1 - d) for d, v in enumerate(reads[lo:hi], lo)], p - 1)

    # kept for the whole call, so in the smallest types: an in-row index is
    # below ROW and an exponent below the ring order
    half, inner = (split + len(axes)) // 2, [powers[q] for q in axes[split:] if q in powers]
    in_index = in_phase = None
    if any((read != same).any() for read, _ in inner):
        in_index = tuple(
            index(lo, hi, len(axes)).astype(np.int16) for lo, hi in ((split, half), (half, len(axes)))
        )
    if any(exps.any() for _, exps in inner):
        in_phase = tuple(
            (_outer_sum(phases[lo:hi], p - 1) % ring).astype(np.int8)
            for lo, hi in ((split, half), (half, len(axes)))
        )
    row_reads, row_exps = index(0, split, split), _outer_sum(phases[:split], p - 1) % ring
    keys = list(product(range(p), repeat=split))
    cycles = []
    for reads_j, exps_j in zip(row_reads.tolist(), row_exps.tolist()):
        readers = [0] * len(reads_j)
        for row, read in enumerate(reads_j):
            readers[read] = row
        seen, walk = [False] * len(readers), []
        for start in range(len(readers)):
            row, cycle = start, []
            while not seen[row]:
                seen[row] = True
                cycle.append((keys[row], exps_j[row]))
                row = readers[row]
            if cycle:
                walk.append(cycle)
        cycles.append(walk)
    flat = all(q > run.control for q in axes[split:])
    return _Tables(split, p ** (len(axes) - split), flat, in_index, in_phase, cycles)


def apply_run(tensor: np.ndarray, run: Run, p: int) -> None:
    """Apply a run of controlled Paulis in place, one pass per control value,
    in rows of at most ROW amplitudes.

    On control slice j the run is one Pauli prod_t (X^a_t Z^b_t)^(+-j):
    destination y reads source y - s, times w^(sum_t e_t[y_t]). Both the
    source index and the phase are separable over digits, so each row of the
    slice is np.take of the row it reads by one index table, times one phase
    row, and the rows are walked cycle by cycle with one saved row.
    """
    batch = tensor.shape[-1]
    tables = run.tables.get(batch)
    if tables is None:
        tables = run.tables[batch] = _tables(run, p, tensor.ndim - 1, batch)
    split, size, index, phase = tables.split, tables.size, tables.index, tables.phase
    ring, phases = pauli.phase_order(p), pauli.phase_table(p)
    view = tensor  # the working tensor is contiguous, so merging its last axes gives a view
    if tables.flat:
        view = tensor.reshape(tensor.shape[: split + 1] + (size, batch))
    lead = (slice(None),) * run.control
    moving = len(tables.cycles[0][0]) > 1  # the rows move, in cycles of p, for every j
    saved = np.empty((size, batch), dtype=tensor.dtype) if moving or index is not None else None
    buf = np.empty_like(saved) if moving else None
    for j, walk in enumerate(tables.cycles):
        rows = view[lead + (j + 1,)]
        shape = rows.shape[split:]
        idx = None if index is None else np.add.outer(index[0][j], index[1][j], dtype=np.intp).ravel()
        if phase is not None:  # w^(x + e) for every exponent x and low-half entry e, per batch member
            lows = np.repeat(phases[np.add.outer(np.arange(ring), phase[1][j]) % ring], batch, axis=1)
        factors = {}

        def land(src, dst, v):  # dst = src times the phase of row exponent v
            if v not in factors:
                if phase is None:
                    factors[v] = phases[v] if v else None
                else:
                    factors[v] = np.take(lows, (phase[0][j] + v) % ring, axis=0).reshape(shape)
            if factors[v] is not None:
                np.multiply(src.reshape(shape), factors[v], out=dst)
            elif src is not dst:
                np.copyto(dst, src.reshape(shape))

        def gather(src, out):  # out = src with the in-row index applied
            if idx is None:
                np.copyto(out, src.reshape(size, batch))
            else:
                np.take(src.reshape(size, batch), idx, axis=0, out=out, mode="clip")
            return out

        for cycle in walk:
            if len(cycle) == 1 and idx is None:
                ((key, v),) = cycle
                row = rows[key]
                land(row, row, v)
                continue
            gather(rows[cycle[-1][0]], saved)
            for (src, _), (dst, v) in zip(cycle[-2::-1], cycle[:0:-1]):
                land(gather(rows[src], buf), rows[dst], v)
            land(saved, rows[cycle[0][0]], cycle[0][1])
