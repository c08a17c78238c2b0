"""Fixed reference kernels that gauge how fast the host runs right now.

The benchmark host is a shared VM whose speed drifts by a third or more over
minutes (the same 3.5 s request took between 1.9 s and 3.9 s over an hour),
which swamps any regression bound. Each kernel does a fixed amount of work of
one kind qsshare does and belongs to the benchmark, so no change to the
program moves it:

- "cpu": Python loops, small int64 arrays reduced mod p and contractions on
  3^8 amplitudes, all cache-resident, like planning and small simulations;
- "memory": contractions, phases and shifts on 2^19 amplitudes (8 MiB), like
  the dense simulation of large registers.

Timings are scaled by NOMINAL_S[kind] / (the kernel's duration measured next
to them): they read as seconds on a host running at the speed where the
kernel takes NOMINAL_S[kind]. Over eight minutes of one workload, scaling by
the matching kernel cut the spread of 25 s window medians from 0.17 to 0.07
(cpu, hex-sweep) and from 0.11 to 0.02 (memory, wide-certify).
"""

from __future__ import annotations

import time

import numpy as np

# Median duration of one kernel run on the host where the baseline was taken.
NOMINAL_S = {"cpu": 0.1, "memory": 0.06}

_ROUNDS = 100
_MATRIX = (np.arange(8 * 16, dtype=np.int64).reshape(8, 16) * 7) % 3
_GATE = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
_GATE2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def _cpu_kernel() -> int:
    state = np.full((3,) * 8, 1 / 81, dtype=np.complex128)
    acc = 0
    for _ in range(_ROUNDS):
        rows = _MATRIX.copy()
        for c in range(rows.shape[1]):
            nz = np.nonzero(rows[:, c])[0]
            if nz.size:
                i = int(nz[0])
                rows[[0, i]] = rows[[i, 0]]
                for j in range(1, rows.shape[0]):
                    if rows[j, c]:
                        rows[j] = (rows[j] - rows[j, c] * rows[0]) % 3
        acc += int(rows.sum())
        for axis in range(8):
            state = np.moveaxis(np.tensordot(_GATE, state, axes=([1], [axis])), 0, axis)
        acc += sum(i * i for i in range(2000))
    return acc


def _memory_kernel() -> complex:
    state = np.full((2,) * 19, 2**-9.5, dtype=np.complex128)
    for axis in (0, 2, 4, 6, 8, 10, 12, 14, 16, 18):
        state = np.moveaxis(np.tensordot(_GATE2, state, axes=([1], [axis])), 0, axis)
        state = np.roll(state * np.exp(0.1j), 1, axis=axis)
    return complex(state.reshape(-1)[0])


_KERNELS = {"cpu": _cpu_kernel, "memory": _memory_kernel}


def kernel_seconds(kind: str) -> float:
    """Wall time of one run of the `kind` reference kernel."""
    start = time.perf_counter()
    _KERNELS[kind]()
    return time.perf_counter() - start
