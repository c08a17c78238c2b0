"""Shared fixtures: the six-share qutrit reference code and its worked data,
and the hypothesis profile every property test runs under."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from qsshare import demo, pauli

# Every property test runs under one profile: no per-example deadline, and
# examples derived from the test itself, so each run draws the same ones.
settings.register_profile("qsshare", deadline=None, derandomize=True)
settings.load_profile("qsshare")


def row(text: str) -> np.ndarray:
    """Independent (a|b) row parser for test data, e.g. '100202|020112'."""
    a, b = text.split("|")
    return np.array([int(ch) for ch in a] + [int(ch) for ch in b], dtype=np.int64)


# Reference data for the [[6,2,3]] qutrit code.
H_ROWS = [
    row("100202|020112"),
    row("010000|001222"),
    row("001200|220201"),
    row("000011|211002"),
]
Z_ROWS = [row("000100|122000"), row("000001|221020")]
X_ROWS = [row("000000|101100"), row("000000|100021")]

# Known-good reconstruction quantities for available shares {3,4,5,6}.
W1 = row("002122|000200")
W2 = row("002122|002121")
Y1 = row("000111|000002")
Y2 = row("002101|001122")
U1 = (H_ROWS[2] + H_ROWS[3]) % 3
V1 = (-H_ROWS[3]) % 3
V2 = H_ROWS[2].copy()

AVAILABLE = (3, 4, 5, 6)


@pytest.fixture(scope="session")
def hexcode():
    return demo.six_share_qutrit_code()


@pytest.fixture(scope="session")
def hexconv(hexcode):
    return pauli.make_convention(hexcode)
