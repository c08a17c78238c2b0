"""Line-based text format for code specifications.

Grammar ('#' starts a comment, blank lines ignored):

    p 3
    n 6
    k 2
    stab     100202|020112
    selfdual 000100|122000      # rows extending the stabilizer (optional)
    logicalx 000000|101100      # optional; derived when absent
    logicalz 000100|122000      # optional; derived when absent

Each row is an (a|b) pattern. For p <= 7 the digits may be packed as single
characters; for any p they may instead be whitespace-separated integers, e.g.
"1 0 0 2 0 2 | 0 2 0 1 1 2". Every integer, header values included, is
written in ASCII decimal digits: no sign, no '_', no other script's digits.
The packed rows of the whole document are read in one pass, all their digits
one array; a document with any other row is read row by row, so a bad row is
named by the same line and message either way. Missing self-dual or logical
rows are completed automatically at load time; logical pairs with a diagonal
but non-unit pairing matrix are rescaled (with a warning).
"""

from __future__ import annotations

import numpy as np

from .errors import SpecParseError, ValidationError
from .linalg import SUPPORTED_PRIMES
from .symplectic import CodeSpec, _check_shapes, build_code


def parse_decimal(token: str) -> int:
    """The integer an ASCII decimal digit string spells. A sign, an underscore
    or a non-ASCII digit, all of which int() takes, raise ValueError."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def parse_row(text: str, n: int, p: int, line_no: int) -> np.ndarray:
    if text.count("|") != 1:
        raise SpecParseError(line_no, "row must contain exactly one '|'")
    left, right = text.split("|")
    parts = []
    for half in (left, right):
        half = half.strip()
        # one entry a side is whitespace-separated too, the only form past 7
        packed = not (" " in half or "\t" in half) and (p <= 7 or n > 1)
        if packed and p > 7:
            raise SpecParseError(line_no, "packed digits only supported for p <= 7")
        try:
            parts.append([parse_decimal(tok) for tok in (half if packed else half.split())])
        except ValueError as exc:
            raise SpecParseError(line_no, "row entries must be integers") from exc
    a, b = parts
    if len(a) != n or len(b) != n:
        raise SpecParseError(line_no, f"expected {n} digits on each side of '|'")
    row = np.array(a + b, dtype=np.int64)
    if np.any(row < 0) or np.any(row >= p):
        raise SpecParseError(line_no, f"digit outside 0..{p - 1}")
    return row


def parse_rows(entries, n: int, p: int) -> np.ndarray:
    """The (line_no, text) rows as a (rows, 2n) int64 array, (0, 2n) for no
    row.

    When every row is packed as exactly n ASCII digits, '|', n ASCII digits
    and every digit is below p, one array op reads them all. Otherwise each
    row goes through parse_row, which names the first bad one.
    """
    texts = [text for _, text in entries]
    width = 2 * n + 1
    body = "".join(texts)
    digits = body.replace("|", "")
    if (
        p <= 7
        and set(map(len, texts)) == {width}
        and len(digits) == 2 * n * len(texts)  # one '|' per row,
        and body[n::width] == "|" * len(texts)  # in column n
        and digits.isascii()
        and digits.isdigit()
    ):
        rows = np.frombuffer(digits.encode("ascii"), dtype=np.uint8).reshape(len(texts), 2 * n) - 48
        if (rows < p).all():
            return rows.astype(np.int64)
    rows = [parse_row(text, n, p, line_no) for line_no, text in entries]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 2 * n)


def parse_code_document(text: str) -> CodeSpec:
    """Parse and validate a code-specification document."""
    header: dict[str, int] = {}
    rows: dict[str, list[tuple[int, str]]] = {"stab": [], "selfdual": [], "logicalx": [], "logicalz": []}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in ("p", "n", "k"):
            try:
                header[key] = parse_decimal(rest)
            except ValueError as exc:
                raise SpecParseError(line_no, f"'{key}' needs an integer") from exc
            if key == "p" and header[key] not in SUPPORTED_PRIMES:
                raise SpecParseError(line_no, f"unsupported field size {header[key]}; expected a prime <= 13")
            if key == "n" and header[key] < 1:
                raise SpecParseError(line_no, "'n' must be at least 1")
        elif key in rows:
            if not rest:
                raise SpecParseError(line_no, f"'{key}' needs a row")
            rows[key].append((line_no, rest))
        else:
            raise SpecParseError(line_no, f"unknown directive {key!r}")
    for key in ("p", "n", "k"):
        if key not in header:
            raise SpecParseError(0, f"missing '{key}' directive")
    p, n, k = header["p"], header["n"], header["k"]
    # the rows of every key, key after key, read as one array and split back
    array, parts, end = parse_rows([entry for entries in rows.values() for entry in entries], n, p), {}, 0
    for key, entries in rows.items():
        start, end = end, end + len(entries)
        parts[key] = array[start:end] if entries else None
    _check_shapes(n, k)  # k before the stabilizer row count it sets
    if len(rows["stab"]) != n - k:
        raise ValidationError(f"expected {n - k} stabilizer rows, got {len(rows['stab'])}")
    return build_code(
        p, array[: n - k], self_dual=parts["selfdual"], logical_x=parts["logicalx"], logical_z=parts["logicalz"], n=n
    )


def load_code(path) -> CodeSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_code_document(handle.read())


def format_row(vec: np.ndarray, n: int, p: int) -> str:
    a = vec[:n]
    b = vec[n:]
    if p <= 7:
        return "".join(str(int(v)) for v in a) + "|" + "".join(str(int(v)) for v in b)
    return " ".join(str(int(v)) for v in a) + " | " + " ".join(str(int(v)) for v in b)
