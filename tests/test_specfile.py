import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qsshare import linalg, specfile, symplectic
from qsshare.demo import SIX_SHARE_QUTRIT_DOCUMENT, six_share_qutrit_code
from qsshare.errors import SpecParseError, ValidationError

from conftest import H_ROWS, X_ROWS, Z_ROWS


def test_parse_reference_document():
    with pytest.warns(UserWarning):
        code = specfile.parse_code_document(SIX_SHARE_QUTRIT_DOCUMENT)
    assert (code.p, code.n, code.k) == (3, 6, 2)
    assert np.array_equal(code.stabilizer, np.array(H_ROWS))
    assert np.array_equal(code.logical_x, np.array(X_ROWS))
    symplectic.validate_code(code)


BUNDLED_CODES = sorted((Path(__file__).resolve().parent.parent / "codes").glob("*.qss"))


@pytest.mark.parametrize("path", BUNDLED_CODES, ids=[path.name for path in BUNDLED_CODES])
def test_bundled_code_loads_without_warning(path):
    # the bundled file lists the normalized z rows the demo document's load derives
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = specfile.load_code(str(path))
    expected = six_share_qutrit_code()
    for part in ("stabilizer", "self_dual", "logical_x", "logical_z"):
        assert np.array_equal(getattr(code, part), getattr(expected, part)), part


def test_stabilizer_only_document_of_sixty_four_qubits_loads():
    ref = symplectic.random_self_orthogonal_code(2, 64, 2, 0)
    text = "p 2\nn 64\nk 2\n" + "".join(f"stab {specfile.format_row(h, 64, 2)}\n" for h in ref.stabilizer)
    code = specfile.parse_code_document(text)
    symplectic.validate_code(code)
    assert np.array_equal(code.stabilizer, ref.stabilizer) and code.k == 2


def test_parse_minimal_document_completes_missing_rows():
    text = "p 3\nn 6\nk 2\n" + "".join(
        f"stab {specfile.format_row(h, 6, 3)}\n" for h in H_ROWS
    )
    code = specfile.parse_code_document(text)
    symplectic.validate_code(code)
    assert code.k == 2


def test_parse_rows_of_no_entry_is_an_empty_row_stack():
    for p, n in ((3, 2), (11, 4)):
        rows = specfile.parse_rows([], n, p)
        assert rows.shape == (0, 2 * n) and rows.dtype == np.int64


def test_parse_spaced_digits():
    text = "p 3\nn 2\nk 1\nstab 0 1 | 0 0\n"
    code = specfile.parse_code_document(text)
    assert np.array_equal(code.stabilizer, [[0, 1, 0, 0]])


def test_parse_rejects_bad_digit():
    text = "p 3\nn 2\nk 1\nstab 05|00\n"
    with pytest.raises(SpecParseError) as err:
        specfile.parse_code_document(text)
    assert err.value.line_no == 4


def test_parse_rejects_wrong_length():
    with pytest.raises(SpecParseError):
        specfile.parse_code_document("p 3\nn 2\nk 1\nstab 011|000\n")


def test_parse_rejects_unknown_directive():
    with pytest.raises(SpecParseError):
        specfile.parse_code_document("p 3\nn 2\nk 1\nbogus 01|00\n")


def test_parse_rejects_missing_header():
    with pytest.raises(SpecParseError):
        specfile.parse_code_document("n 2\nk 1\nstab 01|00\n")


def test_parse_rejects_non_self_orthogonal():
    text = "p 3\nn 1\nk 0\nstab 1|1\n"  # <(1|1),(1|1)> = 0, single row fine; use two rows
    text = "p 3\nn 2\nk 0\nstab 10|00\nstab 00|10\n"  # <x1,z1-ish> != 0
    with pytest.raises(ValidationError):
        specfile.parse_code_document(text)


def test_parse_rejects_k_mismatch():
    text = "p 3\nn 6\nk 1\n" + "".join(
        f"stab {specfile.format_row(h, 6, 3)}\n" for h in H_ROWS
    )
    with pytest.raises(ValidationError):
        specfile.parse_code_document(text)


def test_format_row_round_trip():
    for row_vec in H_ROWS + Z_ROWS + X_ROWS:
        text = specfile.format_row(row_vec, 6, 3)
        parsed = specfile.parse_row(text, 6, 3, 1)
        assert np.array_equal(parsed, row_vec)


def test_load_code_from_file(tmp_path):
    path = tmp_path / "code.qss"
    path.write_text(SIX_SHARE_QUTRIT_DOCUMENT, encoding="utf-8")
    with pytest.warns(UserWarning):
        code = specfile.load_code(path)
    assert code.n == 6


# int() takes each of these; the format takes ASCII decimal digits only
_NON_DECIMAL = ("+1", "0_1", "\u0661", "\uff11")  # the last two: Arabic-Indic and fullwidth 1


@pytest.mark.parametrize("token", _NON_DECIMAL)
@pytest.mark.parametrize(
    "template, line_no, message",
    [
        ("p {}\nn 2\nk 1\nstab 01|00\n", 1, "'p' needs an integer"),
        ("p 3\nn {}\nk 1\nstab 01|00\n", 2, "'n' needs an integer"),
        ("p 3\nn 2\nk {}\nstab 01|00\n", 3, "'k' needs an integer"),
        ("p 3\nn 2\nk 1\nstab 0 {} | 0 0\n", 4, "row entries must be integers"),
        ("p 3\nn 2\nk 1\nstab 0{}|00\n", 4, "row entries must be integers"),
    ],
    ids=["p", "n", "k", "spaced-row-entry", "packed-row-entry"],
)
def test_parse_rejects_integers_not_written_in_ascii_decimal(template, line_no, message, token):
    with pytest.raises(SpecParseError) as err:
        specfile.parse_code_document(template.format(token))
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


def _per_row(entries, n, p):
    """Oracle for specfile.parse_rows: one parse_row call per row."""
    return np.array([specfile.parse_row(text, n, p, line_no) for line_no, text in entries], dtype=np.int64)


def _forbid_per_row(*_args):
    raise AssertionError("packed rows are read in one pass")


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_one_op_parse_equals_per_row_parse(monkeypatch, p):
    rng = np.random.default_rng(p)
    for n in (2, 5, 9):
        for count in (1, 2, 7):
            rows = rng.integers(0, p, size=(count, 2 * n))
            if p <= 7:
                entries = [(i + 4, specfile.format_row(row, n, p)) for i, row in enumerate(rows)]
                expected = _per_row(entries, n, p)
                with monkeypatch.context() as patch:
                    patch.setattr(specfile, "parse_row", _forbid_per_row)
                    got = specfile.parse_rows(entries, n, p)
                assert got.dtype == np.int64 and np.array_equal(got, expected) and np.array_equal(got, rows)
            # spaced rows, and every row at p > 7, keep the per-token path
            spaced = [(i + 4, " ".join(map(str, row[:n])) + " | " + " ".join(map(str, row[n:])))
                      for i, row in enumerate(rows)]
            assert np.array_equal(specfile.parse_rows(spaced, n, p), rows)


@pytest.mark.parametrize("p", (11, 13))
def test_packed_rows_above_p_7_keep_the_per_row_error(p):
    with pytest.raises(SpecParseError) as err:
        specfile.parse_rows([(4, "01|10"), (5, "10|01")], 2, p)
    assert str(err.value) == "line 4: packed digits only supported for p <= 7"


def _packed_lines(p: int, logical_first: bool = False) -> list[str]:
    n, k = 5, 2
    code = symplectic.random_self_orthogonal_code(p, n, k, 7)
    keyed = [
        ("stab", code.stabilizer),
        ("selfdual", code.self_dual[n - k :]),
        ("logicalx", code.logical_x),
        ("logicalz", code.logical_z),
    ]
    if logical_first:
        keyed.reverse()
    lines = [f"p {p}", f"n {n}", "# a comment line", f"k {k}"]
    for key, rows in keyed:
        lines.extend(f"{key} {specfile.format_row(row, n, p)}" for row in rows)
    return lines


def _spec_error(monkeypatch, lines, one_pass: bool) -> SpecParseError:
    with monkeypatch.context() as patch:
        if not one_pass:
            patch.setattr(specfile, "parse_rows", _per_row)
        with pytest.raises(SpecParseError) as err:
            specfile.parse_code_document("\n".join(lines) + "\n")
    return err.value


# Each takes a packed row "a|b" with n = 5 and breaks it.
_CORRUPTIONS = {
    "digit-p": lambda row, p: row[:6] + str(p) + row[7:],
    "digit-9": lambda row, p: row[:3] + "9" + row[4:],
    "short-left": lambda row, p: row[1:],
    "short-right": lambda row, p: row[:-1],
    "long-left": lambda row, p: "0" + row,
    "long-right": lambda row, p: row + "0",
    "plus": lambda row, p: "+" + row[1:],
    "underscore": lambda row, p: row[:7] + "_" + row[8:],
    "arabic-indic-4": lambda row, p: row[:2] + "٤" + row[3:],
    "fullwidth-1": lambda row, p: row[:9] + "１" + row[10:],
    "space-in-half": lambda row, p: row[:2] + " " + row[2:],
    "two-bars": lambda row, p: row[:1] + "|" + row[2:],
    "bar-moved": lambda row, p: row[:4] + "|" + row[4] + row[6:],
}


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_one_op_parse_names_the_per_row_error(monkeypatch, p, corruption):
    lines = _packed_lines(p)
    # the second stab row, or a logicalx row after good stab rows
    for key, index in (("stab", 1), ("logicalx", 1)):
        bad = list(lines)
        line = [i for i, text in enumerate(lines) if text.startswith(key + " ")][index]
        row = bad[line].split(" ", 1)[1]
        bad[line] = f"{key} {_CORRUPTIONS[corruption](row, p)}"
        got = _spec_error(monkeypatch, bad, one_pass=True)
        expected = _spec_error(monkeypatch, bad, one_pass=False)
        assert (got.line_no, str(got)) == (expected.line_no, str(expected))
        assert got.line_no == line + 1
    if corruption == "digit-p":
        assert str(got) == f"line {line + 1}: digit outside 0..{p - 1}"


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_one_op_parse_names_the_first_bad_key_in_key_order(monkeypatch, p):
    # logicalz rows come first in the file, but stab rows are read first
    lines = _packed_lines(p, logical_first=True)
    z_line = next(i for i, text in enumerate(lines) if text.startswith("logicalz "))
    stab_line = max(i for i, text in enumerate(lines) if text.startswith("stab "))
    lines[z_line] = lines[z_line][:-1] + "9"
    lines[stab_line] += "0"
    got = _spec_error(monkeypatch, lines, one_pass=True)
    expected = _spec_error(monkeypatch, lines, one_pass=False)
    assert (got.line_no, str(got)) == (expected.line_no, str(expected))
    assert str(got) == f"line {stab_line + 1}: expected 5 digits on each side of '|'"


def _listing_every_self_dual_row(text: str) -> str:
    """The document with its stabilizer rows also listed first under
    'selfdual', so that the self-dual rows are given in full."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("selfdual"))
    copies = ["selfdual" + line[len("stab"):] for line in lines if line.startswith("stab")]
    return "\n".join(lines[:first] + copies + lines[first:]) + "\n"


@pytest.mark.parametrize("rows", ("extension", "full"))
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("stab 000011|211002", "stab 100202|020112", "stabilizer rows are linearly dependent"),
        ("stab 100202|020112", "stab 100000|000000", "stabilizer rows 1 and 3 have symplectic product 2"),
        ("selfdual 000001|221020", "selfdual 000100|122000", "self-dual space must have dimension n"),
        ("logicalz 000002|112010", "logicalz 100000|000000", "logical z 2 outside the self-dual space"),
        (
            "logicalx 000000|100021",
            "logicalx 100202|121212",
            "logical pairing is not the identity matrix: [[1, 0], [1, 0]]",
        ),
    ],
    ids=["dependent-stabilizer", "not-self-orthogonal", "self-dual-rank-n-1", "z-outside-cm", "pairing"],
)
def test_first_error_of_a_bad_document_is_pinned(rows, old, new, message):
    # one elimination of the self-dual rows serves a load; each defect is
    # still named by the message a separate reduction of the stabilizer gave
    text = BUNDLED_CODES[0].read_text(encoding="utf-8")
    assert old in text
    text = text.replace(old, new)
    if rows == "full":
        text = _listing_every_self_dual_row(text)
    with pytest.raises(ValidationError) as caught:
        specfile.parse_code_document(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("rows", ("extension", "full"))
@pytest.mark.parametrize(
    "replacements, message",
    [
        # z1 -> z1 + z2 + x2 pairs with x2 and fails to commute with z2; a z
        # row that does so lies outside the self-dual space, named first
        ([("logicalz 000200|211000", "logicalz 000202|120001")], "logical z 1 outside the self-dual space"),
        # x2 -> x2 + x1 + z1 pairs with z1 and fails to commute with x1
        ([("logicalx 000000|100021", "logicalx 000200|112121")], "logical pairing is not the identity matrix: [[1, 0], [1, 1]]"),
        # X on share 1 as x1 and as z2: outside the dual and outside Cm
        (
            [("logicalx 000000|101100", "logicalx 100000|000000"), ("logicalz 000002|112010", "logicalz 100000|000000")],
            "logical x 1 outside the dual space",
        ),
    ],
    ids=["pairing+z-z", "pairing+x-x", "x-outside-dual+z-outside-cm"],
)
def test_first_of_two_defects_is_pinned(rows, replacements, message):
    text = BUNDLED_CODES[0].read_text(encoding="utf-8")
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    if rows == "full":
        text = _listing_every_self_dual_row(text)
    with pytest.raises(ValidationError) as caught:
        specfile.parse_code_document(text)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "rows, message",
    [
        ("k 3\nstab 11|00\n", "need 0 <= k <= n, got k=3, n=2"),
        ("k 1\nstab 11|00\nlogicalx 10|00\nlogicalx 01|00\n", "logical_x must be 1 rows of length 4, got (2, 4)"),
        ("k 1\nstab 11|00\nlogicalz 00|11\nlogicalz 11|00\n", "logical_z must be 1 rows of length 4, got (2, 4)"),
        (
            "k 1\nstab 11|00\nselfdual 00|11\nselfdual 11|00\nselfdual 10|10\n",
            "self_dual must be 2 rows of length 4, got (3, 4)",
        ),
        ("k 0\nstab 11|00\nstab 00|11\nlogicalx 10|00\n", "logical_x must be 0 rows of length 4, got (1, 4)"),
        ("k 1\nstab 11|00\nselfdual 11|00\n", "self-dual space must have dimension n"),
    ],
    ids=["k-above-n", "two-x-rows", "two-z-rows", "three-self-dual-rows", "x-row-at-k-0", "self-dual-rank-n-1"],
)
def test_a_malformed_part_is_named_before_anything_is_derived_from_it(rows, message):
    with pytest.raises(ValidationError) as caught:
        specfile.parse_code_document("p 2\nn 2\n" + rows)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "rows, message",
    [
        # X1X2 is outside span(Z1, Z2): named before any logical row is derived
        ("stab 11|00\nselfdual 00|10\nselfdual 00|01\n", "stabilizer row 1 outside the self-dual space"),
        ("stab 11|00\nselfdual 10|00\nselfdual 00|10\n", "self-dual rows are not mutually orthogonal"),
        # z = X1X2 is the stabilizer row again, so [stab; z] has rank 1
        ("stab 11|00\nlogicalz 11|00\n", "self-dual space must have dimension n"),
    ],
    ids=["stabilizer-outside-self-dual", "self-dual-not-orthogonal", "z-inside-the-stabilizer"],
)
def test_a_defect_the_derivation_would_hide_is_named(rows, message):
    with pytest.raises(ValidationError) as caught:
        specfile.parse_code_document("p 3\nn 2\nk 1\n" + rows)
    assert str(caught.value) == message


@pytest.mark.parametrize("line, repeat", [("p 3", "p 2"), ("p 3", "p 3"), ("n 6", "n 7"), ("k 2", "k 1")])
@pytest.mark.parametrize("first", [False, True])
def test_a_repeated_header_directive_is_named_on_its_second_line(line, repeat, first):
    # "p 2" before or after "p 3" once loaded as the last of them, or failed
    # on a row digit; either way the second line is named
    lines = BUNDLED_CODES[0].read_text(encoding="utf-8").splitlines()
    at = lines.index(line) + (0 if first else 1)
    lines.insert(at, repeat)
    with pytest.raises(SpecParseError, match=rf"^line {at + 2 if first else at + 1}: repeated '{line[0]}' directive$"):
        specfile.parse_code_document("\n".join(lines) + "\n")


def test_a_spec_with_no_shares_is_rejected_at_its_n_line():
    with pytest.raises(SpecParseError, match=r"^line 2: 'n' must be at least 1$"):
        specfile.parse_code_document("p 3\nn 0\nk 0\n")


def test_one_share_rows_above_p_7_are_read_whitespace_separated():
    # "10 | 0" has one entry a side and no inner space; format_row writes it so
    code = specfile.parse_code_document("p 11\nn 1\nk 1\nlogicalx 10 | 0\nlogicalz 0 | 10\n")
    assert code.logical_x.tolist() == [[10, 0]] and code.logical_z.tolist() == [[0, 10]]
    assert [specfile.format_row(row, 1, 11) for row in (code.logical_x[0], code.logical_z[0])] == ["10 | 0", "0 | 10"]
    with pytest.raises(SpecParseError, match=r"^line 4: packed digits only supported for p <= 7$"):
        specfile.parse_code_document("p 11\nn 2\nk 2\nlogicalx 10|00\n")


LOADER_DEFECTS = (
    None, "dependent-stabilizer", "non-commuting-stabilizers", "self-dual-rank-n-1", "z-outside-cm",
    "x-outside-dual", "pairing", "diagonal-pairing", "non-commuting-logicals", "dependent-logicals",
    "x-inside-cm", "z-inside-c",
)


def _written_row(row, n: int, packed: bool) -> str:
    a, b = (" ".join(map(str, half)) for half in (row[:n], row[n:]))
    return f"{a.replace(' ', '')}|{b.replace(' ', '')}" if packed else f"{a} | {b}"


def _inject(defect, rng, p, stab, listed, extension, lx, lz):
    """Break the rows in place as defect says: stab, the listed self-dual rows
    (after the stabilizer rows when extension), lx and lz."""
    d, k = len(stab), len(lx)
    if defect == "dependent-stabilizer" and d:
        i = rng.integers(d)
        stab[i] = rng.integers(0, p, d - 1) @ np.delete(stab, i, axis=0) % p
    elif defect == "non-commuting-stabilizers" and d:
        i = rng.integers(d)
        stab[i] = (stab[i] + rng.integers(0, p, stab.shape[1])) % p
    elif defect == "self-dual-rank-n-1":
        j = rng.integers(len(listed))
        others = np.vstack([stab, np.delete(listed, j, axis=0)]) if extension else np.delete(listed, j, axis=0)
        listed[j] = rng.integers(0, p, len(others)) @ others % p
    elif defect in ("z-outside-cm", "x-outside-dual"):
        rows = lz if defect == "z-outside-cm" else lx
        i = rng.integers(k)
        rows[i] = (rows[i] + rng.integers(0, p, rows.shape[1])) % p
    elif defect == "pairing":
        i, j = rng.choice(k, size=2, replace=False) if k > 1 else (0, 0)
        # x_i + c x_j pairs with z_j; with one pair, x_1 = 0 pairs with nothing
        lx[i] = (lx[i] + rng.integers(1, p) * lx[j]) % p if k > 1 else 0
    elif defect == "diagonal-pairing" and p > 2:
        lz[:] = lz * rng.integers(1, p, size=(k, 1)) % p
    elif defect == "non-commuting-logicals" and k > 1:
        i, j = rng.choice(k, size=2, replace=False)
        rows, other = (lx, lz) if rng.integers(2) else (lz, lx)
        rows[i] = (rows[i] + rng.integers(1, p) * other[j]) % p
    elif defect == "dependent-logicals":
        # a combination of the part's other rows and the stabilizer rows
        rows, i = (lx, lz)[rng.integers(2)], rng.integers(k)
        rows[i] = (rng.integers(0, p, k - 1) @ np.delete(rows, i, axis=0) + rng.integers(0, p, d) @ stab) % p
    elif defect == "x-inside-cm":
        cm = np.vstack([stab, listed]) if extension else listed
        lx[rng.integers(k)] = rng.integers(0, p, len(cm)) @ cm % p
    elif defect == "z-inside-c":
        lz[rng.integers(k)] = rng.integers(0, p, d) @ stab % p


@settings(max_examples=300)
@given(
    st.sampled_from(linalg.SUPPORTED_PRIMES), st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**16),
    st.booleans(), st.booleans(), st.sampled_from(LOADER_DEFECTS), st.integers(0, 2**32 - 1),
    st.sets(st.sampled_from(("selfdual", "logicalx", "logicalz"))),
)
def test_loader_accepts_exactly_the_documents_an_independent_oracle_finds_sound(
    p, n, k, seed, packed, extension, defect, rng_seed, omitted
):
    # the stabilizer rows and any subset of the other parts, packed (p <= 7)
    # or whitespace-separated, the self-dual rows listed in full or as the
    # extension of the stabilizer rows, with at most one defect: the one-pass
    # read, the one check body and the derivations against row loop ranks
    # and one symplectic product per pair. Every rejection is named by a
    # ValidationError, never by the solver of a derivation.
    k, packed = min(k, n), packed and p <= 7
    code = symplectic.random_self_orthogonal_code(p, n, k, seed)
    stab, lx, lz = code.stabilizer.copy(), code.logical_x.copy(), code.logical_z.copy()
    listed = code.self_dual[n - k :].copy() if extension else code.self_dual.copy()
    _inject(defect, np.random.default_rng(rng_seed), p, stab, listed, extension, lx, lz)
    cm = np.vstack([stab, listed]) if extension else listed
    lines = [f"p {p}", f"n {n}", f"k {k}"]
    for key, rows in (("stab", stab), ("selfdual", listed), ("logicalx", lx), ("logicalz", lz)):
        lines += [f"{key} {_written_row(row, n, packed)}" for row in rows] if key not in omitted else []
    parts = {"selfdual": cm, "logicalx": lx, "logicalz": lz}
    found, diag = oracles.code_defect(p, stab, *(None if key in omitted else rows for key, rows in parts.items()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = specfile.parse_code_document("\n".join(lines) + "\n")
        except ValidationError:
            code = None
    assert (code is None) == (found is not None), found
    if code is None:
        return
    inverse = np.array([pow(int(c), -1, p) for c in diag], dtype=np.int64)
    parts["logicalz"] = lz * inverse[:, None] % p
    assert np.array_equal(code.stabilizer, stab)
    for (key, rows), part in zip(parts.items(), ("self_dual", "logical_x", "logical_z")):
        assert key in omitted or np.array_equal(getattr(code, part), rows), part
    symplectic.validate_code(code)
    shown = np.array2string(diag).replace("\n ", " ")
    rescaled = [f"logical pairing was diag({shown}); rescaled z rows to normalize it"] if (diag != 1).any() else []
    assert [str(w.message) for w in caught] == rescaled
