import warnings
from pathlib import Path

import numpy as np
import pytest

from qsshare import specfile, symplectic
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


def test_parse_minimal_document_completes_missing_rows():
    text = "p 3\nn 6\nk 2\n" + "".join(
        f"stab {specfile.format_row(h, 6, 3)}\n" for h in H_ROWS
    )
    code = specfile.parse_code_document(text)
    symplectic.validate_code(code)
    assert code.k == 2


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
