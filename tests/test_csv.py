"""The one row format: write_csv formats every value, the writers pass values."""

import dataclasses
import io
from pathlib import Path

import numpy as np

import todalab
from todalab._csv import write_csv
from todalab.cli import IDENTITY_CSV_HEADER, IdentityRow
from todalab.minimizer import REGION_CSV_HEADER, SweepRow


def test_strings_pass_and_numbers_take_12_significant_digits(tmp_path):
    values = (np.pi, np.float64(np.e), -0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 3)
    expected = "3.14159265359,2.71828182846,-0,4.94065645841e-324,1e+300,nan,inf,-inf,3"
    rows = [("energy", "Bounded"), values]
    path = tmp_path / "rows.csv"
    write_csv(path, "h", rows)
    assert path.read_text() == f"h\nenergy,Bounded\n{expected}\n"
    buf = io.StringIO()
    write_csv(buf, "h", rows)
    assert not buf.closed
    assert buf.getvalue() == path.read_text()


def test_headers_name_the_row_fields_in_order():
    for header, row in ((REGION_CSV_HEADER, SweepRow), (IDENTITY_CSV_HEADER, IdentityRow)):
        assert header.split(",") == [field.name for field in dataclasses.fields(row)]


def test_the_row_format_is_written_in_one_module():
    package = Path(todalab.__file__).parent
    spelled = sorted(p.name for p in package.glob("*.py") if ".12g" in p.read_text())
    assert spelled == ["_csv.py"]
