"""The one CSV writer and row format behind every data file the package writes."""

from __future__ import annotations

from typing import Iterable, Sequence


def write_csv(destination, header: str, rows: Iterable[Sequence]) -> None:
    """Write a header line and one line per row of values to a path or text file object.

    A str value is written as it is and any other value (a Python or
    numpy number) as f"{x:.12g}", so every data file states its numbers
    to 12 significant digits.  A path is opened and closed here; a file
    object is left open for its owner.
    """
    own = isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__")
    handle = open(destination, "w", encoding="utf-8") if own else destination
    try:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(x if isinstance(x, str) else f"{x:.12g}" for x in row) + "\n")
    finally:
        if own:
            handle.close()
