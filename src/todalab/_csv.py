"""The one CSV writer behind every data file the package writes."""

from __future__ import annotations

from typing import Iterable


def write_csv(destination, header: str, lines: Iterable[str]) -> None:
    """Write a header line and then each row line to a path or text file object.

    A path is opened and closed here; a file object is left open for its
    owner.
    """
    own = isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__")
    handle = open(destination, "w", encoding="utf-8") if own else destination
    try:
        handle.write(header + "\n")
        for line in lines:
            handle.write(line + "\n")
    finally:
        if own:
            handle.close()
