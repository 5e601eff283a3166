"""The output writer: every csv, markdown, json and text result copreli prints.

The output rules live here and nowhere else:

* a csv cell is ``str`` of its python value, with arrays read through
  ``tolist()``, so a float prints as its ``repr``; a text cell prints
  ``None`` as empty, a bool as ``true``/``false``, and a comma as ``;``;
* a markdown cell prints a float as ``:.6g``;
* json writes NaN as ``null``;
* a run's provenance is a ``# key=value`` header above csv, markdown and
  text, and a ``"provenance"`` key in json.

Tables are handed over column by column: ``header`` names the columns and
``columns`` holds one sequence (array or list) per name.  Every text ends
with a newline.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["to_csv", "to_markdown", "to_json", "to_text"]


def _text_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    return str(x).replace(",", ";")


def to_text(body: str, provenance: dict | None = None) -> str:
    """``body`` under the provenance header."""
    return "".join(f"# {k}={v}\n" for k, v in (provenance or {}).items()) + body


def to_csv(header, columns, provenance: dict | None = None) -> str:
    """A csv table: one header line, then one line per row."""
    cells = (map(str, c.tolist()) if isinstance(c, np.ndarray) else map(_text_cell, c)
             for c in columns)
    # the empty last line ends the text with a newline without copying it
    return to_text("\n".join([",".join(header), *map(",".join, zip(*cells)), ""]), provenance)


def to_markdown(header, columns, provenance: dict | None = None, footer: str = "") -> str:
    """A markdown table, then ``footer``."""
    cells = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns)
    rows = ([f"{x:.6g}" if isinstance(x, float) else str(x) for x in row] for row in zip(*cells))
    lines = "".join(f"| {' | '.join(row)} |\n"
                    for row in (header, ["---"] * len(header), *rows))
    return to_text(lines + footer, provenance)


def _plain(value):
    """``value`` with arrays and tuples as lists and every NaN as None."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return [None if x != x else x for x in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return None if isinstance(value, float) and value != value else value


def to_json(record: dict, provenance: dict | None = None, *, provenance_first: bool = False,
            indent: int | None = 2) -> str:
    """``record`` as json, with the provenance as its last key (or its first)."""
    if provenance is not None:
        record = ({"provenance": provenance, **record} if provenance_first
                  else {**record, "provenance": provenance})
    return json.dumps(_plain(record), indent=indent) + "\n"
