"""Check rows and CSV report emission.

Every verification produces rows (check_id, statement, lhs, rhs,
tolerance, passed).  Floats are printed with 17 significant digits so
reports are bit-reproducible audits.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return f"{float(x):.17g}"


@dataclass
class CheckRow:
    check_id: str
    statement: str
    lhs: float | complex
    rhs: float | complex
    tolerance: float
    passed: bool


def make_row(check_id: str, statement: str, lhs, rhs, tolerance: float,
             passed: bool | None = None, mode: str = "rel") -> CheckRow:
    """Build a row; when ``passed`` is None it is derived from the mode.

    mode 'rel': |lhs - rhs| <= tol * max(|rhs|, tiny)
    mode 'abs': |lhs - rhs| <= tol
    mode 'le' : lhs <= rhs * (1 + tol)
    """
    if passed is None:
        gap = abs(lhs - rhs)
        if mode == "rel":
            passed = gap <= tolerance * max(abs(rhs), 1e-300)
        elif mode == "abs":
            passed = gap <= tolerance
        elif mode == "le":
            passed = abs(lhs) <= abs(rhs) * (1.0 + tolerance) + 1e-300
        else:
            raise ValueError(f"unknown mode {mode}")
    return CheckRow(check_id, statement, lhs, rhs, tolerance, bool(passed))


def rows_to_csv(rows: list[CheckRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["check_id", "statement", "lhs", "rhs", "tolerance", "pass"])
    for r in rows:
        w.writerow([r.check_id, r.statement, fmt(r.lhs), fmt(r.rhs),
                    fmt(r.tolerance), "1" if r.passed else "0"])
    return buf.getvalue()


def _table_csv(coord_names: list[str], coords, values, what: str) -> str:
    """CSV of one row per value: its coordinates ``coords`` (rows, k), then re, im.

    Raises ValueError, naming the ``what`` file, if a value is not finite.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} CSV not written: it holds non-finite values")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(coord_names + ["re", "im"])
    for c, v in zip(coords.tolist(), values.reshape(-1).tolist()):
        w.writerow([fmt(x) for x in c] + [fmt(v.real), fmt(v.imag)])
    return buf.getvalue()


def _node_names(d: int) -> list[str]:
    return [f"x_{i + 1}" for i in range(d + 1)]


def _scale_rows(scale_grid) -> np.ndarray:
    """(J n^d m, d + 2) rows (a, x) of a scale-space CSV: scale-major, grid.nodes() order."""
    nodes = scale_grid.base.nodes()
    return np.column_stack([np.repeat(scale_grid.scales, len(nodes)),
                            np.tile(nodes, (scale_grid.scale_points, 1))])


def field_to_csv(grid, values) -> str:
    """Field CSV: columns x_1..x_{d+1}, re, im."""
    return _table_csv(_node_names(grid.d), grid.nodes(), values, "field")


def scale_field_to_csv(scale_grid, values) -> str:
    """Scale-space field CSV: columns a, x_1..x_{d+1}, re, im."""
    return _table_csv(["a"] + _node_names(scale_grid.base.d), _scale_rows(scale_grid), values,
                      "scale-space field")


def matrix_to_csv(matrix) -> str:
    """Operator CSV: columns row, col, re, im."""
    return _table_csv(["row", "col"], np.indices(matrix.shape).reshape(2, -1).T, matrix,
                      "operator")


def read_csv_input(selector: str) -> str:
    """Text of the file a ``csv:<path>`` config value names (ConfigError if unreadable)."""
    from .config import ConfigError
    try:
        return Path(selector[4:]).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read {selector!r}: {e}") from None


def _parse_csv(text: str, coords: list[str], expected, what: str):
    """Complex values of a CSV whose coordinate columns must match ``expected``.

    ``expected`` is (rows, len(coords)); the files are written with 17
    significant digits, so the coordinates must agree to rounding.  Raises
    ConfigError on a wrong row count, missing column, coordinate mismatch
    (another grid, or another row order) or non-finite value.
    """
    from .config import ConfigError
    rows = list(csv.reader(io.StringIO(text)))
    header, data = (rows[0], rows[1:]) if rows else ([], [])
    if len(data) != len(expected):
        raise ConfigError(f"{what} CSV has {len(data)} rows, expected {len(expected)}")
    names = coords + ["re", "im"]
    missing = [c for c in names if c not in header]
    if missing:
        raise ConfigError(f"{what} CSV lacks columns {missing}")
    cols = [header.index(c) for c in names]
    try:
        table = np.array([[float(r[i]) for i in cols] for r in data])
    except (ValueError, IndexError) as e:
        raise ConfigError(f"{what} CSV has a malformed row: {e}") from None
    at = table[:, :-2]
    off = ~(np.abs(at - expected) <= 1e-12 * np.maximum(np.abs(expected), 1.0))
    if off.any():
        i = int(np.argwhere(off)[0, 0])
        raise ConfigError(f"{what} CSV row {i + 1} holds {at[i].tolist()}, the grid "
                          f"expects {expected[i].tolist()} (another grid or row order)")
    if not np.all(np.isfinite(table[:, -2:])):
        i = int(np.argwhere(~np.isfinite(table[:, -2:]))[0, 0])
        raise ConfigError(f"{what} CSV row {i + 1} holds a non-finite value")
    vals = table[:, -2].astype(np.complex128)
    vals.imag = table[:, -1]
    return vals


def parse_field_csv(grid, text: str):
    """Read a field CSV back onto a grid (rows at grid.nodes(), in that order)."""
    return _parse_csv(text, _node_names(grid.d), grid.nodes(), "field").reshape(grid.shape)


def parse_scale_field_csv(scale_grid, text: str):
    """Read a scale-space CSV back onto a scale grid (scale-major row order)."""
    coords = ["a"] + _node_names(scale_grid.base.d)
    return _parse_csv(text, coords, _scale_rows(scale_grid), "scale").reshape(scale_grid.shape)
