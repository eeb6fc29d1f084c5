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


def field_to_csv(grid, values) -> str:
    """Field CSV: columns x_1..x_{d+1}, re, im."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    d = grid.d
    w.writerow([f"x_{i + 1}" for i in range(d + 1)] + ["re", "im"])
    pts = grid.nodes()
    flat = values.reshape(-1)
    for p, v in zip(pts, flat):
        w.writerow([fmt(c) for c in p] + [fmt(v.real), fmt(v.imag)])
    return buf.getvalue()


def scale_field_to_csv(scale_grid, values) -> str:
    """Scale-space field CSV: columns a, x_1..x_{d+1}, re, im."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    d = scale_grid.base.d
    w.writerow(["a"] + [f"x_{i + 1}" for i in range(d + 1)] + ["re", "im"])
    pts = scale_grid.base.nodes()
    for j, a in enumerate(scale_grid.scales):
        flat = values[j].reshape(-1)
        for p, v in zip(pts, flat):
            w.writerow([fmt(a)] + [fmt(c) for c in p] + [fmt(v.real), fmt(v.imag)])
    return buf.getvalue()


def matrix_to_csv(matrix) -> str:
    """Operator CSV: columns row, col, re, im."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["row", "col", "re", "im"])
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            v = matrix[i, j]
            w.writerow([i, j, fmt(v.real), fmt(v.imag)])
    return buf.getvalue()


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
    import numpy as np
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
    coords = [f"x_{i + 1}" for i in range(grid.d + 1)]
    return _parse_csv(text, coords, grid.nodes(), "field").reshape(grid.shape)


def parse_scale_field_csv(scale_grid, text: str):
    """Read a scale-space CSV back onto a scale grid (scale-major row order)."""
    import numpy as np
    base = scale_grid.base
    coords = ["a"] + [f"x_{i + 1}" for i in range(base.d + 1)]
    nodes = base.nodes()
    expected = np.column_stack([np.repeat(scale_grid.scales, len(nodes)),
                                np.tile(nodes, (scale_grid.scale_points, 1))])
    return _parse_csv(text, coords, expected, "scale").reshape(scale_grid.shape)
