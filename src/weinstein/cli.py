"""Command line interface.

Subcommands: transform, cwt, localize, verify, convergence.  All accept
--config PATH (key=value file) and repeatable --set key=value overrides.
Outputs are CSV files under the configured output directory.

Inputs come from ``verify.config_stack`` and ``verify.config_windows``.
transform reads window_phi (default: the Gaussian) on the main grid and
rejects a window_psi; cwt and verify read both windows on the main grid;
localize reads both windows and the symbol on the operator grid (op_n,
op_m, op_scales); convergence runs the default windows on the main grid
doubled per level, on self-dual boxes, and rejects window and radial_extent
settings.

Exit codes: 0 all checks pass, 1 check failure, 2 configuration error
(including a setting the command cannot take, or a CSV input that cannot
be read, does not fit the grid or holds non-finite values, all before any
output is written), 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def _load_config(args):
    from .config import RunConfig, apply_overrides, parse_config
    path = getattr(args, "config", None)
    cfg = parse_config(Path(path).read_text()) if path else RunConfig()
    return apply_overrides(cfg, getattr(args, "set", None) or [])


def _out_dir(cfg) -> Path:
    p = Path(cfg.out_dir)
    p.mkdir(parents=True, exist_ok=True)
    (p / "fields").mkdir(exist_ok=True)
    return p


def cmd_transform(cfg) -> int:
    from .config import ConfigError
    from .probes import gaussian
    from .report import field_to_csv
    from .transform import forward, inverse
    from .verify import config_stack, config_windows
    if cfg.window_psi != "default":
        raise ConfigError("transform reads one input field, window_phi; window_psi "
                          f"must be 'default', got {cfg.window_psi!r}")
    st = config_stack(cfg, cfg.alpha)
    phi, _ = config_windows(cfg, st.grid)
    f = gaussian(st.grid) if phi is None else phi.field
    Ff = forward(st.plan, f)
    back = inverse(st.plan, Ff)
    out = _out_dir(cfg)
    (out / "fields" / "input.csv").write_text(field_to_csv(st.grid, f.values))
    (out / "fields" / "transform.csv").write_text(field_to_csv(st.grid, Ff.values))
    (out / "fields" / "roundtrip.csv").write_text(field_to_csv(st.grid, back.values))
    print(f"transform written to {out / 'fields'}")
    return 0


def cmd_cwt(cfg) -> int:
    from .probes import gaussian
    from .report import scale_field_to_csv
    from .verify import config_stack, config_windows
    from .wavelets import build_pair, cwt
    st = config_stack(cfg, cfg.alpha)
    pair = build_pair(st.plan, st.scale_grid, st.kernel, *config_windows(cfg, st.grid))
    f = gaussian(st.grid)
    W = cwt(pair, f, "phi")
    out = _out_dir(cfg)
    (out / "fields" / "cwt.csv").write_text(scale_field_to_csv(st.scale_grid, W.values))
    print(f"wavelet transform written to {out / 'fields' / 'cwt.csv'}")
    return 0


def cmd_localize(cfg) -> int:
    from . import localization as loc
    from .report import matrix_to_csv
    from .verify import TOL, _symbols, config_stack, config_windows
    from .wavelets import build_pair
    st = config_stack(cfg, cfg.alpha, operators=True)
    pair = build_pair(st.plan, st.scale_grid, st.kernel, *config_windows(cfg, st.grid))
    if cfg.symbol.startswith("csv:"):
        from .report import parse_scale_field_csv, read_csv_input
        vals = parse_scale_field_csv(st.scale_grid, read_csv_input(cfg.symbol))
        sym = loc.SymbolField(st.scale_grid, vals)
    else:
        symbols = _symbols(st.scale_grid)
        if cfg.symbol not in symbols:
            print(f"unknown symbol class {cfg.symbol!r}; choices: "
                  f"{sorted(symbols)} or csv:<path>", file=sys.stderr)
            return 2
        sym = symbols[cfg.symbol]
    L = loc.assemble(pair, sym)
    print(f"operator structures: {', '.join(L.structures) or 'none'}")
    syn, ana = (f"{len(b)}/{st.grid.n_cart}" for b in L.band)
    print(f"lattice band: {syn} synthesis bins, {ana} analysis bins")
    out = _out_dir(cfg)
    (out / "operator.csv").write_text(matrix_to_csv(L.matrix))
    # bound report: one row per (theorem, p) with the dominance ratio
    from .report import fmt
    lines = ["theorem_id,p,measured,bound,ratio"]
    ok = True
    for p in (1, 2, np.inf):
        measured = loc.measured_norm(L, p)
        _, _, every = loc.theoretical_bound(pair, sym, p)
        for name, val in sorted(every.items()):
            ratio = measured / val if val > 0 else np.inf
            ok = ok and ratio <= 1.0 + TOL["bound_slack"]
            lines.append(f"{name},{p},{fmt(measured)},{fmt(val)},{fmt(ratio)}")
    (out / "bounds.csv").write_text("\n".join(lines) + "\n")
    print(f"operator written to {out / 'operator.csv'}; bound report to {out / 'bounds.csv'}")
    return 0 if ok else 1


def _write_rows(cfg, rows, name: str) -> int:
    """Write ``rows`` to ``name`` in the output directory, print each verdict; 0 iff all pass."""
    from .report import rows_to_csv
    path = _out_dir(cfg) / name
    path.write_text(rows_to_csv(rows))
    n_fail = sum(1 for r in rows if not r.passed)
    for r in rows:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.check_id}")
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed; report at {path}")
    return 0 if n_fail == 0 else 1


def cmd_verify(cfg) -> int:
    from .verify import run_verify
    return _write_rows(cfg, run_verify(cfg), "report.csv")


def cmd_convergence(cfg, levels: int) -> int:
    from .convergence import run_convergence
    return _write_rows(cfg, run_convergence(cfg, levels), "convergence.csv")


def main(argv=None) -> int:
    # SUPPRESS keeps subparser defaults from clobbering values parsed before
    # the subcommand name (flags are accepted in either position)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file")
    common.add_argument("--set", action="append", default=argparse.SUPPRESS,
                        help="override a config key (repeatable): --set key=value")
    ap = argparse.ArgumentParser(
        prog="weinstein", parents=[common],
        description="Weinstein harmonic analysis: transforms, wavelets and "
                    "localization operators on discretized grids")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("transform", parents=[common],
                   help="forward/inverse transform of a field")
    sub.add_parser("cwt", parents=[common],
                   help="continuous wavelet transform of the Gaussian")
    sub.add_parser("localize", parents=[common],
                   help="assemble a localization operator and bound report")
    sub.add_parser("verify", parents=[common],
                   help="run the full verification battery")
    pc = sub.add_parser("convergence", parents=[common],
                        help="identity errors under grid doubling")
    pc.add_argument("--levels", type=int, default=2)
    args = ap.parse_args(argv)

    from .config import ConfigError
    try:
        cfg = _load_config(args)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        if args.command == "transform":
            return cmd_transform(cfg)
        if args.command == "cwt":
            return cmd_cwt(cfg)
        if args.command == "localize":
            return cmd_localize(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "convergence":
            return cmd_convergence(cfg, args.levels)
    except ConfigError as e:  # input files the config names (CSV windows, symbols)
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - map any runtime failure to exit 3
        print(f"runtime error: {e}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
