"""End-to-end CLI tests on tiny grids."""

import csv
import io

import pytest

from weinstein.cli import main

TINY = ["--set", "n=16", "--set", "m=16", "--set", "op_n=12", "--set", "op_m=12",
        "--set", "scales=12", "--set", "op_scales=8", "--set", "theta_count=32"]


def run_cli(args, tmp_path, extra=()):
    out = tmp_path / "out"
    return main([*args, *TINY, "--set", f"out_dir={out}", *extra]), out


def test_transform_subcommand(tmp_path, capsys):
    code, out = run_cli(["transform"], tmp_path)
    assert code == 0
    assert (out / "fields" / "transform.csv").exists()
    rows = list(csv.reader(io.StringIO((out / "fields" / "transform.csv").read_text())))
    assert rows[0] == ["x_1", "x_2", "re", "im"]
    assert len(rows) == 1 + 16 * 16


def test_cwt_subcommand(tmp_path):
    code, out = run_cli(["cwt"], tmp_path)
    assert code == 0
    rows = list(csv.reader(io.StringIO((out / "fields" / "cwt.csv").read_text())))
    assert rows[0] == ["a", "x_1", "x_2", "re", "im"]
    assert len(rows) == 1 + 12 * 16 * 16


def test_localize_subcommand(tmp_path):
    code, out = run_cli(["localize"], tmp_path)
    assert code == 0
    assert (out / "operator.csv").exists()
    assert (out / "bounds.csv").exists()


@pytest.mark.parametrize("symbol, structures", [
    ("l1_bump", "real, reflection-even"),
    ("scale_only", "real, reflection-even, x-independent"),
])
def test_localize_reports_operator_structures(tmp_path, capsys, symbol, structures):
    code, _ = run_cli(["localize"], tmp_path, ("--set", f"symbol={symbol}"))
    assert code == 0
    assert f"operator structures: {structures}\n" in capsys.readouterr().out


def test_localize_reports_lattice_band(tmp_path, capsys):
    # the band taper zeroes 3 of the 12 Cartesian frequency rows of both windows
    code, _ = run_cli(["localize"], tmp_path)
    assert code == 0
    assert ("operator structures: real, reflection-even\n"
            "lattice band: 9/12 synthesis bins, 9/12 analysis bins\n") in capsys.readouterr().out


def test_config_error_exit_code(tmp_path):
    code = main(["--set", "alpha=-0.9", "transform"])
    assert code == 2
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("nonsense_key = 1\n")
    assert main(["--config", str(cfgfile), "transform"]) == 2


def test_config_file_loading(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("n = 16\nm = 16\nalpha = 0.0\n")
    out = tmp_path / "res"
    code = main(["--config", str(cfgfile), "--set", f"out_dir={out}", "transform"])
    assert code == 0


def test_verify_small_fails_six_rows_and_is_deterministic(tmp_path):
    args = ["verify", *TINY, "--set", "alphas=0.5", "--set", "n=32", "--set", "m=32",
            "--set", "scales=24"]
    out1 = tmp_path / "a"
    code1 = main([*args, "--set", f"out_dir={out1}"])
    rep1 = (out1 / "report.csv").read_text()
    out2 = tmp_path / "b"
    code2 = main([*args, "--set", f"out_dir={out2}"])
    rep2 = (out2 / "report.csv").read_text()
    assert rep1 == rep2
    rows = list(csv.reader(io.StringIO(rep1)))
    assert rows[0] == ["check_id", "statement", "lhs", "rhs", "tolerance", "pass"]
    assert len(rows) == 1 + 129
    # this small grid fails exactly these rows (ROADMAP item 2, small grids:
    # resolution limit or bug is still open), so verify exits 1 both times
    assert code1 == code2 == 1
    failed = [row[0] for row in rows[1:] if row[5] != "1"]
    assert failed == [f"{c}.alpha0.5" for c in (
        "wav.inversion", "wav.dilate_norm.a2.p1", "wav.dilate_fourier.a2",
        "ex.multiplier_equivalence", "ex.multiplier_constancy", "ex.paracommutator_diag")]
    # every check of the table is emitted, in table order, and no row outside it
    from weinstein.verify import CHECKS
    stems = [".".join(row[0].split(".")[:2]) for row in rows[1:]]
    assert list(dict.fromkeys(stems)) == list(CHECKS)


@pytest.mark.slow
def test_verify_main_alpha_outside_sweep(tmp_path):
    # alpha is not among alphas: the wavelet checks run on a main-grid stack
    # of their own at alpha and the paper's examples on an operator-profile
    # stack of their own at alpha, after the sweep; the other checks run at
    # alphas.  At the default operator profile the run passes
    out = tmp_path / "out"
    code = main(["verify", "--set", "alphas=0.5", "--set", "alpha=1.5",
                 "--set", f"out_dir={out}"])
    assert code == 0
    ids = [row[0] for row in csv.reader(io.StringIO((out / "report.csv").read_text()))]
    assert "translate.mass.alpha0.5" in ids and "wav.inversion.alpha1.5" in ids
    assert not any(i.startswith("wav.") and i.endswith("alpha0.5") for i in ids)
    assert not any(i.startswith("op.") and "alpha1.5" in i for i in ids)
    assert ids[-7:] == [f"ex.{c}.alpha1.5" for c in (
        "multiplier_equivalence", "multiplier_constancy", "paraproduct_lemma",
        "paraproduct_l1", "paraproduct_zero", "paracommutator_weak", "paracommutator_diag")]
    assert not any(i.startswith("ex.") for i in ids[:-7])


def test_verify_flags_non_admissible_window(tmp_path):
    # a plain Gaussian window has nonzero transform at zero frequency: the
    # truncated scale integral depends on the sample frequency, the spread
    # check fails, and verify exits nonzero
    from weinstein.grids import build_base_grid
    from weinstein.probes import gaussian
    from weinstein.report import field_to_csv
    g = build_base_grid(0.5, 1, 16, 16)
    w = gaussian(g)
    wfile = tmp_path / "window.csv"
    wfile.write_text(field_to_csv(g, w.values))
    out = tmp_path / "broken"
    code = main(["verify", *TINY, "--set", "alphas=0.5",
                 "--set", f"window_phi=csv:{wfile}", "--set", f"out_dir={out}"])
    assert code == 1
    report = (out / "report.csv").read_text()
    assert "adm.spread_phi" in report


def test_localize_with_csv_symbol(tmp_path):
    # round trip: export a scale field, feed it back as the symbol
    import numpy as np
    from weinstein.grids import build_base_grid, build_scale_grid
    from weinstein.report import scale_field_to_csv
    g = build_base_grid(0.5, 1, 12, 12)
    sg = build_scale_grid(g, 1 / 16, 16.0, 8)
    vals = np.exp(-np.log(sg.scales)[:, None, None] ** 2) * np.ones(sg.base.shape)[None]
    sfile = tmp_path / "symbol.csv"
    sfile.write_text(scale_field_to_csv(sg, vals))
    out = tmp_path / "loc"
    code = main(["localize", *TINY, "--set", f"symbol=csv:{sfile}",
                 "--set", f"out_dir={out}"])
    assert code == 0
    assert (out / "operator.csv").exists()


@pytest.mark.parametrize("defect", ["shuffled", "nan", "other_grid", "missing"])
def test_verify_rejects_bad_window_csv(tmp_path, capsys, defect):
    # a window CSV must exist and hold finite values at grid.nodes(), in
    # that order; anything else is an input error (exit 2) before any check runs
    from weinstein.grids import build_base_grid
    from weinstein.probes import gaussian
    from weinstein.report import field_to_csv
    g = build_base_grid(0.5, 1, 16 if defect != "other_grid" else 18, 16)
    lines = field_to_csv(g, gaussian(g).values).splitlines()
    if defect == "shuffled":
        lines[1], lines[2] = lines[2], lines[1]
    if defect == "nan":
        cells = lines[5].split(",")
        lines[5] = ",".join(cells[:-2] + ["nan", cells[-1]])
    if defect == "other_grid":
        lines = lines[:1 + 16 * 16]
    wfile = tmp_path / "window.csv"
    if defect != "missing":
        wfile.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["verify", *TINY, "--set", "alphas=0.5",
                 "--set", f"window_phi=csv:{wfile}", "--set", f"out_dir={out}"])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def _tiny_stack(n, m, scales):
    # the stacks of TINY: main grid 16/16/12, operator profile 12/12/8
    from weinstein.verify import build_stack
    return build_stack(0.5, 1, n, m, 1 / 16, 16.0, scales, 32)


@pytest.mark.parametrize("command", ["transform", "cwt", "localize", "verify", "convergence"])
@pytest.mark.parametrize("key", ["window_phi", "window_psi"])
def test_every_command_rejects_a_missing_window_file(tmp_path, capsys, command, key):
    # no command ignores a window setting: a file that is not there is a
    # configuration error (exit 2) naming it, before any output is written
    missing = tmp_path / "nonexistent.csv"
    code, out = run_cli([command], tmp_path, ("--set", f"{key}=csv:{missing}"))
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(missing) in err
    assert not out.exists()


def test_transform_rejects_a_second_window(tmp_path, capsys):
    # transform has one input field, window_phi; a window_psi it would not
    # read is rejected even when the file is a valid field on the main grid
    from weinstein.probes import gaussian
    from weinstein.report import field_to_csv
    g = _tiny_stack(16, 16, 12).grid
    wfile = tmp_path / "window.csv"
    wfile.write_text(field_to_csv(g, gaussian(g).values))
    code, out = run_cli(["transform"], tmp_path, ("--set", f"window_psi=csv:{wfile}"))
    assert code == 2
    assert "window_psi must be 'default'" in capsys.readouterr().err
    assert not out.exists()
    code, out = run_cli(["transform"], tmp_path, ("--set", f"window_phi=csv:{wfile}"))
    assert code == 0
    assert (out / "fields" / "input.csv").read_text() == field_to_csv(g, gaussian(g).values)


def test_cwt_reads_the_csv_window(tmp_path):
    # cwt.csv is W_phi of the Gaussian with phi read from window_phi on the
    # main grid: here the default psi, which carries no profile once read back
    from weinstein.probes import gaussian
    from weinstein.report import field_to_csv, scale_field_to_csv
    from weinstein.wavelets import Window, build_pair, cwt, default_windows
    st = _tiny_stack(16, 16, 12)
    _, psi = default_windows(st.plan)
    wfile = tmp_path / "window.csv"
    wfile.write_text(field_to_csv(st.grid, psi.field.values))
    code, out = run_cli(["cwt"], tmp_path, ("--set", f"window_phi=csv:{wfile}"))
    assert code == 0
    pair = build_pair(st.plan, st.scale_grid, st.kernel, Window(field=psi.field))
    W = cwt(pair, gaussian(st.grid), "phi")
    assert (out / "fields" / "cwt.csv").read_text() == scale_field_to_csv(st.scale_grid,
                                                                          W.values)


def test_localize_reads_windows_on_the_operator_grid(tmp_path, capsys):
    # a phi modulated by exp(0.7 i x_1) on the operator grid is neither real
    # nor reflection-even, so the l1_bump operator takes no cheaper route; the
    # same window listed on the main grid does not fit and exits 2
    import numpy as np
    from weinstein.report import field_to_csv
    from weinstein.wavelets import default_windows
    for n, m, scales, expect in ((12, 12, 8, 0), (16, 16, 12, 2)):
        st = _tiny_stack(n, m, scales)
        phi, _ = default_windows(st.plan)
        x1 = st.grid.nodes()[:, 0].reshape(st.grid.shape)
        wfile = tmp_path / f"window{n}.csv"
        wfile.write_text(field_to_csv(st.grid, np.exp(0.7j * x1) * phi.field.values))
        code, out = run_cli(["localize"], tmp_path / f"n{n}",
                            ("--set", f"window_phi=csv:{wfile}"))
        assert code == expect
    captured = capsys.readouterr()
    assert captured.out.startswith("operator structures: none\n")
    assert "CSV has 256 rows, expected 144" in captured.err


@pytest.mark.parametrize("alphas", ["nan", "inf", "0.5,0.5000001"])
def test_verify_rejects_bad_alphas(tmp_path, capsys, alphas):
    # a non-finite entry, or two entries with one check id tag, is a
    # configuration error before any output is written
    code, out = run_cli(["verify"], tmp_path, ("--set", f"alphas={alphas}"))
    assert code == 2
    assert "alphas entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "localize"])
@pytest.mark.parametrize("key", ["tol_kernel", "tol_transform", "tol_convolution",
                                 "tol_wavelet", "tol_operator_exact", "tol_bound_slack",
                                 "tol_examples"])
def test_no_setting_overrides_a_tolerance(tmp_path, capsys, command, key):
    # a tolerance lives only in verify.TOL: a tol_<key> setting, on the
    # command line or in a file, is an unknown key, rejected before any output
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"{key} = 0.5\n")
    for extra in (("--set", f"{key}=0.5"), ("--config", str(cfgfile))):
        code, out = run_cli([command], tmp_path, extra)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unknown key {key!r}" in captured.err
        assert not out.exists()


@pytest.mark.parametrize("levels", ["0", "1"])
def test_convergence_rejects_fewer_than_two_levels(tmp_path, capsys, levels):
    # the study gates the error ratio between levels: it needs two of them
    code, out = run_cli(["convergence", "--levels", levels], tmp_path)
    assert code == 2
    assert "at least 2 levels" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["radial_extent=6"])
def test_convergence_rejects_extents(tmp_path, capsys, setting):
    # convergence doubles n with R = L on boxes of its own; a radial extent
    # it would ignore is a configuration error
    code, out = run_cli(["convergence"], tmp_path, ("--set", setting))
    assert code == 2
    assert f"cannot take {setting}.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,how", [("verify", "set"), ("verify", "config"),
                                         ("convergence", "set")])
def test_cartesian_extent_is_not_a_setting(tmp_path, capsys, command, how):
    # the Cartesian box is always the self-dual L = sqrt(pi n / 2), on which
    # the transform's Cartesian factor is the lattice DFT; any other box
    # failed reflection, round-trip and wavelet rows, so the key is unknown
    value = "6" if command == "convergence" else "12"
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(f"cart_extent = {value}\n")
    extra = ("--set", f"cart_extent={value}") if how == "set" else ("--config", str(cfgfile))
    code, out = run_cli([command], tmp_path, extra)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown key 'cart_extent'" in captured.err
    assert not out.exists()


QUANTITIES = ("plancherel", "parseval", "roundtrip", "wavelet_parseval", "inversion")


def test_convergence_gates_every_quantity():
    # every quantity reports both levels and one ratio row, gated at RATIO_MIN
    from weinstein.config import RunConfig
    from weinstein.convergence import RATIO_MIN, run_convergence
    rows = run_convergence(RunConfig(n=16, m=16, scales=12).validate(), levels=2)
    assert [r.check_id for r in rows] == [f"convergence.{q}.{tag}" for q in QUANTITIES
                                          for tag in ("level0", "level1", "ratio1")]
    ratios = [r for r in rows if ".ratio" in r.check_id]
    assert ratios and all(r.rhs == RATIO_MIN and r.statement.endswith(f">= {RATIO_MIN}")
                          for r in ratios)


def test_convergence_reports_levels_before_an_exhausted_one(tmp_path, monkeypatch):
    # a level that runs out of memory ends the study with a flagged partial
    # report: the levels before it and no ratio to a level that never ran
    from weinstein import convergence
    level_errors = convergence._level_errors

    def exhausted_at_level1(config, level):
        if level == 1:
            raise MemoryError
        return level_errors(config, level)

    monkeypatch.setattr(convergence, "_level_errors", exhausted_at_level1)
    code, out = run_cli(["convergence"], tmp_path)
    assert code == 1
    rows = list(csv.DictReader(io.StringIO((out / "convergence.csv").read_text())))
    assert [r["check_id"] for r in rows] == (["convergence.partial.level1"]
                                             + [f"convergence.{q}.level0" for q in QUANTITIES])
    assert [r["pass"] for r in rows] == ["0"] + ["1"] * len(QUANTITIES)


def test_localize_reports_uneven_csv_symbol(tmp_path, capsys):
    # a real symbol centred off the origin is not reflection-even: the
    # operator stays real, on the plain real route
    import numpy as np
    from weinstein.grids import build_base_grid, build_scale_grid
    from weinstein.report import scale_field_to_csv
    g = build_base_grid(0.5, 1, 12, 12)
    sg = build_scale_grid(g, 1 / 16, 16.0, 8)
    x = g.nodes()[:, 0].reshape(g.shape)
    vals = np.exp(-np.log(sg.scales)[:, None, None] ** 2 - (x[None] - 0.5) ** 2)
    sfile = tmp_path / "symbol.csv"
    sfile.write_text(scale_field_to_csv(sg, vals))
    code = main(["localize", *TINY, "--set", f"symbol=csv:{sfile}",
                 "--set", f"out_dir={tmp_path / 'loc'}"])
    assert code == 0
    assert "operator structures: real\n" in capsys.readouterr().out


def test_localize_rejects_symbol_csv_on_other_scales(tmp_path, capsys):
    import numpy as np
    from weinstein.grids import build_base_grid, build_scale_grid
    from weinstein.report import scale_field_to_csv
    g = build_base_grid(0.5, 1, 12, 12)
    sg = build_scale_grid(g, 1 / 8, 16.0, 8)        # the config's a_min is 1/16
    sfile = tmp_path / "symbol.csv"
    sfile.write_text(scale_field_to_csv(sg, np.ones(sg.shape)))
    code = main(["localize", *TINY, "--set", f"symbol=csv:{sfile}",
                 "--set", f"out_dir={tmp_path / 'loc'}"])
    assert code == 2
    assert "scale CSV row 1" in capsys.readouterr().err


@pytest.mark.parametrize("slack, expect", [(0.01, 1), (0.05, 0)])
def test_localize_bound_gate_reads_bound_slack(tmp_path, monkeypatch, slack, expect):
    # every measured/bound ratio is 1.03: a slack of 1% fails it, 5% passes it
    from weinstein import localization, verify
    monkeypatch.setitem(verify.TOL, "bound_slack", slack)
    monkeypatch.setattr(localization, "measured_norm", lambda L, p: 1.03)
    monkeypatch.setattr(localization, "theoretical_bound",
                        lambda pair, sym, p: (1.0, "fake", {"fake": 1.0}))
    code, out = run_cli(["localize"], tmp_path)
    assert code == expect
    assert "fake,2,1.03" in (out / "bounds.csv").read_text()


def test_verify_runs_on_three_radial_nodes(tmp_path, capsys):
    # wav.self_localization compares with the fourth radial node, or the
    # last one when there are fewer: the smallest grids report, not crash
    tiny = [f"{k}=3" for k in ("n", "m", "op_n", "op_m")] + ["scales=4", "op_scales=2"]
    code = main(["verify", "--set", f"out_dir={tmp_path / 'out'}",
                 *[a for s in tiny for a in ("--set", s)]])
    assert code == 1
    assert "checks passed" in capsys.readouterr().out
    assert (tmp_path / "out" / "report.csv").exists()


def test_cwt_refuses_to_write_non_finite_values(tmp_path, capsys):
    # at alpha = 200 the translation constant is inf/inf: the transform is
    # NaN, and the command exits 3 naming the file kind, with no cwt.csv
    out = tmp_path / "out"
    code = main(["cwt", "--set", "alpha=200", "--set", "n=8", "--set", "m=8",
                 "--set", "scales=4", "--set", f"out_dir={out}"])
    assert code == 3
    assert "scale-space field CSV not written" in capsys.readouterr().err
    assert not (out / "fields" / "cwt.csv").exists()


def test_runtime_error_with_empty_message_names_its_type(tmp_path, capsys, monkeypatch):
    # MemoryError() carries no message: the error line names the exception
    # instead of ending empty, and the exit code stays 3
    from weinstein import cli

    def out_of_memory(cfg):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_cwt", out_of_memory)
    assert main(["cwt", "--set", f"out_dir={tmp_path / 'out'}"]) == 3
    assert capsys.readouterr().err == "runtime error: MemoryError\n"


def test_csv_writers_refuse_non_finite_values():
    # the field, scale-field and matrix writers name their kind; the report
    # writer keeps NaN, which a partial convergence row carries as lhs
    from types import SimpleNamespace
    import numpy as np
    from weinstein.report import (field_to_csv, make_row, matrix_to_csv, rows_to_csv,
                                  scale_field_to_csv)
    grid = SimpleNamespace(d=1, nodes=lambda: np.array([[-1.0, 0.1], [0.5, 2.0]]))
    scale_grid = SimpleNamespace(base=grid, scales=np.array([0.5, 4.0]), scale_points=2)
    with pytest.raises(ValueError, match="^field CSV"):
        field_to_csv(grid, np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="^scale-space field CSV"):
        scale_field_to_csv(scale_grid, np.array([[1, 2j], [3, complex(0, np.inf)]]))
    with pytest.raises(ValueError, match="^operator CSV"):
        matrix_to_csv(np.array([[1.0, -np.inf]]))
    assert ",nan," in rows_to_csv([make_row("c", "s", np.nan, 1.0, 0.1, passed=False)])


def test_csv_writers_exact_bytes():
    # one table writer: the coordinate columns, then re and im, every number
    # at 17 significant digits (integer-valued ones print as integers)
    from types import SimpleNamespace
    import numpy as np
    from weinstein.report import field_to_csv, matrix_to_csv, scale_field_to_csv
    nodes = np.array([[-1.0, 0.1], [0.5, 2.0]])
    grid = SimpleNamespace(d=1, nodes=lambda: nodes)
    scale_grid = SimpleNamespace(base=grid, scales=np.array([0.5, 4.0]), scale_points=2)
    assert field_to_csv(grid, np.array([1 / 3, -2.5 + 0.25j])) == (
        "x_1,x_2,re,im\n"
        "-1,0.10000000000000001,0.33333333333333331,0\n"
        "0.5,2,-2.5,0.25\n")
    assert scale_field_to_csv(scale_grid, np.array([[1, 2j], [3, -0.1]])) == (
        "a,x_1,x_2,re,im\n"
        "0.5,-1,0.10000000000000001,1,0\n"
        "0.5,0.5,2,0,2\n"
        "4,-1,0.10000000000000001,3,0\n"
        "4,0.5,2,-0.10000000000000001,0\n")
    assert matrix_to_csv(np.array([[1.5, -2.0], [-0.0, 1e-20]])) == (
        "row,col,re,im\n"
        "0,0,1.5,0\n"
        "0,1,-2,0\n"
        "1,0,-0,0\n"
        "1,1,9.9999999999999995e-21,0\n")
    assert matrix_to_csv(np.array([[1 - 1j]])) == "row,col,re,im\n0,0,1,-1\n"
