"""The three benchmark workloads, driven through the public weinstein API.

Each workload is a closed loop with one client: ``setup`` builds every
input the timed phase needs (and may be called again; the last call wins),
``item(i)`` runs one unit of work for item index ``i`` and returns
``(checks attempted, checks failed)``.  ``round_items`` items make one
pass over the workload's item mix; a timed phase runs at least
``min_items``; ``warm_up`` asks for one untimed item before timing.
Items are deterministic in ``(seed, i)``, so a run can time the same
round untraced and traced.  Tolerances come from ``weinstein.verify.TOL``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import shutil
from pathlib import Path

import numpy as np

from weinstein import cli, grids, localization, probes, transform, translation, verify, wavelets
from weinstein.config import RunConfig, apply_overrides

_DEFAULTS = RunConfig()


def _stack(alpha, d, n, m, scales):
    return verify.build_stack(alpha, d, n, m, _DEFAULTS.a_min, _DEFAULTS.a_max,
                              scales, _DEFAULTS.theta_count)


def _rel(f, ref) -> float:
    return grids.lp_norm(f - ref, 2) / max(grids.lp_norm(ref, 2), 1e-300)


def _scale_rel(W, ref) -> float:
    return grids.scale_lp_norm(W - ref, 2) / max(grids.scale_lp_norm(ref, 2), 1e-300)


class Battery:
    """``weinstein verify`` through ``cli.main``, to a checked ``report.csv``.

    Set-up builds the stacks the battery will build (main grid and operator
    profile at every alpha), which pays BLAS start-up and first-touch page
    faults before timing; ``run_verify`` then builds its own, since the
    command takes no prebuilt stacks.
    """

    PROFILES = {
        "default": ["op_n=20", "op_m=20", "op_scales=16"],
        "tiny": ["n=16", "m=16", "scales=12", "op_n=8", "op_m=8", "op_scales=6",
                 "alphas=0.5"],
    }
    round_items = 1
    min_items = 2     # one verify is a single long sample; take the median of two
    warm_up = False   # a verify is long enough to carry its own first-call costs

    def __init__(self, profile: str, seed: int, work_dir: Path):
        self.sets = self.PROFILES[profile] + [f"seed={seed}"]
        self.work_dir = work_dir
        self.report_sha256 = None
        self.rows = 0

    def setup(self) -> None:
        cfg = apply_overrides(RunConfig(), self.sets)
        for alpha in cfg.alpha_list():
            verify.build_stack(alpha, cfg.d, cfg.n, cfg.m, cfg.a_min, cfg.a_max,
                               cfg.scales, cfg.theta_count)
            verify.build_stack(alpha, cfg.d, cfg.op_n, cfg.op_m, cfg.a_min, cfg.a_max,
                               cfg.op_scales, cfg.theta_count)

    def item(self, i: int) -> tuple[int, int]:
        out = self.work_dir / f"verify{i}"
        argv = ["verify"]
        for s in self.sets + [f"out_dir={out}"]:
            argv += ["--set", s]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        report = (out / "report.csv").read_bytes()
        shutil.rmtree(out)
        rows = list(csv.DictReader(io.StringIO(report.decode())))
        self.rows = len(rows)
        self.report_sha256 = hashlib.sha256(report).hexdigest()
        failed = sum(1 for r in rows if r["pass"] != "1") + int(rc != 0)
        return len(rows) + 1, failed


class Analysis:
    """Probes through the signal pipeline on three d=1 stacks and one d=2 stack.

    Per stack: forward/inverse round trip, translation to a random node
    (checked by L2 contraction), quadrature vs spectral convolution, both
    CWT routes and CWT inversion of a mean-zero probe.
    """

    PROFILES = {
        # (alpha, d, n, m, scales)
        "default": [(0.0, 1, 64, 64, 48), (0.5, 1, 64, 64, 48), (1.5, 1, 64, 64, 48),
                    (0.5, 2, 24, 20, 12)],
        "tiny": [(0.5, 1, 24, 24, 16), (0.5, 2, 10, 10, 8)],
    }
    round_items = min_items = 1
    warm_up = True

    def __init__(self, profile: str, seed: int, work_dir: Path):
        self.spec = self.PROFILES[profile]
        self.seed = seed
        self.stacks = []

    def setup(self) -> None:
        stacks = []
        for alpha, d, n, m, scales in self.spec:
            st = _stack(alpha, d, n, m, scales)
            pair = wavelets.build_pair(st.plan, st.scale_grid, st.kernel)
            pair.space_data("phi")
            pair.space_data("psi")
            pts = st.grid.nodes()
            # radial offsets past R/2 push translated probes off the grid
            safe = pts[pts[:, -1] <= st.grid.radial_extent / 2]
            stacks.append((st, pair, safe))
        self.stacks = stacks

    def item(self, i: int) -> tuple[int, int]:
        tol = verify.TOL
        errors = []
        for s, (st, pair, safe) in enumerate(self.stacks):
            rng = np.random.default_rng([self.seed, i, s])
            g, plan = st.grid, st.plan
            f = probes.random_even_field(g, rng)
            h = probes.random_even_field(g, rng)
            back = transform.inverse(plan, transform.forward(plan, f))
            errors.append((_rel(back, f), tol["transform"]))
            x = safe[rng.integers(0, len(safe))]
            tf = translation.translate(st.kernel, x, f)
            # contraction ||tau_x f||_2 <= ||f||_2, as a ratio against 1 + slack
            errors.append((grids.lp_norm(tf, 2) / grids.lp_norm(f, 2), 1.0 + tol["slack"]))
            cv = translation.convolve(st.kernel, f, h)
            errors.append((_rel(cv, translation.convolve_spectral(plan, f, h)),
                           tol["convolution"]))
            p = probes.mean_zero_probe(g, rng)
            W = wavelets.cwt(pair, p, "phi")
            errors.append((_scale_rel(wavelets.cwt_convolution_form(pair, p, "phi"), W),
                           tol["convolution"]))
            errors.append((_rel(wavelets.invert_cwt(pair, W), p), tol["wavelet"]))
        return len(errors), sum(1 for err, t in errors if not err <= t)


class Operators:
    """One localization operator per item at the ``localize`` profile.

    Items cycle alpha over (0, 0.5, 1.5) and the kind over two real items
    (``l1_bump``, ``separable`` with the default pair) and two complex ones
    (``l1_bump`` times e^{0.8 i x_1}; the default pair with phi modulated by
    e^{0.7 i x_1} and no frequency profile), so a round is four items.
    """

    PROFILES = {"default": (32, 32, 20), "tiny": (12, 12, 6)}
    ALPHAS = (0.0, 0.5, 1.5)
    KINDS = ("l1_bump", "separable", "l1_bump_modulated", "phi_modulated")
    round_items = min_items = len(KINDS)
    warm_up = True

    def __init__(self, profile: str, seed: int, work_dir: Path):
        self.n, self.m, self.scales = self.PROFILES[profile]
        self.seed = seed
        self.cases = {}

    def setup(self) -> None:
        cases = {}
        for alpha in self.ALPHAS:
            st = _stack(alpha, 1, self.n, self.m, self.scales)
            g, sg = st.grid, st.scale_grid
            pair = wavelets.build_pair(st.plan, sg, st.kernel)
            x1 = g.nodes()[:, 0].reshape(g.shape)
            phi_mod = wavelets.Window(
                field=grids.Field(g, pair.phi.field.values * np.exp(0.7j * x1)),
                freq_profile=None, name="g2_modulated")
            pair_mod = wavelets.build_pair(st.plan, sg, st.kernel, phi_mod, pair.psi)
            for p in (pair, pair_mod):
                p.space_data("phi")
                p.space_data("psi")
            bump = localization.symbol_bump(sg)
            bump_mod = localization.SymbolField(
                sg, bump.values * np.exp(0.8j * x1)[None], declared_class="l1_bump")
            probe_cols = localization.probe_matrix(g, samples=200, seed=self.seed + 1)
            cases[alpha] = {
                "grid": g, "probes": probe_cols,
                "l1_bump": (pair, bump),
                "separable": (pair, localization.symbol_separable(sg)),
                "l1_bump_modulated": (pair, bump_mod),
                "phi_modulated": (pair_mod, bump),
            }
        self.cases = cases

    def item(self, i: int) -> tuple[int, int]:
        tol = verify.TOL
        case = self.cases[self.ALPHAS[i % len(self.ALPHAS)]]
        pair, sym = case[self.KINDS[i % len(self.KINDS)]]
        g = case["grid"]
        L = localization.assemble(pair, sym)
        rng = np.random.default_rng([self.seed, i])
        f = probes.random_field(g, rng)
        h = probes.random_field(g, rng)
        weak = localization.weak_form(L, sym, f, h)
        strong = grids.inner_product(localization.apply_operator(L, f), h)
        ok = [abs(weak - strong) <= tol["operator_exact"] * max(abs(weak), 1e-300)]
        norms = {p: localization.measured_norm(L, p) for p in (1, 2, np.inf)}
        norms[1.5] = localization.measured_norm(L, 1.5, probes=case["probes"])
        for p, measured in norms.items():
            bound, _, _ = localization.theoretical_bound(pair, sym, p)
            ok.append(measured <= (1.0 + tol["bound_slack"]) * bound)
        sv = localization.singular_value_profile(L)
        ok.append(abs(sv[0] - norms[2]) <= tol["operator_exact"] * max(norms[2], 1e-300))
        return len(ok), sum(1 for x in ok if not x)


WORKLOADS = {"battery": Battery, "analysis": Analysis, "operators": Operators}
