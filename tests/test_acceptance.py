"""Acceptance gate: every criterion at its stated tolerance, full default scale.

Runs the complete verification battery (d=1, alphas 0, 0.5, 1.5, n=m=64,
48 scales, operator profile 32x32x20) plus the two-level convergence
study, then asserts each criterion's rows and prints one line per
criterion.  Expect about 11 s of runtime on a 2-core Xeon.
"""

import hashlib

import pytest

from weinstein.config import RunConfig
from weinstein.convergence import run_convergence
from weinstein.report import fmt
from weinstein.verify import run_verify

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def battery():
    cfg = RunConfig().validate()
    return run_verify(cfg)


@pytest.fixture(scope="module")
def convergence_rows():
    cfg = RunConfig().validate()
    return run_convergence(cfg, levels=2)


def _select(rows, *prefixes):
    out = [r for r in rows if any(r.check_id.startswith(p) for p in prefixes)]
    assert out, f"no rows matched {prefixes}"
    return out


def _assert_all(rows, label):
    bad = [r for r in rows if not r.passed]
    status = "PASS" if not bad else "FAIL"
    print(f"[{status}] {label}: {len(rows) - len(bad)}/{len(rows)} checks")
    for r in bad:
        print(f"    failed {r.check_id}: lhs={r.lhs} rhs={r.rhs} tol={r.tolerance}")
    assert not bad


def test_criterion_1_kernel_properties(battery):
    """|Lambda| <= 1, unit at 0, symmetry, reflection: 1e4 random pairs per alpha."""
    _assert_all(_select(battery, "kernel."),
                "criterion 1: kernel properties at 1e-12 on 1e4 random pairs")


def test_criterion_2_gaussian_fixed_point(battery):
    rows = _select(battery, "transform.gaussian_fixed_point", "transform.roundtrip")
    _assert_all(rows, "criterion 2: Gaussian fixed point and round trip <= 1e-3")
    for r in rows:
        assert abs(r.lhs) <= 1e-3


def test_criterion_3_plancherel_parseval(battery, convergence_rows):
    rows = _select(battery, "transform.plancherel", "transform.parseval")
    _assert_all(rows, "criterion 3: Plancherel/Parseval <= 1e-3 on 20 random probes")
    ratios = _select(convergence_rows, "convergence.plancherel.ratio",
                     "convergence.parseval.ratio")
    _assert_all(ratios, "criterion 3: Plancherel/Parseval error ratio >= 3 under doubling")


def test_criterion_4_translation(battery):
    rows = _select(battery, "translate.identity", "translate.transform_identity",
                   "translate.mass", "translate.contraction", "translate.symmetry",
                   "translate.positivity", "theta.normalization")
    _assert_all(rows, "criterion 4: translation identity/transform/mass/contraction")


def test_criterion_5_convolution(battery):
    rows = _select(battery, "conv.transform_identity", "conv.direct_vs_spectral",
                   "conv.young", "conv.commutativity")
    _assert_all(rows, "criterion 5: convolution identities <= 2e-3 and Young bounds")


def test_criterion_6_admissibility(battery):
    rows = _select(battery, "adm.value_phi", "adm.spread_phi")
    _assert_all(rows, "criterion 6: admissibility constant 0.5 within 1e-4, spread <= 1e-3")
    value_rows = [r for r in rows if "value" in r.check_id]
    for r in value_rows:
        assert abs(r.lhs - 0.5) <= 1e-4


def test_criterion_7_parseval_inversion(battery, convergence_rows):
    rows = _select(battery, "wav.two_wavelet_parseval", "wav.inversion")
    _assert_all(rows, "criterion 7: two-wavelet Parseval and inversion <= 2%")
    ratios = _select(convergence_rows, "convergence.wavelet_parseval.ratio",
                     "convergence.inversion.ratio")
    _assert_all(ratios, "criterion 7: both improving >= 3x under doubling")


def test_criterion_8_exact_discrete_identities(battery):
    rows = _select(battery, "op.weak_strong", "op.adjoint_matrix", "op.adjoint_pairing",
                   "op.rank_one")
    _assert_all(rows, "criterion 8: weak/strong and adjoint <= 1e-10, rank-one <= 1e-8")


def test_criterion_9_bound_dominance(battery):
    rows = _select(battery, "op.bound.")
    # 3 alphas x 2 pairs x 4 classes x 3 exact p values
    assert len(rows) == 3 * 2 * 4 * 3
    _assert_all(rows, "criterion 9: norm bounds dominate measured norms (p in 1,2,inf)")
    lower = _select(battery, "op.bound_lower.")
    assert len(lower) == 3 * 2 * 4 * 3
    _assert_all(lower, "criterion 9: lower-bound dominance for p in {1.25, 1.5, 3}")


def test_criterion_10_examples(battery):
    rows = _select(battery, "ex.multiplier_equivalence", "ex.paraproduct_lemma",
                   "ex.paraproduct_l1", "ex.paracommutator_weak")
    _assert_all(rows, "criterion 10: multiplier/paraproduct/paracommutator within 3-5%")


def test_criterion_11_singular_value_decay(battery):
    rows = _select(battery, "op.svd_decay")
    assert len(rows) == 3 * 2 * 2  # alphas x pairs x {bump, separable}
    _assert_all(rows, "criterion 11: singular values below 1e-3 in first 25% of spectrum")


def test_declared_columns_unchanged(battery):
    # check_id, statement and tolerance hold constants and the name of each
    # tightest bound, not computed values, so BLAS rounding does not move them
    cols = [("check_id", "statement", "tolerance")]
    cols += [(r.check_id, r.statement, fmt(r.tolerance)) for r in battery]
    text = "".join(",".join(c) + "\n" for c in cols)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "80519b27eb6db090571185c05acc00d282cbba15446ddb45f172efca9638557f")


def test_full_battery_green(battery):
    _assert_all(battery, "full verification battery")
