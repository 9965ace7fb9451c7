"""Tests of the benchmark itself: its checks must fail on wrong answers, and a
kept failing operation must be counted without stopping the round.

    PYTHONPATH=src python3 -m pytest -q fupbench
"""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fuplab import fup_numerics as fn  # noqa: E402
from fuplab import porosity as po  # noqa: E402
from fuplab import word_combinatorics as wc  # noqa: E402

import checks as C  # noqa: E402
from engine import Op, harrell_davis_median, run_round  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from wl_fup import FupLadder  # noqa: E402
from wl_porosity import PorosityCertify  # noqa: E402
from wl_session import KEPT_FAULTS, LabSession  # noqa: E402


def _cantor_op(wl, k):
    return next(op for op in wl.ops() if op.name == f"cantor:{3 ** k}")


def test_norm_check_accepts_the_program_and_rejects_an_offset_of_1e_5(tmp_path):
    wl = FupLadder(3, str(tmp_path))
    op = _cantor_op(wl, 5)
    rows, fits, ok = op.call()
    op.check((rows, fits, ok))
    bad = [dict(rows[0], norm=rows[0]["norm"] + 1e-5)]
    with pytest.raises(C.CheckFailed, match="differs from reference"):
        op.check((bad, fits, ok))


def test_tensor_and_submultiplicativity_checks_fail_on_a_wrong_norm():
    n1 = {3 ** k: C.fourier_norm_1d(C.cantor_indices(k), C.cantor_indices(k), 3 ** k)
          for k in (1, 2, 3)}
    n2 = {N: v * v for N, v in n1.items()}
    C.check_tensor(n1, n2)
    with pytest.raises(C.CheckFailed, match="tensor identity"):
        C.check_tensor(n1, {27: n2[27] + 1e-5})
    ladder = {k: n1[3 ** k] for k in (1, 2, 3)}
    C.check_cantor_ladder(ladder)
    with pytest.raises(C.CheckFailed):
        C.check_cantor_ladder({**ladder, 3: ladder[1] * ladder[2] + 1e-5})


def test_word_count_check_fails_on_a_count_off_by_one():
    rows = wc.bound_check(0.9, 0.04, [2.0 ** -j for j in (200, 201, 202)])
    table = [[str(r[k]) for k in ("alpha", "rho", "h", "T0", "count", "ratio", "logC")]
             for r in rows]
    C.check_word_rows(table, 0.04, 0.9, 200)
    table[1][4] = str(int(table[1][4]) + 1)
    with pytest.raises(C.CheckFailed, match="eighth power"):
        C.check_word_rows(table, 0.04, 0.9, 200)


def test_count_uncontrolled_reference_fails_on_a_count_off_by_one():
    got = wc.count_uncontrolled(1200, Fraction(1, 4))
    assert got == C.block_count(1200, Fraction(1, 4))
    assert got + 1 != C.block_count(1200, Fraction(1, 4))
    C.check_block_bound(got, 1200, Fraction(1, 4))


def test_flipped_verdict_fails_the_probes(tmp_path):
    wl = PorosityCertify(3, str(tmp_path))
    rep = po.ball_porosity_check(wl.x1, 0.9, 1 / 3, 1.0)
    assert rep.verdict is po.Verdict.COUNTEREXAMPLE
    wl._check_report("x1", wl.x1.mask, rep)
    flipped = dataclasses.replace(rep, verdict=po.Verdict.CERTIFIED)
    with pytest.raises(C.CheckFailed, match="fails a probe"):
        wl._check_report("x1-flipped", wl.x1.mask, flipped)


def test_moved_witness_fails_reverification(tmp_path):
    wl = PorosityCertify(3, str(tmp_path))
    for rep in (po.ball_porosity_check(wl.x2, 0.9, 0.8, 1.0),
                po.line_porosity_check(wl.x2, 0.9, 0.8, 1.0, 6)):
        assert rep.verdict is po.Verdict.COUNTEREXAMPLE
        wl._check_report(f"x2-{rep.kind}", wl.x2.mask, rep, 6)
        w = rep.witness
        if rep.kind == "ball":
            moved = dataclasses.replace(w, center=w.center + 5.0)
        else:
            moved = dataclasses.replace(w, midpoint=w.midpoint + 5.0)
        with pytest.raises(C.CheckFailed, match="does not re-verify"):
            wl._check_report(f"x2-{rep.kind}-moved", wl.x2.mask,
                             dataclasses.replace(rep, witness=moved), 6)


def test_kept_failing_operation_is_counted_and_the_round_goes_on():
    def broken():
        raise ArithmeticError("power iteration disagrees with dense norm")

    ran = []
    ops = [Op("kept", broken, kept_fault=True),
           Op("after", lambda: ran.append(1) or 1, lambda out: C.require(out == 1, "x"))]
    res = run_round(ops)
    assert (res.attempted, res.failed, res.unexpected, ran) == (2, 1, [], [1])
    assert len(res.latencies) == 1

    res = run_round([Op("unexpected", broken)])
    assert res.failed == 1 and res.unexpected[0].startswith("unexpected: ArithmeticError")


def test_kept_cli_faults_fail_today_without_stopping_the_session(tmp_path):
    wl = LabSession(5, str(tmp_path))
    ops = list(wl.ops())
    kept = [op for op in ops if op.kept_fault]
    assert len(kept) == len(KEPT_FAULTS) * len(wl.seeds)
    res = run_round(kept[:len(KEPT_FAULTS)])
    assert res.failed == len(KEPT_FAULTS) and res.unexpected == []


def test_rho_points_with_kept_faults_fail_today(tmp_path):
    wl = FupLadder(3, str(tmp_path))
    kept = [op for op in wl.ops() if op.kept_fault]
    assert [op.name for op in kept] == ["rho:81", "rho:243"]
    res = run_round(kept)
    assert res.failed == 2 and res.unexpected == []


def test_log_phase_check_tells_the_mask_fault_from_a_wrong_norm():
    J, w = 108, 1.0
    exact = C.log_phase_reference(J, w, None)
    C.check_log_phase_norms({(J, w, None): exact})
    with pytest.raises(C.CheckFailed, match="matches neither") as err:
        C.check_log_phase_norms({(J, w, None): exact + 1e-5})
    assert not isinstance(err.value, C.KnownFault)
    with pytest.raises(C.KnownFault, match="not Cantor sets"):
        C.check_log_phase_norms({(J, w, None): C.log_phase_reference(J, w, None, True)})


def test_frobenius_bound_matches_the_sum_over_all_pairs():
    J = 108
    ang = 2 * np.pi * np.arange(J) / J
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    left, right = pts[J // 2:3 * J // 4], pts[:J // 4]
    d = np.linalg.norm(left[:, None] - right[None], axis=-1)
    chi = C._smooth_step((d - C.CHI_GAP) / C.CHI_WIDTH)
    want = np.sqrt((chi ** 2).sum()) * (2 * np.pi / J) ** -0.5 * (2 * np.pi / J)
    assert C.arc_frobenius_bound(J, None) == pytest.approx(want, rel=1e-12)


def test_log_phase_points_fail_today_on_the_mask_fault_only(tmp_path):
    wl = FupLadder(3, str(tmp_path))
    ops = [op for op in wl.ops() if op.name == "log:w=1.0:324"]
    res = run_round(ops)
    assert res.failed == 1 and res.unexpected == [] and len(res.latencies) == 1


def test_harrell_davis_median_moves_little_when_a_value_crosses_a_middle_gap():
    low, high = [10.0, 11.0, 12.0, 13.0], [20.0, 21.0, 22.0, 23.0]
    assert harrell_davis_median([5.0] * 9) == pytest.approx(5.0)
    before = harrell_davis_median(low + [14.0] + high)
    after = harrell_davis_median(low + [19.0] + high)
    assert abs(after - before) < 0.3 * (19.0 - 14.0)
    assert 13.0 < before < after < 20.0


def test_tracer_records_nested_spans_and_restores_the_program():
    original = po.ball_porosity_check
    tracer = Tracer()
    tracer.install()
    try:
        x = po.cantor_generate(po.CantorSpec.uniform(3, (0, 2), 5, 1), 1)
        po.max_certified_nu(x, 1 / 3, 1.0, "ball", iters=4)
        fn.masked_norm(fn.MaskedOperator(fn.semiclassical_dft(27, 1),
                                         np.ones(27, bool), np.ones(27, bool)))
    finally:
        tracer.uninstall()
    assert po.ball_porosity_check is original
    m = layer_metrics(tracer, 1)
    assert m["porosity.max_certified_nu.calls"] == (1.0, "count")
    assert m["porosity.checks_per_bisection"][0] == 5.0
    assert m["fup_numerics.core_apply.calls"][0] >= 2
    assert m["fup_numerics.masked_norm.self_s"][0] >= 0.0
