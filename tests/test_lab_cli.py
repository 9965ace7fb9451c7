import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import types
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuplab import fup_numerics, lab_cli, lorentz_core, word_combinatorics
from fuplab.fup_numerics import FupConfig, log_phase_hessian_factors, mixed_hessian_det
from fuplab.lab_cli import (
    _commutator_table_exact,
    _flow_compat_suite,
    _horocyclic_suite,
    _write_csv,
    load_set_spec,
    main,
    rerun_manifest,
)
from fuplab.lorentz_core import (
    LieAlgebraElement,
    exp_flow,
    generator,
    geodesic_flow,
    random_group_element,
    write_group_element,
)


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def tree_bytes(root, skip=None):
    """Every file under root, by path relative to it, to its bytes; files under
    the directory ``skip`` are left out."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and (skip is None or skip not in p.parents)}


CANTOR = {"cantor": {"base": 3, "kept_digits": [0, 2], "depth": 6, "dims": 1}}
BAND = {"band": {"base": 3, "kept_digits": [0, 2], "depth": 4, "arc": [0.1, 0.35]}}


class TestAlgebraVerify:
    def test_passes_for_small_dimensions(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "algebra-verify",
                     "--n-min", "2", "--n-max", "3"]) == 0
        out = capsys.readouterr().out
        assert "commutator-table pass" in out

    def test_degenerate_n1(self, tmp_path):
        assert main(["--out", str(tmp_path), "algebra-verify",
                     "--n-min", "1", "--n-max", "1"]) == 0

    def test_injected_sign_flip_fails_with_named_relation(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "algebra-verify", "--n-min", "2",
                     "--n-max", "2", "--inject-sign-flip"]) == 2
        assert "[X,U1+]" in capsys.readouterr().out

    def test_minus_pairs_are_checked(self, tmp_path, capsys, monkeypatch):
        # corrupt every [Ui-, Uj-] with i != j; each must be reported
        exact = lorentz_core.bracket

        def corrupted(y, z):
            out = exact(y, z)
            if y.label[0] == z.label[0] == "U" and y.label[-1] == z.label[-1] == "-" \
                    and y.label != z.label:
                return LieAlgebraElement(out.matrix + 1, out.n, out.label)
            return out

        monkeypatch.setattr(lorentz_core, "bracket", corrupted)
        assert _commutator_table_exact(3) == [f"[U{i}-,U{j}-]=0" for i in (1, 2, 3)
                                              for j in (1, 2, 3) if i != j]
        assert main(["--out", str(tmp_path), "algebra-verify", "--n-min", "2",
                     "--n-max", "2"]) == 2
        assert "n=2 commutator-table FAIL: [U1-,U2-]=0" in capsys.readouterr().out

    def test_wrong_sign_on_the_geodesic_sinh_term_fails(self, tmp_path, capsys, monkeypatch):
        # (x, xi) -> (x cosh t - xi sinh t, -x sinh t + xi cosh t)
        monkeypatch.setattr(lab_cli, "geodesic_flow",
                            lambda x, xi, t: geodesic_flow(x, xi, [-s for s in t]))
        assert main(["--out", str(tmp_path), "algebra-verify", "--n-min", "2",
                     "--n-max", "2"]) == 2
        out = capsys.readouterr().out
        assert "n=2 flow-compatibility FAIL" in out
        assert "n=2 horocyclic-commutation pass" in out

    def test_horocycle_rescaling_that_ignores_the_sign_fails(self, tmp_path, capsys,
                                                             monkeypatch):
        # e^{|t|} in place of e^{+-t}: wrong for U+ at t < 0 and for U- at t > 0
        monkeypatch.setattr(lab_cli, "math", types.SimpleNamespace(exp=lambda x: math.exp(abs(x))))
        assert main(["--out", str(tmp_path), "algebra-verify", "--n-min", "2",
                     "--n-max", "2"]) == 2
        out = capsys.readouterr().out
        assert "n=2 flow-compatibility pass" in out
        assert "n=2 horocyclic-commutation FAIL" in out


def _flow_compat_per_trial(n, rng):
    """The per-trial loop that _flow_compat_suite replaced, kept as its reference."""
    x_gen = generator("X", n=n)
    worst = 0.0
    for _ in range(100):
        g = random_group_element(rng, n)
        t = float(rng.uniform(-5.0, 5.0))
        gt = g @ exp_flow(x_gen, t)
        x, xi = geodesic_flow(g.matrix[:, 0], g.matrix[:, 1], t)
        worst = max(worst, float(np.max(np.abs(x - gt.matrix[:, 0]))),
                    float(np.max(np.abs(xi - gt.matrix[:, 1]))))
    return worst


def _horocyclic_per_trial(n, rng):
    """The per-trial loop that _horocyclic_suite replaced, kept as its reference."""
    x_gen = generator("X", n=n)
    worst = 0.0
    for _ in range(100):
        i = int(rng.integers(1, n + 1))
        s = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(-3.0, 3.0))
        for sign, kind in ((1, "U+"), (-1, "U-")):
            u_gen = generator(kind, i, n=n)
            lhs = exp_flow(u_gen, s) @ exp_flow(x_gen, -t)
            rhs = exp_flow(x_gen, -t) @ exp_flow(u_gen, s * math.exp(sign * t))
            worst = max(worst, float(np.max(np.abs(lhs.matrix - rhs.matrix))))
    return worst


def _hessian_check_per_pair(path, n, pairs, seed, fd_step, w_min=0.25, w_max=4.0):
    """The rows of hessian-check from its former per-pair loop over
    mixed_hessian_det with a scalar lambda, written as the command writes them."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < pairs:
        a = rng.standard_normal(n + 1)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(n + 1)
        b /= np.linalg.norm(b)
        if np.linalg.norm(a - b) < 0.1:
            continue
        w = float(rng.uniform(w_min, w_max))
        phi = lambda u, v: 2 * w * math.log(float(np.linalg.norm(u - v))) - w * math.log(4.0)
        fd = mixed_hessian_det(phi, a, b, fd_step)
        _, _, sym = log_phase_hessian_factors(w, a, b)
        rows.append([n, w, float(np.linalg.norm(a - b)), fd, sym, abs(fd - sym) / abs(sym)])
    _write_csv(path, ["n", "w", "separation", "fd_det", "symbolic_det", "rel_err"], rows)


class TestStackedTrials:
    """The suites draw every trial first and then run them as stacked arrays;
    each result equals the per-trial loop's, float for float and byte for byte."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9])
    def test_flow_and_horocyclic_suites_equal_the_per_trial_loops(self, n):
        for seed in range(10):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _flow_compat_suite(n, got) == _flow_compat_per_trial(n, want), seed
            assert _horocyclic_suite(n, got) == _horocyclic_per_trial(n, want), seed
            # both consumed the same draws
            assert got.integers(1 << 62) == want.integers(1 << 62)

    @pytest.mark.parametrize("n, fd_step", [(1, 1e-5), (2, 1e-5), (3, 1e-5), (2, 1e-3)])
    def test_hessian_check_csv_equals_the_per_pair_loop(self, tmp_path, monkeypatch, n,
                                                        fd_step):
        monkeypatch.setattr(lab_cli, "HESSIAN_FD_STEP", fd_step)
        monkeypatch.setattr(lab_cli, "HESSIAN_REL_TOL", 1.0)
        for seed in (0, 5):
            assert main(["--out", str(tmp_path), "--seed", str(seed), "hessian-check",
                         "--n", str(n), "--pairs", "40"]) == 0
            want = tmp_path / "want.csv"
            _hessian_check_per_pair(str(want), n, 40, seed, fd_step)
            assert read_bytes(tmp_path / "hessian_check.csv") == read_bytes(want)



class TestPorosityCheck:
    def test_empty_set_exits_zero(self, tmp_path):
        spec = write_json(tmp_path / "empty.json",
                          {"boxes": [], "resolution": 81, "dims": 1})
        code = main(["--out", str(tmp_path), "porosity-check", "--set", spec,
                     "--nu", "0.5", "--alpha0", "0.2", "--alpha1", "0.9"])
        assert code == 0

    def test_full_cube_exits_two(self, tmp_path):
        spec = write_json(tmp_path / "full.json",
                          {"boxes": [[[0.0], [1.0]]], "resolution": 81, "dims": 1})
        code = main(["--out", str(tmp_path), "porosity-check", "--set", spec,
                     "--nu", "0.2", "--alpha0", "0.25", "--alpha1", "0.8"])
        assert code == 2

    def test_cantor_below_threshold_exits_zero(self, tmp_path):
        spec = write_json(tmp_path / "cantor.json",
                          {"cantor": {"base": 3, "kept_digits": [0, 2],
                                      "depth": 6, "dims": 1}})
        code = main(["--out", str(tmp_path), "porosity-check", "--set", spec,
                     "--nu", "0.08", "--alpha0", "0.111", "--alpha1", "1.0"])
        assert code == 0
        report = (tmp_path / "porosity_report.txt").read_text()
        assert report.count("scale=") >= 4

    def test_parse_error_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["--out", str(tmp_path), "porosity-check", "--set", str(bad),
                     "--nu", "0.1", "--alpha0", "0.2", "--alpha1", "0.9"])
        assert code == 1

    def test_line_mode(self, tmp_path):
        spec = write_json(tmp_path / "cantor.json",
                          {"cantor": {"base": 3, "kept_digits": [0, 2],
                                      "depth": 5, "dims": 1}})
        code = main(["--out", str(tmp_path), "porosity-check", "--set", spec,
                     "--nu", "0.08", "--alpha0", "0.34", "--alpha1", "1.0",
                     "--mode", "line"])
        assert code == 0


class TestGroupDecompose:
    def test_kan_round_trip(self, tmp_path):
        rng = np.random.default_rng(90)
        path = tmp_path / "g.txt"
        write_group_element(random_group_element(rng, 3), str(path))
        assert main(["--out", str(tmp_path), "group-decompose", "--input",
                     str(path), "--mode", "kan+"]) == 0
        assert (tmp_path / "factor_k.txt").exists()

    def test_normalizer_failure_exits_two(self, tmp_path):
        rng = np.random.default_rng(91)
        path = tmp_path / "g.txt"
        write_group_element(random_group_element(rng, 3), str(path))
        assert main(["--out", str(tmp_path), "group-decompose", "--input",
                     str(path), "--mode", "normalizer", "--l", "2"]) == 2

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["--out", str(tmp_path), "group-decompose", "--input",
                     str(tmp_path / "nope.txt")]) == 1

    def test_manifest_reruns_to_the_same_factors(self, tmp_path):
        path = tmp_path / "g.txt"
        write_group_element(random_group_element(np.random.default_rng(92), 2), str(path))
        first = tmp_path / "first"
        assert main(["--out", str(first), "group-decompose", "--input", str(path),
                     "--mode", "kan-"]) == 0
        manifest = json.loads((first / "group_decompose.manifest.json").read_text())
        assert manifest["outputs"] == [str(first / f"factor_{t}.txt") for t in "kab"]
        assert str(path) in manifest["inputs"]
        second = tmp_path / "second"
        assert rerun_manifest(str(first / "group_decompose.manifest.json"), str(second)) == 0
        for t in "kab":
            assert read_bytes(first / f"factor_{t}.txt") == read_bytes(second / f"factor_{t}.txt")


class TestFupScan:
    def test_full_masks_flat(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "core": "fourier", "n": 1, "ladder": [27, 81, 243, 729],
            "set_minus": {"boxes": [[[0.0], [1.0]]], "resolution": 27, "dims": 1},
            "set_plus": {"boxes": [[[0.0], [1.0]]], "resolution": 27, "dims": 1},
        })
        assert main(["--out", str(tmp_path), "fup-scan", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "beta=" in out
        rows = (tmp_path / "fup_scan.csv").read_text().splitlines()
        norms = [float(r.split(",")[5]) for r in rows[1:] if not r.startswith("#")]
        assert all(abs(v - 1.0) <= 1e-10 for v in norms)

    def test_cantor_ladder_records_positive_beta(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         {"core": "fourier", "n": 1, "ladder": [27, 81, 243, 729]})
        assert main(["--out", str(tmp_path), "fup-scan", "--config", cfg]) == 0
        footer = [l for l in (tmp_path / "fup_scan.csv").read_text().splitlines()
                  if l.startswith("# fit")]
        assert len(footer) == 1
        beta = float(footer[0].split("beta=")[1].split()[0])
        assert beta > 0

    def test_unconverged_point_fails_the_scan(self, tmp_path, capsys):
        # the 2-D rho = 0.7 thickening at 81^2 reaches the Lanczos cap below
        # 1; a printed pass must be able to fail
        cfg = write_json(tmp_path / "cfg.json",
                         {"core": "fourier", "n": 2, "ladder": [9, 27, 81], "rho": 0.7})
        assert main(["--out", str(tmp_path), "fup-scan", "--config", cfg]) == 2
        assert "sanity FAIL" in capsys.readouterr().out
        rows = (tmp_path / "fup_scan.csv").read_text().splitlines()
        assert rows[3].startswith("fourier,2,81,")
        assert rows[3].endswith(",0.99999997268875984,800,False")

    def test_log_phase_scan_writes_what_fio_sphere_writes(self, tmp_path, capsys):
        # fio-sphere's manifest config, run as a fup-scan config, gives its CSV
        # byte for byte: both carry the energy column w, so rows of the two
        # energies can be told apart
        fio = tmp_path / "fio"
        main(["--out", str(fio), "--seed", "0", "fio-sphere", "--w", "0.125", "1.0",
              "--ladder", "12", "18", "27", "40"])
        config = json.loads((fio / "fio_sphere.manifest.json").read_text())["config"]
        scan = tmp_path / "scan"
        cfg = write_json(tmp_path / "cfg.json", config)
        assert main(["--out", str(scan), "fup-scan", "--config", cfg]) == 0
        csv_bytes = read_bytes(scan / "fup_scan.csv")
        assert csv_bytes == read_bytes(fio / "fio_sphere.csv")
        lines = csv_bytes.decode().splitlines()
        assert lines[0] == "core,n,N,h,rho,w,norm,iters,converged"
        assert [l.split(",")[5] for l in lines[1:9]] == ["0.125"] * 4 + ["1"] * 4

    def test_base_seven_family_scans(self, tmp_path):
        # N = 7^k has a prime factor above 5: such grids were refused at the first point
        cfg = write_json(tmp_path / "cfg.json", {
            "core": "fourier", "n": 1, "cantor_base": 7, "cantor_kept": [0, 3, 6],
            "ladder": [7, 49, 343, 2401, 16807]})
        assert main(["--out", str(tmp_path), "fup-scan", "--config", cfg]) == 0
        rows = (tmp_path / "fup_scan.csv").read_text().splitlines()
        assert [r.split(",")[2] for r in rows[1:6]] == ["7", "49", "343", "2401", "16807"]

    def test_perfect_power_base_scans_past_the_raster_budget(self, tmp_path):
        # digits {0, 3} of base 4 are a product over pairs of binary levels, so
        # the family plans in radix 4; 4^12 was refused as a raster of 4^12 cells
        cfg = write_json(tmp_path / "cfg.json", {
            "core": "fourier", "n": 1, "cantor_base": 4, "cantor_kept": [0, 3],
            "ladder": [64, 4096, 4 ** 9, 4 ** 12], "lower_bound_mode": True})
        assert main(["--out", str(tmp_path), "fup-scan", "--config", cfg]) == 0
        rows = (tmp_path / "fup_scan.csv").read_text().splitlines()
        assert [r.split(",")[2] for r in rows[1:5]] == ["64", "4096", "262144", "16777216"]
        assert all(r.endswith(",True") for r in rows[1:5])

    @pytest.mark.parametrize("n, N", [(1, 59049), (2, 243)])
    def test_small_rho_fills_the_grid_in_a_fresh_process(self, tmp_path, n, N):
        # at rho = 0.05 the thickened supports are the whole grid, so the norm
        # is 1; the ball of radius N^0.95 is never rastered
        cfg = write_json(tmp_path / "cfg.json",
                         {"core": "fourier", "n": n, "ladder": [N], "rho": 0.05})
        proc = fresh_cli(tmp_path / "out", "fup-scan", "--config", cfg)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        row = (tmp_path / "out" / "fup_scan.csv").read_text().splitlines()[1].split(",")
        assert int(row[2]) == N and abs(float(row[5]) - 1.0) <= 1e-12 and row[7] == "True"

    def test_grid_core_scan_has_no_energy_column(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         {"core": "fourier", "n": 1, "ladder": [27, 81, 243, 729]})
        assert main(["--out", str(tmp_path), "fup-scan", "--config", cfg]) == 0
        header = (tmp_path / "fup_scan.csv").read_text().splitlines()[0]
        assert header == "core,n,N,h,rho,norm,iters,converged"

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"core": "fourier", "banana": 3})
        assert main(["--out", str(tmp_path), "fup-scan", "--config", cfg]) == 1
        assert "banana" in capsys.readouterr().out

    def test_lower_bound_mode_with_empty_set_plus_exits_one(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "set_plus": {"boxes": [], "dims": 1, "resolution": 27},
            "lower_bound_mode": True,
        })
        assert main(["--out", str(tmp_path), "fup-scan", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert out.startswith("config error:") and "set_plus" in out

    def test_manifest_lists_outputs_and_inputs(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         {"core": "fourier", "n": 1, "ladder": [27, 81]})
        main(["--out", str(tmp_path), "fup-scan", "--config", cfg])
        manifest = json.loads((tmp_path / "fup_scan.manifest.json").read_text())
        assert manifest["outputs"] == [str(tmp_path / "fup_scan.csv")]
        assert cfg in manifest["inputs"]
        assert manifest["tool"] == "fuplab"
        env = manifest["environment"]
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        assert set(env) == {"python", "numpy", "scipy", "blas", "cpu_count", *threads}
        assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
        assert all(env[name] == os.environ.get(name) for name in threads)

    def test_manifest_records_an_unset_thread_variable_as_null(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        cfg = write_json(tmp_path / "cfg.json", {"core": "fourier", "n": 1, "ladder": [27, 81]})
        main(["--out", str(tmp_path), "fup-scan", "--config", cfg])
        env = json.loads((tmp_path / "fup_scan.manifest.json").read_text())["environment"]
        assert env["MKL_NUM_THREADS"] is None and env["OMP_NUM_THREADS"] == "1"


class TestWordsCount:
    def test_table_written(self, tmp_path):
        assert main(["--out", str(tmp_path), "words-count", "--alpha", "0.04",
                     "--rho", "0.9", "--j-min", "40", "--j-max", "60"]) == 0
        rows = (tmp_path / "words_count.csv").read_text().splitlines()
        assert rows[0] == "alpha,rho,h,T0,count,ratio,logC"
        assert len(rows) == 22

    def test_single_row_ladder(self, tmp_path):
        assert main(["--out", str(tmp_path), "words-count", "--alpha", "0.3",
                     "--rho", "0.9", "--j-min", "12", "--j-max", "12"]) == 0
        rows = (tmp_path / "words_count.csv").read_text().splitlines()
        assert len(rows) == 2

    def test_smallest_h_with_a_finite_inverse_runs(self, tmp_path):
        assert main(["--out", str(tmp_path), "words-count", "--alpha", "0.04",
                     "--rho", "0.9", "--j-min", "1023", "--j-max", "1023"]) == 0

    def test_bad_range_exits_one(self, tmp_path):
        assert main(["--out", str(tmp_path), "words-count", "--alpha", "0.7",
                     "--rho", "0.9", "--j-min", "5", "--j-max", "6"]) == 1

    def test_count_past_the_bound_exits_two(self, tmp_path, monkeypatch):
        # the pass can fail: with every word uncontrolled the ratio is 8 T0 log 2 / log(1/h),
        # about 1.25, over the bound 4 sqrt(0.04) + 0.1 = 0.9
        monkeypatch.setattr(word_combinatorics, "count_uncontrolled", lambda t0, alpha: 2 ** t0)
        assert main(["--out", str(tmp_path), "words-count", "--alpha", "0.04",
                     "--rho", "0.9", "--j-min", "40", "--j-max", "60"]) == 2

    def test_printed_bound_carries_the_slack(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "words-count", "--alpha", "0.25",
                     "--rho", "0.9", "--j-min", "12", "--j-max", "12"]) == 0
        assert f" vs bound {4 * math.sqrt(0.25) + 0.1:.17g}; wrote " in capsys.readouterr().out


class TestHessianCheck:
    def test_passes_at_default_tolerance(self, tmp_path):
        assert main(["--out", str(tmp_path), "hessian-check", "--n", "1",
                     "--pairs", "30"]) == 0

    def test_wrong_symbolic_determinant_exits_two(self, tmp_path, monkeypatch):
        # the pass can fail: a determinant 1e-3 off in relative terms is caught
        def off(w, y, yprime):
            pref, struct, det = log_phase_hessian_factors(w, y, yprime)
            return pref, struct, det * (1.0 + 1e-3)
        monkeypatch.setattr(lab_cli, "log_phase_hessian_factors", off)
        assert main(["--out", str(tmp_path), "hessian-check", "--n", "1",
                     "--pairs", "10"]) == 2

    @pytest.mark.parametrize("off, code", [(5e-5, 0), (2e-4, 2)])
    def test_pass_is_a_relative_error_of_at_most_1e_4(self, tmp_path, monkeypatch, off, code):
        # the finite differences agree to far below 5e-5, so the offset decides
        def shifted(w, y, yprime):
            pref, struct, det = log_phase_hessian_factors(w, y, yprime)
            return pref, struct, det * (1.0 + off)
        monkeypatch.setattr(lab_cli, "log_phase_hessian_factors", shifted)
        assert main(["--out", str(tmp_path), "hessian-check", "--n", "2",
                     "--pairs", "20"]) == code

    def test_energies_are_drawn_from_a_quarter_to_four(self, tmp_path):
        assert main(["--out", str(tmp_path), "hessian-check", "--pairs", "200"]) == 0
        with open(tmp_path / "hessian_check.csv") as fh:
            ws = [float(row["w"]) for row in csv.DictReader(fh)]
        assert len(ws) == 200 and all(0.25 <= w <= 4.0 for w in ws)
        assert min(ws) < 0.5 and max(ws) > 3.5

    @pytest.mark.parametrize("argv", [
        ["hessian-check", "--w-min", "1"],
        ["hessian-check", "--w-max", "1"],
        ["hessian-check", "--fd-step", "1"],
        ["hessian-check", "--rel-tol", "1"],
        ["words-count", "--alpha", "0.04", "--rho", "0.9", "--j-min", "40", "--j-max", "60",
         "--slack", "1"],
    ], ids=["w-min", "w-max", "fd-step", "rel-tol", "slack"])
    def test_fixed_value_is_not_a_flag(self, tmp_path, capsys, argv):
        assert main(["--out", str(tmp_path), *argv]) == 1
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        assert lines == [f"error: unrecognized arguments: {' '.join(argv[-2:])}"]


class TestFlowTrace:
    def test_csv_shape(self, tmp_path):
        assert main(["--out", str(tmp_path), "flow-trace", "--n", "2",
                     "--generator", "U1+", "--t0", "0", "--t1", "2",
                     "--steps", "5"]) == 0
        rows = (tmp_path / "flow_trace.csv").read_text().splitlines()
        assert len(rows) == 6
        assert rows[0].startswith("t,x0")


class TestManifestConfig:
    """A manifest's config records every option that changes the run."""

    def test_line_directions_and_frame_tolerance_are_recorded(self, tmp_path):
        band = write_json(tmp_path / "band.json", BAND)
        out = tmp_path / "sphere"
        main(["--out", str(out), "sphere-porosity", "--set", band, "--nu", "0.1",
              "--alpha0", "0.45", "--alpha1", "0.9", "--mode", "line", "--directions", "6"])
        config = json.loads((out / "sphere_porosity.manifest.json").read_text())["config"]
        assert (config["mode"], config["directions"]) == ("line", 6)
        frame = tmp_path / "g.txt"
        write_group_element(random_group_element(np.random.default_rng(5), 2), str(frame))
        out = tmp_path / "flow"
        assert main(["--out", str(out), "flow-trace", "--frame", str(frame),
                     "--generator", "U1+", "--steps", "3", "--tol", "1e-9"]) == 0
        config = json.loads((out / "flow_trace.manifest.json").read_text())["config"]
        assert config["tol"] == 1e-9

    @pytest.mark.parametrize("argv", [
        ["flow-trace", "--frame", "{g}", "--n", "3", "--generator", "U1+", "--steps", "3"],
        ["group-decompose", "--input", "{g}", "--mode", "kan-"],
        ["porosity-check", "--set", "{cantor}", "--nu", "0.08", "--alpha0", "0.111",
         "--alpha1", "1.0", "--mode", "line"],
        ["sphere-porosity", "--set", "{band}", "--nu", "0.1", "--alpha0", "0.45",
         "--alpha1", "0.9", "--charts", "4"],
        ["words-count", "--alpha", "0.04", "--rho", "0.9", "--j-min", "40", "--j-max", "45"],
        ["hessian-check", "--pairs", "5", "--n", "2"],
    ], ids=lambda argv: argv[0])
    def test_manifest_is_named_after_the_subcommand_and_records_the_parsed_flags(
            self, tmp_path, argv):
        (tmp_path / "in").mkdir()
        files = {"cantor": write_json(tmp_path / "in" / "cantor.json", CANTOR),
                 "band": write_json(tmp_path / "in" / "band.json", BAND),
                 "g": str(tmp_path / "in" / "g.txt")}
        write_group_element(random_group_element(np.random.default_rng(5), 2), files["g"])
        argv = ["--seed", "5", *(a.format(**files) for a in argv)]
        out = tmp_path / "out"
        assert main(["--out", str(out), *argv]) == 0
        assert [p.name for p in out.glob("*.manifest.json")] == [
            f"{argv[2].replace('-', '_')}.manifest.json"]
        manifest = json.loads(next(out.glob("*.manifest.json")).read_text())
        parsed = vars(lab_cli.build_parser().parse_args(argv))
        assert manifest["config"] == {k: v for k, v in parsed.items()
                                      if k not in ("func", "out", "seed", "subcommand")}
        assert manifest["seed"] == 5
        if argv[2] == "flow-trace":
            # --n as given, beside the frame whose dimension the run used
            assert (manifest["config"]["n"], manifest["config"]["frame"]) == (3, files["g"])

    def test_experiment_commands_record_their_own_config(self, tmp_path):
        raw = {"core": "fourier", "n": 1, "ladder": [27, 81, 243], "seed": 3}
        cfg = write_json(tmp_path / "cfg.json", raw)
        for seed_flag, seed in (([], 3), (["--seed", "4"], 4)):
            out = tmp_path / f"scan{seed}"
            assert main(["--out", str(out), *seed_flag, "fup-scan", "--config", cfg]) == 0
            assert [p.name for p in out.glob("*.manifest.json")] == ["fup_scan.manifest.json"]
            manifest = json.loads((out / "fup_scan.manifest.json").read_text())
            # the config file as read, and the seed the run used
            assert (manifest["config"], manifest["seed"]) == (raw, seed)
        out = tmp_path / "fio"
        assert main(["--out", str(out), "fio-sphere", "--w", "1.0",
                     "--ladder", "12", "18", "27", "40"]) == 0
        assert [p.name for p in out.glob("*.manifest.json")] == ["fio_sphere.manifest.json"]
        config = json.loads((out / "fio_sphere.manifest.json").read_text())["config"]
        ran = FupConfig(core="log_phase", n=1, ladder=(12, 18, 27, 40), w_list=(1.0,), seed=0)
        assert config == json.loads(json.dumps(dataclasses.asdict(ran)))


class TestRerun:
    """rerun_manifest parses the recorded command as main does and replaces only the
    output directory, whatever spelling of --out the command used."""

    @pytest.mark.parametrize("out_flags", [["--out={d}"], ["--ou", "{d}"],
                                           ["--out", "{unused}", "--out", "{d}"]],
                             ids=["equals", "abbreviated", "repeated"])
    def test_rerun_writes_only_into_the_fresh_directory(self, tmp_path, out_flags):
        cfg = write_json(tmp_path / "cfg.json",
                         {"core": "fourier", "n": 1, "ladder": [27, 81, 243]})
        first = tmp_path / "first"
        flags = [a.format(d=first, unused=tmp_path / "unused") for a in out_flags]
        assert main([*flags, "fup-scan", "--config", cfg]) == 0
        before = tree_bytes(tmp_path)
        second, third = tmp_path / "second", tmp_path / "third"
        for src, fresh in ((first, second), (second, third)):
            # a re-run of the re-run's own manifest lands in its own directory too
            assert rerun_manifest(str(src / "fup_scan.manifest.json"), str(fresh)) == 0
            assert tree_bytes(tmp_path, skip=fresh) == before
            assert read_bytes(fresh / "fup_scan.csv") == read_bytes(first / "fup_scan.csv")
            manifest = json.loads((fresh / "fup_scan.manifest.json").read_text())
            assert manifest["outputs"] == [str(fresh / "fup_scan.csv")]
            before = tree_bytes(tmp_path)
        assert not (tmp_path / "unused").exists()

    def test_manifest_whose_command_no_longer_parses(self, tmp_path, capsys):
        manifest = write_json(tmp_path / "old.manifest.json",
                              {"command": ["fup-scan", "--config", "cfg.json",
                                           "--dense-limit", "81"]})
        assert rerun_manifest(manifest, str(tmp_path / "fresh")) == 1
        captured = capsys.readouterr()
        lines = [ln for ln in (captured.out + captured.err).splitlines() if ln.strip()]
        assert len(lines) == 1 and lines[0].startswith("error: unrecognized arguments"), lines
        assert not (tmp_path / "fresh").exists()


class TestSpherePorosity:
    def test_porous_band(self, tmp_path):
        spec = write_json(tmp_path / "band.json",
                          {"band": {"base": 3, "kept_digits": [0, 2], "depth": 4,
                                    "arc": [0.1, 0.35]}})
        code = main(["--out", str(tmp_path), "sphere-porosity", "--set", spec,
                     "--nu", "0.1", "--alpha0", "0.45", "--alpha1", "0.9"])
        assert code == 0

    def test_band_arc_may_span_the_circle(self, tmp_path):
        # a whole turn is an arc; the band spread over it is decided, not refused
        spec = write_json(tmp_path / "band.json", {"band": {**BAND["band"], "arc": [0.0, 1.0]}})
        code = main(["--out", str(tmp_path), "sphere-porosity", "--set", spec,
                     "--nu", "0.1", "--alpha0", "0.45", "--alpha1", "0.9"])
        assert code == 2


class TestDeterminism:
    def test_words_count_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            assert main(["--out", str(d), "--seed", "7", "words-count", "--alpha",
                         "0.04", "--rho", "0.9", "--j-min", "40", "--j-max", "55"]) == 0
        assert read_bytes(a / "words_count.csv") == read_bytes(b / "words_count.csv")

    def test_fup_scan_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         {"core": "fourier", "n": 1, "ladder": [27, 81, 243], "seed": 3})
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            assert main(["--out", str(d), "fup-scan", "--config", cfg]) == 0
        assert read_bytes(a / "fup_scan.csv") == read_bytes(b / "fup_scan.csv")

    def test_manifest_rerun_reproduces_csv(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         {"core": "fourier", "n": 1, "ladder": [27, 81, 243]})
        first = tmp_path / "first"
        assert main(["--out", str(first), "fup-scan", "--config", cfg]) == 0
        second = tmp_path / "second"
        assert rerun_manifest(str(first / "fup_scan.manifest.json"), str(second)) == 0
        assert read_bytes(first / "fup_scan.csv") == read_bytes(second / "fup_scan.csv")

    def test_algebra_verify_writes_no_manifest(self, tmp_path):
        assert main(["--out", str(tmp_path), "algebra-verify", "--n-min", "1",
                     "--n-max", "1"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    """main parses every call with one parser per process; no call may leave
    anything in it that changes the next."""

    def test_repeated_calls_after_a_usage_error_write_the_same_bytes(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "bad"), "porosity-check", "--set", "x.json",
                     "--nu", "0.1"]) == 1
        assert capsys.readouterr().out.startswith("error: the following arguments")
        for argv, csv_name in ((["fio-sphere"], "fio_sphere.csv"),
                               (["words-count", "--alpha", "0.04", "--rho", "0.9",
                                 "--j-min", "200", "--j-max", "400"], "words_count.csv")):
            runs = []
            for k in range(2):
                out = tmp_path / f"{argv[0]}-{k}"
                assert main(["--out", str(out), *argv]) == 0
                runs.append((capsys.readouterr().out.replace(str(out), "OUT"),
                             read_bytes(out / csv_name)))
            assert runs[0] == runs[1]
            assert "wrote OUT" in runs[0][0]
        # the defaults --w 0.125 1 8 and --ladder 108 324 972 2916 were used both times
        for k in range(2):
            with open(tmp_path / f"fio-sphere-{k}" / "fio_sphere.manifest.json") as fh:
                config = json.load(fh)["config"]
            assert config["w_list"] == [0.125, 1.0, 8.0]
            assert config["ladder"] == [108, 324, 972, 2916]


class TestSetSpecLoader:
    def test_cantor_spec(self, tmp_path):
        spec = write_json(tmp_path / "c.json",
                          {"cantor": {"base": 3, "kept_digits": [0, 2],
                                      "depth": 2, "dims": 1}})
        x = load_set_spec(spec)
        assert x.occupied_count == 4

    def test_boxes_spec(self, tmp_path):
        spec = write_json(tmp_path / "b.json",
                          {"boxes": [[[0.0, 0.0], [0.5, 0.25]]],
                           "resolution": 8, "dims": 2})
        x = load_set_spec(spec)
        assert x.occupied_count == 8

    def test_unknown_spec_rejected(self, tmp_path):
        spec = write_json(tmp_path / "u.json", {"circles": []})
        with pytest.raises(ValueError):
            load_set_spec(spec)


def fresh_cli(tmp_path, *argv, address_space=None):
    """``python -m fuplab.lab_cli --out tmp_path *argv`` in a fresh process on
    this checkout's src, its address space capped at ``address_space`` bytes."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    return subprocess.run([sys.executable, "-m", "fuplab.lab_cli", "--out", str(tmp_path),
                           *argv], capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=None if address_space is None else cap)


class TestUsageContract:
    """Inputs that parse but cannot be run exit 1 with one line and nothing written."""

    def assert_one_line_usage_error(self, tmp_path, capsys, *argv, prefix="error:"):
        assert main(["--out", str(tmp_path), *argv]) == 1
        captured = capsys.readouterr()
        lines = [ln for ln in (captured.out + captured.err).splitlines() if ln.strip()]
        assert len(lines) == 1 and lines[0].startswith(prefix), lines
        assert not any(p.suffix in (".csv", ".json") for p in tmp_path.iterdir())

    def input_json(self, tmp_path, payload):
        (tmp_path / "in").mkdir()
        return write_json(tmp_path / "in" / "input.json", payload)

    def test_unknown_flow_generator(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "flow-trace", "--generator", "Q9")

    def test_algebra_dimension_zero(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "algebra-verify", "--n-min", "0")

    def test_hessian_without_pairs(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "hessian-check", "--pairs", "0")

    def test_flow_without_steps(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "flow-trace", "--steps", "0")

    def test_fio_ladder_too_short_to_fit(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "fio-sphere",
                                         "--ladder", "108", "324")

    def test_words_ladder_whose_h_underflows(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "words-count", "--alpha", "0.04",
                                         "--rho", "0.9", "--j-min", "200", "--j-max", "1024")

    @pytest.mark.parametrize("flags", [("--charts", "0"), ("--charts", "-1"),
                                       ("--resolution", "0")])
    def test_sphere_without_charts_or_cells(self, tmp_path, capsys, flags):
        spec = self.input_json(tmp_path, BAND)
        self.assert_one_line_usage_error(tmp_path, capsys, "sphere-porosity", "--set", spec,
                                         "--nu", "0.1", "--alpha0", "0.45", "--alpha1", "0.9",
                                         *flags)

    @pytest.mark.parametrize("w", ["1e300", "1e-300"])
    def test_hessian_determinant_outside_the_float_range(self, tmp_path, capsys, monkeypatch,
                                                         w):
        # (4w/|v|^4)^m overflows at the top and underflows to 0 at the bottom
        monkeypatch.setattr(lab_cli, "HESSIAN_ENERGIES", (float(w), float(w)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_one_line_usage_error(tmp_path, capsys, "hessian-check", "--pairs", "2")

    @pytest.mark.parametrize("argv", [("flow-trace", "--n", "-1"), ("flow-trace", "--n", "0"),
                                      ("hessian-check", "--n", "0")])
    def test_dimension_below_one(self, tmp_path, capsys, argv):
        self.assert_one_line_usage_error(tmp_path, capsys, *argv)

    def test_words_base_not_above_one(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "words-count", "--alpha", "0.04",
                                         "--rho", "0.9", "--j-min", "40", "--j-max", "41",
                                         "--base", "0")

    def test_negative_seed(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "--seed", "-1", "hessian-check")

    def test_normalizer_index_past_the_group(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_group_element(random_group_element(np.random.default_rng(93), 3), str(path))
        self.assert_one_line_usage_error(tmp_path, capsys, "group-decompose", "--input",
                                         str(path), "--mode", "normalizer", "--l", "9")

    @pytest.mark.parametrize("arc", [[0.3, 0.3], [0.5, 0.2], [-0.1, 0.5], [0.5, 1.5],
                                     [0.1, math.nan], [0.1, math.inf], [0.1]])
    def test_sphere_band_arc_that_is_not_an_arc(self, tmp_path, capsys, arc):
        # [0.3, 0.3] used to warn and certify, [0.5, 0.2] to certify the empty set
        spec = self.input_json(tmp_path, {"band": {**BAND["band"], "arc": arc}})
        self.assert_one_line_usage_error(tmp_path, capsys, "sphere-porosity", "--set", spec,
                                         "--nu", "0.1", "--alpha0", "0.45", "--alpha1", "0.9",
                                         prefix="error: arc must be two numbers")

    @pytest.mark.parametrize("field, value", [("chi_gap", 0.4), ("chi_width", 0.3),
                                              ("arc_minus", [0.5, 0.75]),
                                              ("arc_plus", [0.0, 0.25])])
    @pytest.mark.parametrize("core", ["log_phase", "fourier"])
    def test_log_phase_geometry_is_not_a_config_field(self, tmp_path, capsys, core, field,
                                                      value):
        # the arcs and the cutoff are fixed; a config naming one, even at its value, is refused
        cfg = self.input_json(tmp_path, {"core": core, "n": 1,
                                         "ladder": [108, 324, 972, 2916], field: value})
        self.assert_one_line_usage_error(tmp_path, capsys, "fup-scan", "--config", cfg,
                                         prefix=f"config error: unknown config fields: "
                                                f"['{field}']")

    def test_cantor_declaration_without_axes(self, tmp_path, capsys):
        spec = self.input_json(tmp_path, {"cantor": {**CANTOR["cantor"], "depth": 2, "dims": 0}})
        self.assert_one_line_usage_error(tmp_path, capsys, "porosity-check", "--set", spec,
                                         "--nu", "0.1", "--alpha0", "0.1", "--alpha1", "1",
                                         prefix="error: a Cantor set needs at least one axis")

    def test_scan_ladder_of_one_scale(self, tmp_path, capsys):
        # used to fit a beta from a single h and print "sanity pass"
        cfg = self.input_json(tmp_path, {"core": "fourier", "n": 1, "ladder": [27, 27, 27, 27]})
        self.assert_one_line_usage_error(tmp_path, capsys, "fup-scan", "--config", cfg,
                                         prefix="config error: ladder values [27, 27, 27, 27] "
                                                "repeat")

    @pytest.mark.parametrize("command, prefix", [("porosity-check", "error"),
                                                 ("fup-scan", "config error")])
    def test_box_set_whose_raster_is_over_the_grid_budget(self, tmp_path, command, prefix):
        # refused before the raster is allocated: 10^12 cells used to end in numpy's
        # _ArrayMemoryError traceback (931 GiB), in a fup-scan before its config was checked
        boxes = {"boxes": [[[0.1], [0.2]]], "resolution": 10 ** 12, "dims": 1}
        if command == "porosity-check":
            argv = ["--set", self.input_json(tmp_path, boxes), "--nu", "0.1", "--alpha0", "0.5",
                    "--alpha1", "1"]
        else:
            argv = ["--config", self.input_json(tmp_path, {"core": "fourier", "ladder": [27, 81],
                                                           "set_minus": boxes,
                                                           "set_plus": boxes})]
        proc = fresh_cli(tmp_path / "out", command, *argv, address_space=2 ** 29)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert proc.stdout.splitlines() == [
            f"{prefix}: a mask of 1000000000000 cells per axis in 1-D overflows the grid budget"]

    def test_fio_ladder_point_past_a_budget(self, tmp_path, capsys):
        # 4 * 3^15 nodes, refused before anything is allocated; 4 * 3^14 used to end
        # in numpy's traceback for a 2 GiB array of node differences
        self.assert_one_line_usage_error(tmp_path, capsys, "fio-sphere", "--ladder",
                                         "57395628", "108", "324", "972",
                                         prefix="config error: ladder value 57395628: a "
                                                "circle grid")

    def test_fio_ladder_of_one_scale(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "fio-sphere", "--ladder",
                                         "108", "108", "108", "108",
                                         prefix="config error: ladder values")

    def test_flow_generator_label_of_no_generator(self, tmp_path, capsys):
        # used to end in a bare ValueError from int()
        self.assert_one_line_usage_error(tmp_path, capsys, "flow-trace", "--generator", "Rx",
                                         prefix="error: bad generator label 'Rx'")

    def test_fio_ladder_values_below_two(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "fio-sphere", "--ladder",
                                         "0", "1", "2", "3", prefix="config error:")

    @pytest.mark.parametrize("payload", [{"phase_quadratic": 0.1}, {"dense_limit": 81},
                                         {"core": "general_phase"}])
    def test_fup_config_naming_a_removed_setting(self, tmp_path, capsys, payload):
        cfg = self.input_json(tmp_path, {"n": 1, "ladder": [27, 81], **payload})
        self.assert_one_line_usage_error(tmp_path, capsys, "fup-scan", "--config", cfg,
                                         prefix="config error: unknown")

    @pytest.mark.parametrize("alpha0", ["0", "-1"])
    @pytest.mark.parametrize("mode", ["ball", "line"])
    def test_porosity_scales_not_positive_and_ordered(self, tmp_path, capsys, alpha0, mode):
        spec = self.input_json(tmp_path, CANTOR)
        self.assert_one_line_usage_error(tmp_path, capsys, "porosity-check", "--set", spec,
                                         "--nu", "0.08", "--alpha0", alpha0, "--alpha1", "1.0",
                                         "--mode", mode,
                                         prefix="error: need 0 < alpha0 <= alpha1")

    @pytest.mark.parametrize("argv", [("flow-trace", "--tol", "0"),
                                      ("group-decompose", "--input", "{g}", "--tol", "-1")])
    def test_tolerance_not_positive(self, tmp_path, capsys, argv):
        path = tmp_path / "g.txt"
        write_group_element(random_group_element(np.random.default_rng(93), 3), str(path))
        self.assert_one_line_usage_error(tmp_path, capsys,
                                         *(a.format(g=path) for a in argv))

    # A flag with a range of its own: argv with {v} for its value, the bound it
    # takes, one step past the bound, and the refusal there.
    @pytest.mark.parametrize("argv, bound, past, refusal", [
        (["--seed", "{v}", "hessian-check"], "0", "-1", "must be at least 0"),
        (["algebra-verify", "--n-min", "{v}", "--n-max", "1"], "1", "0", "must be at least 1"),
        (["flow-trace", "--n", "{v}"], "1", "0", "must be at least 1"),
        (["flow-trace", "--steps", "{v}"], "1", "0", "must be at least 1"),
        (["flow-trace", "--tol", "{v}"], "5e-324", "0", "must exceed 0"),
        (["group-decompose", "--input", "g.txt", "--tol", "{v}"], "5e-324", "-0.0",
         "must exceed 0"),
        (["sphere-porosity", "--set", "band.json", "--nu", "0.1", "--alpha0", "0.45",
          "--alpha1", "0.9", "--charts", "{v}"], "1", "0", "must be at least 1"),
        (["sphere-porosity", "--set", "band.json", "--nu", "0.1", "--alpha0", "0.45",
          "--alpha1", "0.9", "--resolution", "{v}"], "1", "0", "must be at least 1"),
        (["words-count", "--alpha", "0.04", "--rho", "0.9", "--j-min", "40", "--j-max", "41",
          "--base", "{v}"], "1.0000000000000002", "1", "must exceed 1"),
        (["hessian-check", "--n", "{v}"], "1", "0", "must be at least 1"),
        (["hessian-check", "--pairs", "{v}"], "1", "0", "must be at least 1"),
        (["words-count", "--alpha", "0.04", "--rho", "0.9", "--j-min", "{v}", "--j-max", "41"],
         "1", "0", "must be at least 1"),
        (["words-count", "--alpha", "0.04", "--rho", "0.9", "--j-min", "1", "--j-max", "{v}"],
         "1", "0", "must be at least 1"),
    ], ids=["seed", "n-min", "flow-n", "steps", "flow-tol", "decompose-tol", "charts",
            "resolution", "base", "hessian-n", "pairs", "j-min", "j-max"])
    def test_flag_range_is_refused_by_the_parser(self, tmp_path, capsys, argv, bound, past,
                                                 refusal):
        flag = argv[argv.index("{v}") - 1]
        args = lab_cli.build_parser().parse_args([a.format(v=bound) for a in argv])
        assert getattr(args, flag.lstrip("-").replace("-", "_")) == float(bound)
        self.assert_one_line_usage_error(tmp_path, capsys, *(a.format(v=past) for a in argv),
                                         prefix=f"error: argument {flag}: {refusal}, "
                                                f"got '{past}'")

    @pytest.mark.parametrize("argv, csv_name", [
        (["flow-trace", "--steps", "1"], "flow_trace.csv"),
        (["--seed", "0", "hessian-check", "--pairs", "1"], "hessian_check.csv"),
        (["sphere-porosity", "--set", "{band}", "--nu", "0.1", "--alpha0", "0.45",
          "--alpha1", "0.9", "--charts", "1"], None),
        (["words-count", "--alpha", "0.04", "--rho", "0.9", "--j-min", "40", "--j-max", "41",
          "--base", "1.0000000000000002"], "words_count.csv"),
    ], ids=["steps", "seed", "charts", "base"])
    def test_flag_at_its_bound_runs(self, tmp_path, argv, csv_name):
        band = write_json(tmp_path / "band.json", BAND)
        out = tmp_path / "out"
        assert main(["--out", str(out), *(a.format(band=band) for a in argv)]) == 0
        if csv_name is not None:
            assert len((out / csv_name).read_text().splitlines()) >= 2

    def test_tolerance_is_not_a_global_flag(self, tmp_path):
        assert main(["--out", str(tmp_path), "--tol", "1e-10", "hessian-check"]) == 1

    @pytest.mark.parametrize("argv", [
        ["porosity-check", "--set", "x.json", "--nu", "0.1"],    # required flags missing
        ["--tol", "1", "hessian-check"],                          # flag before its subcommand
        ["no-such-command"],
        [],
        ["hessian-check", "--pairs", "many"],                     # not an integer
        ["porosity-check", "--set", "x.json", "--nu", "0.1", "--alpha0", "0.1",
         "--alpha1", "1", "--mode", "disc"],                      # not a choice
    ], ids=["missing", "misplaced", "unknown-command", "no-command", "bad-int", "bad-choice"])
    def test_parse_errors_take_one_line(self, tmp_path, capsys, argv):
        self.assert_one_line_usage_error(tmp_path, capsys, *argv)

    def test_help_still_exits_zero(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--help"]) == 0
        assert "usage: fuplab" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", [
        {"boxes": [[[0.1], [0.4]]], "resolution": 27, "dims": 2},
        {"boxes": [[[0.1, 0.1], [0.4]]], "resolution": 27, "dims": 2},
        {"boxes": [[0.1, 0.4]], "resolution": 27, "dims": 1},
    ], ids=["short-corners", "ragged-corners", "scalar-corners"])
    def test_box_corners_of_the_wrong_length(self, tmp_path, capsys, spec):
        good = {"boxes": [[[0.1, 0.1], [0.4, 0.4]]], "resolution": 27, "dims": 2}
        path = self.input_json(tmp_path, spec)
        self.assert_one_line_usage_error(tmp_path, capsys, "porosity-check", "--set", path,
                                         "--nu", "0.1", "--alpha0", "0.111", "--alpha1", "1")
        cfg = write_json(tmp_path / "in" / "fup.json",
                         {"core": "fourier", "n": spec["dims"], "ladder": [27, 81, 243, 729],
                          "set_minus": spec, "set_plus": good})
        self.assert_one_line_usage_error(tmp_path, capsys, "fup-scan", "--config", cfg,
                                         prefix="config error:")

    @pytest.mark.parametrize("box", [[[0.5], [0.2]], [[-0.1], [0.4]], [[0.2], [1.5]]],
                             ids=["inverted", "below-the-cube", "above-the-cube"])
    def test_box_that_clipping_would_change(self, tmp_path, capsys, box):
        # the inverted box used to vanish: porosity-check certified the empty
        # set and fup-scan printed "sanity pass" over a ladder of zero norms
        spec = {"boxes": [[[0.1], [0.4]], box], "resolution": 27, "dims": 1}
        path = self.input_json(tmp_path, spec)
        self.assert_one_line_usage_error(tmp_path, capsys, "porosity-check", "--set", path,
                                         "--nu", "0.5", "--alpha0", "0.3", "--alpha1", "1",
                                         prefix="error: box 1 ")
        cfg = write_json(tmp_path / "in" / "fup.json",
                         {"core": "fourier", "n": 1, "ladder": [27, 81, 243, 729],
                          "set_plus": spec})
        self.assert_one_line_usage_error(tmp_path, capsys, "fup-scan", "--config", cfg,
                                         prefix="config error: box 1 ")

    @pytest.mark.parametrize("argv, payload, prefix", [
        (["porosity-check", "--set", "{path}", "--nu", "0.5", "--alpha0", "0.3", "--alpha1", "1"],
         {"boxes": [[[0.1], [0.4]]], "dims": 1}, "error: missing field 'resolution'"),
        (["sphere-porosity", "--set", "{path}", "--nu", "0.1", "--alpha0", "0.45",
          "--alpha1", "0.9"], CANTOR, "error: missing field 'band'"),
        (["fup-scan", "--config", "{path}"],
         {"core": "fourier", "n": 1, "ladder": [27, 81, 243, 729],
          "set_plus": {"boxes": [[[0.1], [0.4]]], "dims": 1}},
         "config error: missing field 'resolution'"),
    ], ids=["porosity-check", "sphere-porosity", "fup-scan"])
    def test_missing_field_is_named(self, tmp_path, capsys, argv, payload, prefix):
        path = self.input_json(tmp_path, payload)
        self.assert_one_line_usage_error(tmp_path, capsys, *(a.format(path=path) for a in argv),
                                         prefix=prefix)

    @pytest.mark.parametrize("mode", ["ball", "line"])
    def test_porosity_field_over_budget(self, tmp_path, capsys, mode):
        # used to print numpy's "Maximum allowed dimension exceeded"
        spec = self.input_json(tmp_path, CANTOR)
        self.assert_one_line_usage_error(tmp_path, capsys, "porosity-check", "--set", spec,
                                         "--nu", "0.5", "--alpha0", "0.333", "--alpha1", "1e300",
                                         "--mode", mode, prefix="error: a distance field of")

    @pytest.mark.parametrize("payload", [
        {"core": "fourier", "n": 2, "ladder": [27],
         "set_minus": {"boxes": [[[0.1], [0.4]]], "resolution": 27, "dims": 1},
         "set_plus": {"boxes": [[[0.1], [0.4]]], "resolution": 27, "dims": 1}},
        {"core": "log_phase", "ladder": [108], "lower_bound_mode": True,
         "set_minus": {"boxes": [[[0.1], [0.4]]], "resolution": 27, "dims": 1}},
        {"core": "fourier", "ladder": [27], "w_list": [0.5, 2.0]},
    ], ids=["sets-of-another-dimension", "log-phase-with-sets", "fourier-with-energies"])
    def test_fup_config_that_the_run_would_ignore(self, tmp_path, capsys, payload):
        cfg = self.input_json(tmp_path, payload)
        self.assert_one_line_usage_error(tmp_path, capsys, "fup-scan", "--config", cfg,
                                         prefix="config error:")

    @pytest.mark.parametrize("ladder", [[0, 3, 9, 27], [2, 4]])
    def test_fup_ladder_that_the_cantor_family_cannot_take(self, tmp_path, capsys, ladder):
        cfg = self.input_json(tmp_path, {"core": "fourier", "n": 1, "ladder": ladder})
        self.assert_one_line_usage_error(tmp_path, capsys, "fup-scan", "--config", cfg,
                                         prefix="config error:")

    def test_cantor_mask_past_the_grid_budget(self, tmp_path, capsys):
        # 3^14 cells per axis in 2-D used to end in numpy's 20.8 TiB _ArrayMemoryError
        spec = self.input_json(tmp_path, {"cantor": {**CANTOR["cantor"], "depth": 14, "dims": 2}})
        self.assert_one_line_usage_error(tmp_path, capsys, "porosity-check", "--set", spec,
                                         "--nu", "0.1", "--alpha0", "0.1", "--alpha1", "1",
                                         prefix="error: a mask of 4782969 cells per axis in 2-D")

    @pytest.mark.parametrize("payload, prefix", [
        ({"n": 2, "ladder": [4782969, 27, 81, 243]},
         "config error: ladder value 4782969: the Cantor family's support"),
        ({"n": 1, "ladder": [847288609443, 27, 81, 243],
          "set_minus": {"boxes": [[[0.1], [0.4]]], "resolution": 27, "dims": 1},
          "set_plus": {"boxes": [[[0.6], [0.9]]], "resolution": 27, "dims": 1}},
         "config error: ladder value 847288609443: a raster of 847288609443^1 cells"),
        ({"n": 1, "ladder": [847288609443, 27, 81, 243]},
         "config error: ladder value 847288609443: the Cantor family's support"),
        ({"n": 1, "ladder": [43046721, 27, 81, 243], "rho": 0.9},
         "config error: ladder value 43046721: the Cantor family's thickened support takes up "
         "to 319488 cells"),
        ({"n": 1, "cantor_base": 4, "cantor_kept": [0, 3], "ladder": [4 ** 16, 16, 64, 256]},
         "config error: ladder value 4294967296: flat indices or DFT phases overflow int64"),
    ], ids=["2d-cantor-3^14", "explicit-sets-3^25", "1d-cantor-3^25", "thickened-3^16",
            "base-4-cantor-4^16"])
    def test_fup_ladder_point_past_its_budget(self, tmp_path, capsys, payload, prefix):
        # the first two used to end in numpy's _ArrayMemoryError (20.8 and 6.16 TiB)
        cfg = self.input_json(tmp_path, {"core": "fourier", **payload})
        self.assert_one_line_usage_error(tmp_path, capsys, "fup-scan", "--config", cfg,
                                         prefix=prefix)

    def test_thickened_point_past_the_support_bound_in_a_fresh_process(self, tmp_path):
        # refused from counts before anything is allocated: the process stays
        # within 512 MB of address space, where one complex array of the
        # 3^16-cell grid takes 689 MB
        cfg = self.input_json(tmp_path, {"core": "fourier", "n": 1, "ladder": [3 ** 16],
                                         "rho": 0.9})
        proc = fresh_cli(tmp_path / "out", "fup-scan", "--config", cfg, address_space=2 ** 29)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert proc.stdout.splitlines() == [
            "config error: ladder value 43046721: the Cantor family's thickened support takes "
            "up to 319488 cells, over the budget of 262144"]

    def test_declined_plan_past_the_fft_budget_is_refused(self, tmp_path, capsys, monkeypatch):
        # the thickened 3^15 point runs on the pruned plan; without it the
        # FFT route would need arrays of the whole 3^15-cell grid
        monkeypatch.setattr(fup_numerics._PrunedDft, "build",
                            classmethod(lambda cls, *args, **kwargs: None))
        cfg = self.input_json(tmp_path, {"core": "fourier", "n": 1, "ladder": [3 ** 15],
                                         "rho": 0.9})
        self.assert_one_line_usage_error(
            tmp_path, capsys, "fup-scan", "--config", cfg,
            prefix="config error: the pruned plan declines these supports, and an FFT of the "
                   "14348907^1 grid is over the budget of 10000000 cells")

    @pytest.mark.parametrize("argv", [
        ["porosity-check", "--set", "{cantor}", "--nu", "0.08", "--alpha0", "0.111",
         "--alpha1", "inf"],
        ["sphere-porosity", "--set", "{band}", "--nu", "0.1", "--alpha0", "0.45",
         "--alpha1", "inf"],
    ], ids=["porosity-scale", "sphere-scale"])
    def test_infinite_float_that_overflowed(self, tmp_path, capsys, argv):
        (tmp_path / "in").mkdir()
        files = {"cantor": write_json(tmp_path / "in" / "cantor.json", CANTOR),
                 "band": write_json(tmp_path / "in" / "band.json", BAND)}
        self.assert_one_line_usage_error(tmp_path, capsys, *(a.format(**files) for a in argv),
                                         prefix="error: argument --")

    def test_flow_time_whose_boost_overflows(self, tmp_path, capsys):
        # cosh(t) leaves the float range just past t = 710.47
        self.assert_one_line_usage_error(tmp_path, capsys, "flow-trace", "--t1", "720",
                                         "--steps", "2", prefix="error: boost time t=720.0")
        assert main(["--out", str(tmp_path), "flow-trace", "--t1", "710", "--steps", "2"]) == 0
        assert (tmp_path / "flow_trace.csv").exists()

    def test_flow_time_whose_horospherical_square_overflows(self, tmp_path, capsys):
        # |v|^2 = t^2 leaves the float range just past t = 1.34e154
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.assert_one_line_usage_error(tmp_path, capsys, "flow-trace", "--generator",
                                             "U1+", "--t1", "1e200", "--steps", "2",
                                             prefix="error: horospherical parameter v=")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert main(["--out", str(tmp_path), "flow-trace", "--generator", "U1-",
                     "--t1", "1.3e154", "--steps", "2"]) == 0
        assert "nan" not in (tmp_path / "flow_trace.csv").read_text()

    def test_flow_frame_whose_product_overflows(self, tmp_path, capsys):
        # the flow's own matrix is finite at t = 1.3e154; the frame times it is not
        (tmp_path / "in").mkdir()
        frame = str(tmp_path / "in" / "g.txt")
        write_group_element(random_group_element(np.random.default_rng(5), 2), frame)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.assert_one_line_usage_error(tmp_path, capsys, "flow-trace", "--frame", frame,
                                             "--generator", "U1+", "--t1", "1.3e154",
                                             "--steps", "2", prefix="error: flow time t=1.3e+154")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert main(["--out", str(tmp_path), "flow-trace", "--frame", frame, "--generator",
                     "U1+", "--t1", "1e150", "--steps", "2"]) == 0
        assert "inf" not in (tmp_path / "flow_trace.csv").read_text()

    @pytest.mark.parametrize("argv", [["group-decompose", "--input", "{frame}"],
                                      ["flow-trace", "--frame", "{frame}", "--steps", "2"]],
                             ids=["group-decompose", "flow-trace"])
    def test_stored_frame_whose_form_check_overflows(self, tmp_path, capsys, argv):
        # entries near 5e303: m^T J m leaves the float range, so the frame is refused
        (tmp_path / "in").mkdir()
        frame = str(tmp_path / "in" / "big.txt")
        write_group_element(exp_flow(generator("X", n=2), 700.0), frame)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.assert_one_line_usage_error(
                tmp_path, capsys, *(a.format(frame=frame) for a in argv),
                prefix="error: matrix is not in SO0(1,n+1): form residual inf")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("value", [5.9, True, "6"], ids=["float", "bool", "string"])
    @pytest.mark.parametrize("field", ["base", "kept_digits", "depth", "dims"])
    def test_cantor_spec_field_that_is_not_an_integer(self, tmp_path, capsys, field, value):
        decl = dict(CANTOR["cantor"], **{field: [0, value] if field == "kept_digits" else value})
        spec = self.input_json(tmp_path, {"cantor": decl})
        self.assert_one_line_usage_error(tmp_path, capsys, "porosity-check", "--set", spec,
                                         "--nu", "0.08", "--alpha0", "0.111", "--alpha1", "1.0",
                                         prefix=f"error: {field} must be an integer")

    @pytest.mark.parametrize("field, value", [("dims", 1.5), ("dims", True),
                                              ("resolution", 27.9), ("resolution", "27")])
    def test_box_spec_field_that_is_not_an_integer(self, tmp_path, capsys, field, value):
        spec = self.input_json(tmp_path, {"boxes": [[[0.1], [0.4]]], "resolution": 27,
                                          "dims": 1, field: value})
        self.assert_one_line_usage_error(tmp_path, capsys, "porosity-check", "--set", spec,
                                         "--nu", "0.1", "--alpha0", "0.111", "--alpha1", "1",
                                         prefix=f"error: {field} must be an integer")

    @pytest.mark.parametrize("field, value", [
        ("ladder", [27.9, 81, 243, 729]), ("ladder", ["27", 81, 243, 729]),
        ("ladder", [True, 81]), ("cantor_kept", [0, 2.0]), ("cantor_base", 3.5),
        ("n", True), ("seed", 1.5),
    ])
    def test_fup_config_field_that_is_not_an_integer(self, tmp_path, capsys, field, value):
        cfg = self.input_json(tmp_path, {"core": "fourier", "n": 1, "ladder": [27, 81],
                                         field: value})
        self.assert_one_line_usage_error(tmp_path, capsys, "fup-scan", "--config", cfg,
                                         prefix=f"config error: {field} must be an integer")

    @pytest.mark.parametrize("field, value, prefix", [
        ("lower_bound_mode", "no", "lower_bound_mode must be true or false"),
        ("lower_bound_mode", 1, "lower_bound_mode must be true or false"),
        ("rho", True, "rho must be a number"), ("rho", "0.9", "rho must be a number"),
        ("w_list", [True], "w_list must be a number"),
    ])
    def test_fup_config_field_of_the_wrong_type(self, tmp_path, capsys, field, value, prefix):
        # "no" used to turn the probe on, true to run rho = 1 and [true] to run w = 1
        core = "fourier" if field in ("lower_bound_mode", "rho") else "log_phase"
        cfg = self.input_json(tmp_path, {"core": core, "n": 1, field: value,
                                         "ladder": [27, 81] if core == "fourier" else [108, 324]})
        self.assert_one_line_usage_error(tmp_path, capsys, "fup-scan", "--config", cfg,
                                         prefix=f"config error: {prefix}")

    @pytest.mark.parametrize("step", ["1e300", "1e-300"])
    def test_hessian_step_whose_determinant_is_not_finite(self, tmp_path, capsys, monkeypatch,
                                                          step):
        # 1e300 overflows every probe to nan; 1e-300 squared underflows to zero
        monkeypatch.setattr(lab_cli, "HESSIAN_FD_STEP", float(step))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.assert_one_line_usage_error(tmp_path, capsys, "hessian-check", "--pairs", "3")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_energy_whose_phase_float64_cannot_resolve(self, tmp_path, capsys):
        # at w = 1e300 the phase (2w/h) log(d/2) is of order 1e303 rad
        self.assert_one_line_usage_error(tmp_path, capsys, "fio-sphere", "--w", "1e300",
                                         "--ladder", "108", "324", "972", "2916",
                                         prefix="config error: w=")
        cfg = self.input_json(tmp_path, {"core": "log_phase", "ladder": [108, 324],
                                         "w_list": [1.0, 1e300]})
        self.assert_one_line_usage_error(tmp_path, capsys, "fup-scan", "--config", cfg,
                                         prefix="config error: w=")

    @pytest.mark.parametrize("argv", [
        ["sphere-porosity", "--set", "{band}", "--nu", "0.1", "--alpha0", "0.45",
         "--alpha1", "0.9", "--charts", "0"],
        ["hessian-check", "--n", "-1"],          # used to loop forever
        # base^-j used to overflow a float with a traceback
        ["words-count", "--alpha", "0.04", "--rho", "0.9", "--j-min", "-2000",
         "--j-max", "-1999"],
    ])
    def test_fresh_process_exits_one_without_traceback(self, tmp_path, argv):
        band = write_json(tmp_path / "band.json", BAND)
        proc = fresh_cli(tmp_path, *(a.format(band=band) for a in argv))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stdout.splitlines()) == 1 and proc.stdout.startswith("error:")

    def test_fresh_process_parse_error_takes_one_line(self, tmp_path):
        proc = fresh_cli(tmp_path, "porosity-check", "--set", "x.json", "--nu", "0.1")
        assert proc.returncode == 1
        lines = [ln for ln in (proc.stdout + proc.stderr).splitlines() if ln.strip()]
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


# Every numeric flag of each subcommand, with the value it takes when the draw
# is "default": None leaves it to argparse, and required flags get the README
# value.  File arguments are fixed; group-decompose runs the normalizer so
# that --l is read.
NUMERIC_FLAGS = {
    "algebra-verify": {"--n-min": None, "--n-max": None},
    "flow-trace": {"--n": None, "--t0": None, "--t1": None, "--steps": None, "--tol": None},
    "group-decompose": {"--l": None, "--tol": None},
    "porosity-check": {"--nu": "0.08", "--alpha0": "0.111", "--alpha1": "1.0",
                       "--directions": None},
    "sphere-porosity": {"--nu": "0.1", "--alpha0": "0.45", "--alpha1": "0.9",
                        "--charts": None, "--resolution": None, "--directions": None},
    "fup-scan": {},
    "fio-sphere": {"--w": None, "--ladder": None, "--rho": None},
    "words-count": {"--alpha": "0.04", "--rho": "0.9", "--j-min": "40", "--j-max": "60",
                    "--base": None},
    "hessian-check": {"--n": None, "--pairs": None},
}
FILE_ARGS = {
    "group-decompose": ["--input", "{g}", "--mode", "normalizer"],
    "porosity-check": ["--set", "{cantor}"],
    "sphere-porosity": ["--set", "{band}"],
    "fup-scan": ["--config", "{fup}"],
}
# Half the draws keep the default, so that most runs get past the usage checks.
EDGE = st.one_of(st.none(), st.sampled_from(("-1", "0", "1", "2", "inf", "nan")))
# More edges of some flags: base^-j at j = -2000 used to overflow a float.
FLAG_EDGES = {"--j-min": st.one_of(EDGE, st.just("-2000"))}


def _numeric_flags(parser) -> list[str]:
    """The flags of a parser whose argparse type is an int or float cast."""
    return [flag for action in parser._actions if action.option_strings
            and getattr(action.type, "__name__", None) in ("int", "_finite_float")
            for flag in action.option_strings]


def _subparsers() -> dict:
    parser = lab_cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_numeric_flags_cover_the_parser():
    # a subcommand or global flag missing from NUMERIC_FLAGS would escape the argv
    # property test
    assert _numeric_flags(lab_cli.build_parser()) == ["--seed"]
    assert sorted(_subparsers()) == sorted(NUMERIC_FLAGS)


@pytest.mark.parametrize("cmd", sorted(NUMERIC_FLAGS))
def test_numeric_flags_are_those_of_the_parser(cmd):
    # a numeric flag missing from NUMERIC_FLAGS would escape the argv property test
    assert sorted(_numeric_flags(_subparsers()[cmd])) == sorted(NUMERIC_FLAGS[cmd])


@st.composite
def cli_argv(draw):
    argv = []
    seed = draw(EDGE)
    argv += [] if seed is None else ["--seed", seed]
    cmd = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    argv += [cmd, *FILE_ARGS.get(cmd, [])]
    for flag, default in NUMERIC_FLAGS[cmd].items():
        value = draw(FLAG_EDGES.get(flag, EDGE)) or default
        if value is not None:
            argv += [flag, *[value] * (4 if flag == "--ladder" else 1)]
    return argv


# Edge values of the fields of the input files, each drawn or left as written
# half the time.  dims stops at 1, since a 2-D set at depth 6 takes seconds to
# decide; core is drawn so that the log-phase checks run too.
FILE_EDGES = {
    "cantor": {"dims": (-1, 0, 1), "depth": (-1, 0, 1, 2, 1.5), "base": (-1, 0, 2, 4)},
    "band": {"arc": ([0.3, 0.3], [0.5, 0.2], [0.0, 1.0], [-0.1, 0.5], [0.1, math.nan],
                     [0.1], "arc")},
    "fup": {"core": ("log_phase",), "ladder": ([27, 27, 27, 27], [27, 81], [0, 1, 2, 3],
                                               [3, 9, 27, 81])},
}


@st.composite
def input_files(draw):
    """The contents of cantor.json, band.json and fup.json, some fields at edge values."""
    fields = {"cantor": dict(CANTOR["cantor"]), "band": dict(BAND["band"]),
              "fup": {"core": "fourier", "n": 1, "ladder": [27, 81, 243, 729]}}
    for name, edges in FILE_EDGES.items():
        for key, values in edges.items():
            value = draw(st.one_of(st.none(), st.sampled_from(values)))
            if value is not None:
                fields[name][key] = value
    return {"cantor": {"cantor": fields["cantor"]}, "band": {"band": fields["band"]},
            "fup": fields["fup"]}


class TestArgvContract:
    """Any edge value of any numeric flag or input-file field ends in a defined exit
    code, never a raise, and an exit 0 leaves at least one data row in every CSV it
    wrote."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=cli_argv(), inputs=input_files())
    def test_exit_code_is_defined_and_usage_errors_take_one_line(self, tmp_path, argv, inputs):
        files = {name: write_json(tmp_path / f"{name}.json", payload)
                 for name, payload in inputs.items()}
        files["g"] = str(tmp_path / "g.txt")
        write_group_element(random_group_element(np.random.default_rng(94), 3), files["g"])
        out = tempfile.mkdtemp(dir=tmp_path)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = main(["--out", out, *(a.format(**files) for a in argv)])
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert len([ln for ln in buf.getvalue().splitlines() if ln.strip()]) == 1
        if code == 0:
            for name in (f for f in os.listdir(out) if f.endswith(".csv")):
                with open(os.path.join(out, name)) as fh:
                    data = [ln for ln in fh.read().splitlines()[1:] if not ln.startswith("#")]
                assert data, f"exit 0 wrote no data row to {name}"
