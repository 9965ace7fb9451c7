import json
import os

import numpy as np
import pytest

from fuplab.lab_cli import load_set_spec, main, rerun_manifest
from fuplab.lorentz_core import random_group_element, write_group_element


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


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


class TestHessianCheck:
    def test_passes_at_default_tolerance(self, tmp_path):
        assert main(["--out", str(tmp_path), "hessian-check", "--n", "1",
                     "--pairs", "30"]) == 0

    def test_impossible_tolerance_exits_two(self, tmp_path):
        assert main(["--out", str(tmp_path), "hessian-check", "--n", "1",
                     "--pairs", "10", "--rel-tol", "1e-18"]) == 2


class TestFlowTrace:
    def test_csv_shape(self, tmp_path):
        assert main(["--out", str(tmp_path), "flow-trace", "--n", "2",
                     "--generator", "U1+", "--t0", "0", "--t1", "2",
                     "--steps", "5"]) == 0
        rows = (tmp_path / "flow_trace.csv").read_text().splitlines()
        assert len(rows) == 6
        assert rows[0].startswith("t,x0")


class TestSpherePorosity:
    def test_porous_band(self, tmp_path):
        spec = write_json(tmp_path / "band.json",
                          {"band": {"base": 3, "kept_digits": [0, 2], "depth": 4,
                                    "arc": [0.1, 0.35]}})
        code = main(["--out", str(tmp_path), "sphere-porosity", "--set", spec,
                     "--nu", "0.1", "--alpha0", "0.45", "--alpha1", "0.9"])
        assert code == 0


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

    def test_workers_do_not_change_results(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         {"core": "fourier", "n": 1, "ladder": [27, 81, 243, 729]})
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["--out", str(a), "fup-scan", "--config", cfg]) == 0
        assert main(["--out", str(b), "--workers", "2", "fup-scan", "--config", cfg]) == 0
        assert read_bytes(a / "fup_scan.csv") == read_bytes(b / "fup_scan.csv")


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


class TestUsageContract:
    """Inputs that parse but cannot be run exit 1 with one line and nothing written."""

    def assert_one_line_usage_error(self, tmp_path, capsys, *argv):
        assert main(["--out", str(tmp_path), *argv]) == 1
        captured = capsys.readouterr()
        lines = [ln for ln in (captured.out + captured.err).splitlines() if ln.strip()]
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert not any(p.suffix in (".csv", ".json") for p in tmp_path.iterdir())

    def test_unknown_flow_generator(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "flow-trace", "--generator", "Q9")

    def test_algebra_dimension_zero(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "algebra-verify", "--n-min", "0")

    def test_hessian_without_pairs(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "hessian-check", "--pairs", "0")

    def test_hessian_with_zero_difference_step(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "hessian-check", "--fd-step", "0")

    def test_flow_without_steps(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "flow-trace", "--steps", "0")

    def test_fio_ladder_too_short_to_fit(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "fio-sphere",
                                         "--ladder", "108", "324")

    def test_words_ladder_whose_h_underflows(self, tmp_path, capsys):
        self.assert_one_line_usage_error(tmp_path, capsys, "words-count", "--alpha", "0.04",
                                         "--rho", "0.9", "--j-min", "200", "--j-max", "1024")
