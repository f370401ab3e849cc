"""Tests for the command-line surface and its file formats."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import codedmask
from codedmask.cli import (EXIT_CERTIFICATE, EXIT_OK, EXIT_VALIDATION, main,
                           read_aperture_file, write_aperture_file)
from codedmask.model import Aperture

IID = "prior iid theta=1"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_needs_numpy_only():
    # The runtime depends on numpy alone; scipy is a test-only oracle.
    src = str(Path(codedmask.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, codedmask, codedmask.cli; "
             "print(sorted({'scipy', 'sympy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestApertureFile:
    def test_roundtrip_binary_exact(self, tmp_path):
        path = tmp_path / "a.txt"
        a = Aperture(np.array([1.0, 0.0, 1.0, 0.0, 0.0]))
        write_aperture_file(path, a)
        header = path.read_text().splitlines()[0]
        assert header == "n=5 dims=1 kind=binary"
        back = read_aperture_file(path)
        assert np.array_equal(back.values, a.values)

    def test_roundtrip_continuous_exact(self, tmp_path):
        path = tmp_path / "a.txt"
        rng = np.random.default_rng(0)
        a = Aperture(rng.random((6, 6)))
        write_aperture_file(path, a)
        assert "kind=continuous" in path.read_text().splitlines()[0]
        back = read_aperture_file(path)
        assert np.array_equal(back.values, a.values)
        assert back.dims == 2

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("n=4 dims=1 kind=binary\n1\n0\n1\n")
        with pytest.raises(ValueError):
            read_aperture_file(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("dims=1 kind=binary\n1\n")
        with pytest.raises(ValueError):
            read_aperture_file(path)


class TestDesign:
    def test_flat_677_has_169_ones(self, tmp_path, capsys):
        out = tmp_path / "mask.txt"
        code, stdout, _ = run(
            capsys, "design", "--n", "677", "--t", "1000", "--W", "0.001",
            "--J", "0.001", "--prior", IID, "--method", "flat",
            "--out", str(out))
        assert code == EXIT_OK
        assert read_aperture_file(out).values.sum() == 169
        assert "passed=True" in stdout

    def test_nazarov_deterministic_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a1.txt", tmp_path / "a2.txt"]
        for p in paths:
            code, _, _ = run(
                capsys, "design", "--n", "64", "--t", "500", "--W", "0.001",
                "--J", "0.001", "--prior", IID, "--method", "nazarov",
                "--seed", "1", "--out", str(p))
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_report_json(self, tmp_path, capsys):
        import json
        report = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "design", "--n", "32", "--t", "100", "--W", "0.001",
            "--J", "0.001", "--prior", IID, "--method", "nazarov",
            "--report", str(report))
        assert code == EXIT_OK
        data = json.loads(report.read_text())
        assert data["passed"] is True
        assert data["n"] == 32 and data["restarts"] >= 0

    def test_flat_invalid_length(self, capsys):
        code, _, err = run(
            capsys, "design", "--n", "8", "--t", "100", "--W", "0.001",
            "--J", "0.001", "--prior", IID, "--method", "flat")
        assert code == EXIT_VALIDATION

    def test_prior_from_file(self, tmp_path, capsys):
        prior = tmp_path / "p.txt"
        prior.write_text("prior iid theta=1\n")
        code, _, _ = run(
            capsys, "design", "--n", "7", "--t", "100", "--W", "0.001",
            "--J", "0.001", "--prior", str(prior), "--method", "flat")
        assert code == EXIT_OK


class TestEvaluate:
    def test_zero_mask_gives_prior_mass(self, tmp_path, capsys):
        path = tmp_path / "z.txt"
        write_aperture_file(path, Aperture(np.zeros(13)))
        code, stdout, _ = run(
            capsys, "evaluate", "--n", "13", "--t", "130", "--W", "0.001",
            "--J", "0.001", "--prior", "prior iid theta=0.01",
            "--aperture", str(path))
        assert code == EXIT_OK
        value = float(stdout.split("lmmse ")[1].split()[0])
        assert value == pytest.approx(0.01)

    def test_reference_mask_value(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        mask = np.array([1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0], dtype=float)
        write_aperture_file(path, Aperture(mask))
        code, stdout, _ = run(
            capsys, "evaluate", "--n", "13", "--t", "130", "--W", "0.001",
            "--J", "0.001", "--prior", "prior iid theta=0.01",
            "--aperture", str(path))
        assert code == EXIT_OK
        value = float(stdout.split("lmmse ")[1].split()[0])
        assert value == pytest.approx(0.0005829359913537399, rel=1e-10)
        bound = float(stdout.split("lowerbound_at_rho ")[1].split()[0])
        assert bound <= value + 1e-9

    def test_ideal_lens(self, capsys):
        code, stdout, _ = run(
            capsys, "evaluate", "--n", "13", "--t", "130", "--W", "0.001",
            "--J", "0.001", "--prior", "prior iid theta=0.01", "--ideal-lens")
        assert code == EXIT_OK
        value = float(stdout.split("lmmse ")[1].split()[0])
        assert value == pytest.approx(1.5360983102918587e-05, rel=1e-10)

    def test_needs_a_source(self, capsys):
        code, _, err = run(
            capsys, "evaluate", "--n", "13", "--t", "130", "--W", "0.001",
            "--J", "0.001", "--prior", IID)
        assert code == EXIT_VALIDATION

    def test_length_mismatch(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        write_aperture_file(path, Aperture(np.zeros(5)))
        code, _, _ = run(
            capsys, "evaluate", "--n", "13", "--t", "130", "--W", "0.001",
            "--J", "0.001", "--prior", IID, "--aperture", str(path))
        assert code == EXIT_VALIDATION


class TestSweep:
    def _sweep(self, capsys, tmp_path, name, **overrides):
        out = tmp_path / name
        argv = ["sweep", "--n", "11", "--W", "0.001", "--J", "0.001",
                "--prior", IID, "--t-min", "100", "--t-max", "10000",
                "--t-count", "4", "--trials", "2", "--random-grid", "5",
                "--seed", "3", "--out", str(out)]
        for k, v in overrides.items():
            argv += [k, v]
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_OK
        return out

    def test_schema_and_soundness(self, capsys, tmp_path):
        out = self._sweep(capsys, tmp_path, "s.csv")
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert meta and any("seed=3" in l for l in meta)
        rows = [l for l in lines if not l.startswith("#")]
        header = rows[0].split(",")
        assert header == ["t", "lmmse_lowerbound", "lmmse_flat",
                          "lmmse_nazarov", "lmmse_random_mean", "rho_star",
                          "rho_random_star", "seed"]
        ts = []
        for row in rows[1:]:
            cells = dict(zip(header, row.split(",")))
            ts.append(float(cells["t"]))
            lb = float(cells["lmmse_lowerbound"])
            for col in ("lmmse_flat", "lmmse_nazarov", "lmmse_random_mean"):
                assert lb <= float(cells[col]) + 1e-9
        assert ts == sorted(ts) and len(set(ts)) == len(ts)

    def test_deterministic_bytes(self, capsys, tmp_path):
        a = self._sweep(capsys, tmp_path, "a.csv")
        b = self._sweep(capsys, tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_method_subset_leaves_blank_cells(self, capsys, tmp_path):
        out = self._sweep(capsys, tmp_path, "c.csv",
                          **{"--methods": "lowerbound,nazarov"})
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")]
        cells = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert cells["lmmse_flat"] == "" and cells["lmmse_random_mean"] == ""
        assert cells["lmmse_nazarov"] != ""

    def test_invalid_method(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "sweep", "--n", "11", "--W", "0.001", "--J", "0.001",
            "--prior", IID, "--methods", "magic")
        assert code == EXIT_VALIDATION


class TestBruteforce:
    def test_zero_ones(self, capsys):
        code, stdout, _ = run(
            capsys, "bruteforce", "--n", "8", "--ones", "0", "--t", "100",
            "--W", "0.001", "--J", "0.001", "--theta", "1")
        assert code == EXIT_OK
        assert "classes 1" in stdout
        assert float(stdout.split("best_lmmse ")[1].split()[0]) == \
            pytest.approx(1.0)

    def test_guard(self, capsys):
        code, _, _ = run(
            capsys, "bruteforce", "--n", "30", "--ones", "3", "--t", "1",
            "--W", "0.001", "--J", "0.001", "--theta", "1")
        assert code == EXIT_VALIDATION


class TestTables:
    def test_beta_single(self, capsys):
        code, stdout, _ = run(capsys, "beta", "--n", "8")
        assert code == EXIT_OK
        row = stdout.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert float(row[2]) == pytest.approx(3 * np.pi, abs=1e-9)

    def test_beta_range(self, capsys):
        code, stdout, _ = run(capsys, "beta", "--n-max", "5")
        assert code == EXIT_OK
        assert len(stdout.splitlines()) == 6

    def test_residues(self, capsys):
        code, stdout, _ = run(capsys, "residues", "--e", "2",
                              "--n-max", "30")
        assert code == EXIT_OK
        ps = [int(l.split(",")[0]) for l in stdout.splitlines()[1:]]
        assert ps == [3, 7, 11, 19, 23]


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_VALIDATION

    def test_missing_required_flag(self, capsys):
        assert main(["design", "--n", "8"]) == EXIT_VALIDATION
