import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, **kwargs):
    # the subprocess imports this checkout's package, whatever the caller's path
    path = [os.path.join(PKG_ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-m", "gaussnm.cli", *args],
        capture_output=True, text=True, timeout=600, env=env, **kwargs,
    )


STATE1 = ["--n1", "0", "--r1", "0", "--phi1", "0",
          "--beta-mag1", "0", "--beta-arg1", "0"]
STATE2 = ["--n2", "1", "--r2", "0", "--phi2", "0",
          "--beta-mag2", "0", "--beta-arg2", "0"]


class TestFidelityCommand:
    def test_identical_states(self):
        same = ["--n2", "0", "--r2", "0", "--phi2", "0",
                "--beta-mag2", "0", "--beta-arg2", "0"]
        proc = run_cli("fidelity", *STATE1, *same)
        assert proc.returncode == 0
        assert "fidelity 1" in proc.stdout

    def test_vacuum_vs_thermal(self):
        proc = run_cli("fidelity", *STATE1, *STATE2)
        assert proc.returncode == 0
        assert "0.707106781187" in proc.stdout
        assert "bures_distance" in proc.stdout

    def test_missing_flag_exits_2(self):
        proc = run_cli("fidelity", *STATE1)  # second state absent
        assert proc.returncode == 2

    def test_invalid_value_names_flag(self):
        proc = run_cli("fidelity", "--n1", "-1", *STATE1[2:], *STATE2)
        assert proc.returncode == 2
        assert "--n1" in proc.stderr

    def test_unknown_flag_exits_2(self):
        proc = run_cli("fidelity", *STATE1, *STATE2, "--bogus", "1")
        assert proc.returncode == 2

    def test_help_lists_flags(self):
        proc = run_cli("fidelity", "--help")
        assert proc.returncode == 0
        for flag in ("--n1", "--r1", "--phi1", "--beta-mag1", "--beta-arg1"):
            assert flag in proc.stdout


class TestCoeffsCommand:
    def test_table_written(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        proc = run_cli("coeffs", "--omega0", "1", "--omega-c", "0.2",
                       "--T", "0", "--alpha", "0.05", "--t-end", "5",
                       "--n-steps", "50", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,gamma,delta,x,y"
        assert len(lines) == 52

    def test_bad_env_exits_2(self, tmp_path):
        proc = run_cli("coeffs", "--omega0", "-1", "--omega-c", "0.2",
                       "--alpha", "0.05", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2


class TestEvolveCommand:
    def test_damping_trajectory(self, tmp_path):
        out = tmp_path / "traj.csv"
        proc = run_cli("evolve", "--channel", "damping", "--alpha", "0.1",
                       "--n", "0", "--r", "0.5", "--phi", "0",
                       "--beta-mag", "1", "--beta-arg", "0",
                       "--t-end", "10", "--points", "21", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mean_q,mean_p,cov_qq,cov_qp,cov_pp"
        assert len(lines) == 22
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == pytest.approx(math.sqrt(2.0), rel=1e-10)

    def test_heisenberg_violation_exits_2(self, tmp_path):
        # a negative constant rate amplifies the squeezed quadrature
        out = tmp_path / "traj.csv"
        proc = run_cli("evolve", "--channel", "damping", "--alpha", "0.1",
                       "--rate", "constant", "--gamma0", "-0.5",
                       "--n", "0", "--r", "0.5", "--phi", "0",
                       "--beta-mag", "0", "--beta-arg", "0", "--out", str(out))
        assert proc.returncode == 2
        assert "Heisenberg" in proc.stderr

    def test_first_order_beyond_limit_warns_once(self, tmp_path):
        # |x| reaches 4.38 by t = 25; the coherent state stays physical
        proc = run_cli("evolve", "--channel", "damping", "--alpha", "0.5",
                       "--mode", "first-order", "--n", "0", "--r", "0",
                       "--phi", "0", "--beta-mag", "1", "--beta-arg", "0",
                       "--t-end", "25", "--points", "11",
                       "--out", str(tmp_path / "traj.csv"))
        assert proc.returncode == 0
        assert proc.stderr.count("ApproximationWarning") == 1
        assert "PhysicalityWarning" not in proc.stderr

    @pytest.mark.parametrize("n, warns", [("1", False), ("0", True)])
    def test_warns_only_about_written_state(self, tmp_path, n, warns):
        # the QBM solution dips below det = 1/4 for the vacuum (min det
        # 0.2411) but never for the n = 1 thermal state (min det 2.09)
        out = tmp_path / "traj.csv"
        proc = run_cli("evolve", "--channel", "qbm", "--alpha", "0.05",
                       "--T", "0.2", "--t-end", "40", "--n", n, "--r", "0",
                       "--phi", "0", "--beta-mag", "0", "--beta-arg", "0",
                       "--out", str(out))
        assert proc.returncode == 0
        assert ("PhysicalityWarning" in proc.stderr) is warns


class TestMeasureCommand:
    def test_closed_form_value(self):
        proc = run_cli("measure", "--channel", "damping", "--family",
                       "coherent", "--alpha", "0.1", "--method", "closed")
        assert proc.returncode == 0
        header, row = proc.stdout.strip().splitlines()
        assert header.startswith("family,channel,alpha")
        cells = row.split(",")
        assert float(cells[6]) == pytest.approx(0.0459, abs=5e-4)

    def test_divisible_rate_zero(self):
        proc = run_cli("measure", "--channel", "damping", "--family",
                       "squeezed", "--rate", "constant", "--gamma0", "0.5",
                       "--alpha", "0.1", "--method", "numeric",
                       "--t-end", "10")
        assert proc.returncode == 0
        value = float(proc.stdout.strip().splitlines()[1].split(",")[6])
        assert value <= 1e-9

    def test_closed_with_constant_rate_exits_3(self):
        proc = run_cli("measure", "--channel", "damping", "--family",
                       "coherent", "--rate", "constant", "--gamma0", "0.5",
                       "--alpha", "0.1", "--method", "closed")
        assert proc.returncode == 3
        assert "maximize" in proc.stderr or "numeric" in proc.stderr

    def test_qbm_numeric_vs_closed_agree(self):
        common = ["--channel", "qbm", "--family", "coherent", "--alpha",
                  "0.05", "--T", "0.2", "--omega0", "1", "--omega-c", "0.2",
                  "--t-end", "40", "--n-steps", "1200"]
        num = run_cli("measure", *common, "--method", "numeric")
        closed = run_cli("measure", *common, "--method", "closed")
        assert num.returncode == 0 and closed.returncode == 0
        v_num = float(num.stdout.strip().splitlines()[1].split(",")[6])
        v_closed = float(closed.stdout.strip().splitlines()[1].split(",")[6])
        assert abs(v_num - v_closed) <= 1e-4

    def test_qbm_closed_without_negativity_exits_3(self):
        proc = run_cli("measure", "--channel", "qbm", "--family", "coherent",
                       "--alpha", "0.05", "--T", "1.0", "--omega0", "1",
                       "--omega-c", "1", "--t-end", "20", "--n-steps", "600",
                       "--method", "closed")
        assert proc.returncode == 3

    def test_numeric_respects_r_max(self):
        proc = run_cli("measure", "--channel", "damping", "--family",
                       "squeezed", "--alpha", "0.1", "--method", "numeric",
                       "--r-max", "0.3")
        assert proc.returncode == 0
        header, row = proc.stdout.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert float(record["param_r1"]) <= 0.3
        assert float(record["param_r2"]) <= 0.3

    @pytest.mark.parametrize("family, method", [
        ("coherent", "numeric"), ("squeezed", "numeric"),
        ("squeezed", "first-order")])
    def test_negative_r_max_exits_2(self, family, method):
        proc = run_cli("measure", "--channel", "damping", "--family", family,
                       "--alpha", "0.1", "--method", method, "--r-max", "-1")
        assert proc.returncode == 2
        assert "r_max must be finite and >= 0, got -1.0" in proc.stderr

    def test_coherent_thermal_is_exact(self):
        proc = run_cli("measure", "--channel", "damping", "--alpha", "0.05",
                       "--family", "coherent-thermal")
        assert proc.returncode == 0
        header, row = proc.stdout.strip().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["method"] == "exact"

    def test_first_order_record(self):
        proc = run_cli("measure", "--channel", "damping", "--family",
                       "coherent-thermal", "--n-thermal", "0.5",
                       "--alpha", "0.05", "--method", "first-order")
        assert proc.returncode == 0
        value = float(proc.stdout.strip().splitlines()[1].split(",")[6])
        assert value == pytest.approx(0.4604 * 0.05 / 2.0, rel=1e-3)


class TestReproduceCommand:
    def test_fig2_writes_files(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "schema=1\nexperiment=fig2\nchannel=qbm\nomega0=4,6\n"
            "omega_c=1\nT=0,0.2\nT_unit=omega_c\nt_end=10\nn_steps=200\n"
            "workers=1\n"
        )
        out = tmp_path / "out"
        proc = run_cli("reproduce", "--figure", "2", "--config", str(cfg),
                       "--out", str(out))
        assert proc.returncode == 0
        data = np.genfromtxt(out / "fig2.csv", delimiter=",", names=True)
        assert len(data.dtype.names) == 1 + 4
        with open(out / "fig2_summary.json") as fh:
            assert json.load(fh)["experiment"] == "fig2"

    def test_repeat_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "schema=1\nexperiment=fig2\nchannel=qbm\nomega0=4\nomega_c=1\n"
            "T=0\nT_unit=omega_c\nt_end=5\nn_steps=100\nworkers=1\n"
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("reproduce", "--figure", "2", "--config", str(cfg),
                       "--out", str(a)).returncode == 0
        assert run_cli("reproduce", "--figure", "2", "--config", str(cfg),
                       "--out", str(b)).returncode == 0
        assert (a / "fig2.csv").read_bytes() == (b / "fig2.csv").read_bytes()

    def test_empty_list_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("schema=1\nexperiment=fig3\nchannel=qbm\nomega0=\n")
        out = tmp_path / "out"
        proc = run_cli("reproduce", "--figure", "3", "--config", str(cfg),
                       "--out", str(out))
        assert proc.returncode == 2
        assert "'omega0'" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_figure_config_mismatch_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("schema=1\nexperiment=fig2\n")
        proc = run_cli("reproduce", "--figure", "1", "--config", str(cfg),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2

    def test_unwritable_out_dir_exits_4(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("permission bits do not bind for root")
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        blocked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        proc = run_cli("reproduce", "--figure", "2", "--out",
                       str(blocked / "sub"))
        assert proc.returncode == 4

    def test_unwritable_out_path_exits_4(self, tmp_path):
        # a file where the directory should go
        clash = tmp_path / "clash"
        clash.write_text("occupied")
        proc = run_cli("reproduce", "--figure", "2", "--out", str(clash))
        assert proc.returncode == 4
