import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lcpmatch
from lcpmatch.cli import EXIT_ALGORITHM, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from lcpmatch.oracle import GenSpec, Instance, generate_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run_cli(
        capsys,
        "gen", "--m", "14", "--n", "12", "--k", "7",
        "--eps", "0.4", "--seed", "1", "--out", str(path),
    )
    assert code == EXIT_OK
    return path


@pytest.fixture
def exact_instance_file(tmp_path, capsys):
    path = tmp_path / "exact.json"
    code, _, _ = run_cli(
        capsys,
        "gen", "--m", "12", "--n", "12", "--k", "8",
        "--eps", "0", "--exact", "--seed", "3", "--out", str(path),
    )
    assert code == EXIT_OK
    return path


class TestGen:
    def test_writes_truth_k(self, instance_file):
        data = json.loads(instance_file.read_text())
        assert data["truth"]["k"] == 7
        assert len(data["P"]) == 14
        assert len(data["Q"]) == 12

    def test_exact_grid_and_zero_noise(self, exact_instance_file):
        data = json.loads(exact_instance_file.read_text())
        P = np.array(data["P"])
        assert np.array_equal(P, np.round(P))
        assert data["truth"]["noise"] == 0.0

    def test_missing_out_prints_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--m", "8", "--n", "6", "--k", "4", "--eps", "0.3", "--seed", "2"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["truth"]["k"] == 4


class TestMatch:
    def test_da_on_planted_instance(self, instance_file, capsys):
        code, out, _ = run_cli(
            capsys, "match", str(instance_file), "--algo", "da", "--seed", "1"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["algorithm"] == "da"
        assert report["result"]["raw_size"] >= 7
        assert report["result"]["size"] >= 7
        assert report["result"]["max_residual"] <= 4 * 0.4
        assert report["result"]["verified"] is True
        assert report["params"]["tolerant"] is True

    def test_ght_pair_pigeonhole_matches_all(self, exact_instance_file, capsys):
        sizes = {}
        for sampling in ("all", "pigeonhole"):
            code, out, _ = run_cli(
                capsys,
                "match", str(exact_instance_file),
                "--algo", "ght-pair", "--sampling", sampling, "--alpha", "4",
                "--seed", "5",
            )
            assert code == EXIT_OK
            sizes[sampling] = json.loads(out)["result"]["size"]
        assert sizes["all"] == sizes["pigeonhole"]

    def test_expander_da_degree_too_small(self, instance_file, capsys):
        code, _, err = run_cli(
            capsys,
            "match", str(instance_file),
            "--algo", "expander-da", "--degree", "64", "--alpha", "4", "--seed", "1",
        )
        assert code == EXIT_ALGORITHM
        assert json.loads(err)["error"] == "degree_too_small"

    @pytest.mark.parametrize("degree", ["1", "2"])
    def test_expander_without_an_expander_is_an_algorithm_error(self, instance_file, capsys, degree):
        # Every 1-regular graph, and every 2-regular graph on the 12 scene
        # points, is disconnected or bipartite: its second eigenvalue is d.
        code, _, err = run_cli(
            capsys,
            "match", str(instance_file),
            "--algo", "da", "--sampling", "expander", "--degree", degree, "--seed", "1",
        )
        assert code == EXIT_ALGORITHM
        assert json.loads(err)["error"] == "construction_failed"

    @pytest.mark.parametrize("algo", ["da", "da-exact", "ght-pair"])
    def test_expander_sampling_without_degree_is_a_usage_error(self, instance_file, capsys, algo):
        code, _, err = run_cli(
            capsys, "match", str(instance_file), "--algo", algo, "--sampling", "expander"
        )
        assert code == EXIT_USAGE
        assert json.loads(err) == {
            "error": "usage",
            "message": "--sampling expander requires --degree",
        }

    def test_sampling_rejected_for_triplet_algorithms(self, exact_instance_file, capsys):
        code, _, err = run_cli(
            capsys,
            "match", str(exact_instance_file),
            "--algo", "pose", "--sampling", "pigeonhole",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags", [("--algo", "da", "--eps", "nan"), ("--algo", "da-exact", "--tau", "inf")]
    )
    def test_non_finite_tolerance_is_a_usage_error(self, instance_file, capsys, flags):
        code, _, err = run_cli(capsys, "match", str(instance_file), *flags)
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--algo", "da", "--sampling", "pigeonhole", "--alpha", "inf"),
            ("--algo", "da", "--sampling", "pigeonhole", "--alpha", "nan"),
            ("--algo", "da", "--sampling", "pigeonhole", "--alpha", "0.5"),
            ("--algo", "expander-da", "--degree", "8", "--alpha", "nan", "--seed", "1"),
            ("--algo", "expander-da", "--degree", "8", "--alpha", "0", "--seed", "1"),
            ("--algo", "expander-da", "--degree", "8", "--alpha", "inf", "--seed", "1"),
        ],
    )
    def test_bad_alpha_is_a_usage_error(self, instance_file, capsys, flags):
        code, _, err = run_cli(capsys, "match", str(instance_file), *flags)
        assert code == EXIT_USAGE
        error = json.loads(err)
        assert error["error"] == "usage"
        assert "alpha" in error["message"]

    def test_xyz_file_input(self, tmp_path, capsys):
        pts = np.random.default_rng(0).uniform(0, 10, size=(8, 3))
        p_file = tmp_path / "p.xyz"
        q_file = tmp_path / "q.xyz"
        p_file.write_text(
            "# model points\n"
            + "\n".join(" ".join(f"{x:.9f}" for x in row) for row in pts)
        )
        q_file.write_text("\n".join(" ".join(f"{x:.9f}" for x in row) for row in pts[:6]))
        code, out, _ = run_cli(
            capsys,
            "match", "--p-file", str(p_file), "--q-file", str(q_file),
            "--algo", "da", "--eps", "0.01",
        )
        assert code == EXIT_OK
        assert json.loads(out)["result"]["size"] == 6

    def test_determinism_across_reps(self, instance_file, capsys):
        reports = []
        for _ in range(6):
            code, out, _ = run_cli(
                capsys, "match", str(instance_file), "--algo", "da", "--seed", "9"
            )
            assert code == EXIT_OK
            rep = json.loads(out)
            rep.pop("wall_time_ms")
            reports.append(json.dumps(rep, sort_keys=True))
        assert len(set(reports)) == 1

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            pytest.param("match", "--threads", "2", id="match"),
            pytest.param("bench", "--threads", "2", id="bench"),
            pytest.param("match", "--radius-factor", "6", id="match-radius-factor"),
        ],
    )
    def test_threads_flag_is_gone(self, instance_file, capsys, command, flag, value):
        # Matching runs in the calling thread; no command takes a thread
        # count. Each DA entry point fixes its radius; no flag changes it.
        args = [str(instance_file), "--algo", "da"] if command == "match" else ["--suite", "{}"]
        code, _, _ = run_cli(capsys, command, *args, flag, value)
        assert code == EXIT_USAGE
        if command == "match":
            code, out, _ = run_cli(capsys, command, *args)
            assert flag[2:].replace("-", "_") not in json.loads(out)["params"]

    def test_env_seed_fallback(self, instance_file, capsys, monkeypatch):
        monkeypatch.setenv("LCP_MATCH_SEED", "42")
        code, out, _ = run_cli(capsys, "match", str(instance_file), "--algo", "da")
        assert code == EXIT_OK
        assert json.loads(out)["seed"] == 42


class TestVerify:
    def _match(self, instance_file, tmp_path, capsys, *extra):
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "match", str(instance_file), "--algo", "da", "--seed", "1",
            "--out", str(report_path), *extra,
        )
        assert code == EXIT_OK
        return report_path

    def test_closed_loop(self, instance_file, tmp_path, capsys):
        report = self._match(instance_file, tmp_path, capsys)
        code, out, _ = run_cli(
            capsys, "verify", str(instance_file), "--report", str(report)
        )
        assert code == EXIT_OK
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("algo", ["da", "da-exact", "ght-pair", "pose", "ghash"])
    def test_closed_loop_all_algorithms(self, exact_instance_file, tmp_path, capsys, algo):
        report_path = tmp_path / f"{algo}-report.json"
        code, _, _ = run_cli(
            capsys,
            "match", str(exact_instance_file), "--algo", algo, "--seed", "2",
            "--out", str(report_path),
        )
        assert code == EXIT_OK
        code, out, _ = run_cli(
            capsys, "verify", str(exact_instance_file), "--report", str(report_path)
        )
        assert code == EXIT_OK
        assert json.loads(out)["ok"] is True

    def test_tampered_motion_fails(self, instance_file, tmp_path, capsys):
        report_path = self._match(instance_file, tmp_path, capsys)
        report = json.loads(report_path.read_text())
        report["result"]["motion"]["translation"][0] += 5.0
        report_path.write_text(json.dumps(report))
        code, out, _ = run_cli(
            capsys, "verify", str(instance_file), "--report", str(report_path)
        )
        assert code == EXIT_VERIFY
        assert json.loads(out)["problems"]

    def test_radius_zero_fails_on_noisy_instance(self, instance_file, tmp_path, capsys):
        report = self._match(instance_file, tmp_path, capsys)
        code, out, _ = run_cli(
            capsys,
            "verify", str(instance_file), "--report", str(report), "--radius", "0",
        )
        assert code == EXIT_VERIFY


    @pytest.mark.parametrize("scale", [1e-10, 1.0])
    def test_claimed_residual_checked_in_any_unit(self, tmp_path, capsys, scale):
        # A da report on the seed-5 m=n=12 instance verifies at any unit
        # scale, and one whose max_residual is forged to 0 fails at any scale.
        inst = generate_instance(GenSpec(m=12, n=12, k=6, eps=0.3), seed=5)
        path = tmp_path / "inst.json"
        scaled = Instance(P=inst.P * scale, Q=inst.Q * scale, eps=inst.eps * scale)
        path.write_text(scaled.to_json())
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "match", str(path), "--algo", "da", "--seed", "1", "--out", str(report_path)
        )
        assert code == EXIT_OK
        verify = ("verify", str(path), "--report", str(report_path))
        code, out, _ = run_cli(capsys, *verify)
        assert code == EXIT_OK and json.loads(out)["ok"] is True
        report = json.loads(report_path.read_text())
        assert report["result"]["max_residual"] > 0.0
        report["result"]["max_residual"] = 0.0
        report_path.write_text(json.dumps(report))
        code, out, _ = run_cli(capsys, *verify)
        assert code == EXIT_VERIFY
        [problem] = json.loads(out)["problems"]
        assert problem.startswith("claimed max residual 0.0")

    @pytest.mark.parametrize("pair", [[99, 0], [0, 99], [-1, 0], [0, -1], [1.5, 0]])
    def test_claimed_pair_outside_the_sets_is_a_problem(
        self, instance_file, tmp_path, capsys, pair
    ):
        report_path = self._match(instance_file, tmp_path, capsys)
        report = json.loads(report_path.read_text())
        report["result"]["matched"].append(pair)
        report_path.write_text(json.dumps(report))
        code, out, _ = run_cli(capsys, "verify", str(instance_file), "--report", str(report_path))
        assert code == EXIT_VERIFY
        problem = f"claimed pair ({pair[0]}, {pair[1]}) names no point of Q or P"
        assert json.loads(out)["problems"] == [problem]

    @pytest.mark.parametrize("radius", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("empty", [False, True])
    def test_bad_radius_is_a_usage_error(self, instance_file, tmp_path, capsys, radius, empty):
        report_path = self._match(instance_file, tmp_path, capsys)
        if empty:
            report = json.loads(report_path.read_text())
            report["result"]["matched"] = []
            report_path.write_text(json.dumps(report))
        code, _, err = run_cli(
            capsys,
            "verify", str(instance_file), "--report", str(report_path), "--radius", radius,
        )
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "usage"


class TestBench:
    def test_csv_roundtrip(self, capsys):
        suite = {
            "algos": ["ght", "ght-pair"],
            "cases": [
                {"m": 8, "n": 8, "k": 5, "eps": 0.0},
                {"m": 10, "n": 10, "k": 6, "eps": 0.0},
            ],
            "seeds": [0, 1],
        }
        code, out, _ = run_cli(capsys, "bench", "--suite", json.dumps(suite))
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        assert {r["algo"] for r in rows} == {"ght", "ght-pair"}
        for r in rows:
            assert float(r["time_ms"]) >= 0.0
            assert int(r["size"]) >= 3

    def test_pose_and_ght_rows_agree(self, capsys):
        suite = {
            "algos": ["pose", "ght"],
            "cases": [
                {"m": 8, "n": 8, "k": 5, "eps": 0.0},
                {"m": 10, "n": 10, "k": 5, "eps": 0.0},
                {"m": 12, "n": 12, "k": 5, "eps": 0.0},
            ],
            "seeds": [0, 1, 2, 3, 4],
        }
        code, out, _ = run_cli(capsys, "bench", "--suite", json.dumps(suite))
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        outcome = {}
        for r in rows:
            outcome.setdefault((r["m"], r["seed"]), {})[r["algo"]] = (r["size"], r["residual"])
        assert len(outcome) == 15
        for case in outcome.values():
            # Both vote the same motions, found by the same join.
            assert case["pose"] == case["ght"]
            assert int(case["pose"][0]) >= 5

    def test_pigeonhole_never_slower_at_n40(self):
        import statistics
        import time as _time

        from lcpmatch import GenSpec, generate_instance, ght_pair_based
        from lcpmatch.sampling import Pigeonhole

        full_times, samp_times = [], []
        for seed in range(10):
            inst = generate_instance(
                GenSpec(m=40, n=40, k=14, eps=0.0, exact=True, lcp_guard=False),
                seed=seed,
            )
            t0 = _time.perf_counter()
            full = ght_pair_based(inst.P, inst.Q)
            t1 = _time.perf_counter()
            samp = ght_pair_based(inst.P, inst.Q, pairs=Pigeonhole(4))
            t2 = _time.perf_counter()
            full_times.append(t1 - t0)
            samp_times.append(t2 - t1)
            assert full.size == samp.size
        assert statistics.median(samp_times) <= statistics.median(full_times)


    def test_expander_suite_without_degree_is_a_usage_error(self, capsys):
        suite = {"cases": [{"m": 10, "n": 10, "k": 5, "eps": 0.3}], "sampling": "expander"}
        code, _, err = run_cli(capsys, "bench", "--suite", json.dumps(suite))
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "usage"


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        # Run the same lcpmatch these tests import, installed or not.
        src = str(Path(lcpmatch.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "lcpmatch.cli", "gen", "--m", "6", "--n", "5",
             "--k", "3", "--eps", "0.2", "--seed", "0"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert Instance.from_dict(data).truth.k == 3
