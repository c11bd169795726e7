"""Config validation, CSV schemas, exit codes, and determinism."""

import csv
import json
import pathlib

import pytest

from fcrkpm.bench import CSV_HEADER
from fcrkpm.cli import CONVERGE_HEADER, ConfigError, load_config, main


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigValidation:
    def test_defaults_fill_in(self):
        cfg = load_config({"version": 1, "experiment": "converge", "dim": 1})
        assert cfg["powers"] == [3, 4, 5, 6, 7, 8, 9]
        assert cfg["a_tilde"] == 1.5 and cfg["n"] == 1
        assert cfg["tol"] == 1e-12

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config({"version": 1, "experiment": "verify", "typo": 1})

    def test_cross_experiment_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config({"version": 1, "experiment": "verify", "powers": [3, 4, 5]})

    def test_bad_values_rejected(self):
        for doc in [
            {"version": 2, "experiment": "verify"},
            {"version": 1, "experiment": "explode"},
            {"version": 1, "experiment": "converge", "dim": 4},
            {"version": 1, "experiment": "converge", "powers": [1]},
            {"version": 1, "experiment": "diffuse", "dt": -0.1},
            {"version": 1, "experiment": "bench", "reps": 2},
            {"version": 1, "experiment": "converge", "a_tilde": 0.5},
        ]:
            with pytest.raises(ConfigError):
                load_config(doc)

    def test_committed_configs_valid(self):
        configs = sorted(
            (pathlib.Path(__file__).parent.parent / "configs").glob("*.json")
        )
        assert configs
        for path in configs:
            load_config(json.loads(path.read_text()))

    def test_keys_the_experiment_never_reads_rejected(self):
        for doc in [
            {"version": 1, "experiment": "bench", "a_tilde": 3.5},
            {"version": 1, "experiment": "verify", "threads": 2},
            {"version": 1, "experiment": "converge", "seed": 7},
        ]:
            with pytest.raises(ConfigError, match="unknown config keys"):
                load_config(doc)

    def test_flags_only_where_read(self):
        # --seed for verify/bench, --threads for converge/bench/diffuse
        for argv in (["converge", "--seed", "1"], ["verify", "--threads", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="experiment"):
            load_config({"version": 1})


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        path = _write(tmp_path, "bad.json", {"version": 1, "experiment": "converge", "x": 1})
        assert main(["converge", "--config", path]) == 2

    def test_wrong_experiment_is_2(self, tmp_path):
        path = _write(tmp_path, "v.json", {"version": 1, "experiment": "verify"})
        assert main(["bench", "--config", path]) == 2

    def test_missing_out_directory_created(self, tmp_path):
        out = tmp_path / "new" / "sub" / "c.csv"
        cfg = _write(
            tmp_path, "c.json",
            {"version": 1, "experiment": "converge", "dim": 1,
             "powers": [3, 4, 5]},
        )
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        assert _read_csv(str(out))[0] == CONVERGE_HEADER

    def test_verify_ok_is_0(self, tmp_path):
        out = tmp_path / "report.json"
        path = _write(
            tmp_path,
            "v.json",
            {
                "version": 1,
                "experiment": "verify",
                "verify_counts": {"1": 32, "2": 12, "3": 8},
            },
        )
        assert main(["verify", "--config", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert any(c["name"].startswith("f_int-3d") for c in report["checks"])

    def test_fault_injection_fails(self, tmp_path):
        out = tmp_path / "report.json"
        path = _write(
            tmp_path,
            "v.json",
            {
                "version": 1,
                "experiment": "verify",
                "fault_injection": True,
                "verify_counts": {"1": 32, "2": 12, "3": 8},
            },
        )
        assert main(["verify", "--config", path, "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert not report["passed"]
        # the corrupted table must fail the oracle comparison by its
        # measured error, not crash the 2D cross-method cell
        assert all("exception" not in c for c in report["checks"])
        failed = {c["name"]: c for c in report["checks"] if not c["passed"]}
        f_int = failed["f_int-2d-n1-a1.5"]
        assert f_int["tolerance"] < f_int["error"] < float("inf")

    def test_committed_fault_config_keeps_default_sizes(self):
        path = pathlib.Path(__file__).parent.parent / "configs" / "verify_fault.json"
        cfg = load_config(json.loads(path.read_text()))
        assert cfg["fault_injection"] is True
        assert cfg["verify_counts"] is None


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def converge_rows(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("converge")
    out = tmp / "c.csv"
    cfg = _write(
        tmp, "c.json",
        {"version": 1, "experiment": "converge", "dim": 1,
         "powers": [3, 4, 5, 6]},
    )
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    return _read_csv(str(out))


@pytest.fixture(scope="module")
def bench_rows(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    out = tmp / "b.csv"
    cfg = _write(
        tmp, "b.json",
        {"version": 1, "experiment": "bench", "dim": 3,
         "nodes_per_axis": [8], "a_tilde_values": [1.5], "reps": 3},
    )
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    return _read_csv(str(out))


class TestConvergeCSV:
    def test_header_frozen(self, converge_rows):
        assert converge_rows[0] == CONVERGE_HEADER

    def test_row_count_is_sweep_plus_slope(self, converge_rows):
        assert len(converge_rows) == 1 + 4 + 1

    def test_slope_in_quadratic_band(self, converge_rows):
        slope_row = converge_rows[-1]
        e_l2_slope = float(slope_row[CONVERGE_HEADER.index("e_l2")])
        e_linf_slope = float(slope_row[CONVERGE_HEADER.index("e_linf")])
        assert 1.8 <= e_l2_slope <= 2.2
        assert 1.8 <= e_linf_slope <= 2.2


    def test_not_converged_exits_1(self, tmp_path):
        out = tmp_path / "c.csv"
        cfg = _write(
            tmp_path, "c.json",
            {"version": 1, "experiment": "converge", "dim": 1,
             "powers": [3, 4, 5], "max_iter": 2},
        )
        with pytest.warns(UserWarning, match="CG stopped"):
            assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
        col = CONVERGE_HEADER.index("warnings")
        rows = _read_csv(str(out))[1:]
        assert all("UserWarning" in r[col].split(";") for r in rows[:-1])

    def test_committed_1d_config_warns_nothing(self, tmp_path):
        out = tmp_path / "c.csv"
        configs = pathlib.Path(__file__).parent.parent / "configs"
        cfg = str(configs / "convergence_1d.json")
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        col = CONVERGE_HEADER.index("warnings")
        rows = _read_csv(str(out))[1:]
        assert len(rows) == 7 + 1
        assert all(r[col] == "" for r in rows)


class TestBenchCSV:
    def test_header_frozen(self, bench_rows):
        assert bench_rows[0] == CSV_HEADER

    def test_terms_present(self, bench_rows):
        pairs = {(r[0], r[1]) for r in bench_rows[1:]}
        for term in ("setup", "moment", "f_int", "f_r", "u_h"):
            assert (term, "fc") in pairs
            assert (term, "traditional") in pairs

    def test_like_for_like(self, bench_rows):
        # every term is timed on both paths, and the fc row's speedup is
        # the traditional median over the fc median of that same term
        rows = bench_rows[1:]
        terms = ("setup", "moment", "f_int", "f_r", "u_h")
        assert sorted((r[0], r[1]) for r in rows) == sorted(
            (t, m) for t in terms for m in ("fc", "traditional")
        )
        med = CSV_HEADER.index("median_s")
        assert all(r[med] != "" for r in rows)
        median = {(r[0], r[1]): float(r[med]) for r in rows}
        speedup = CSV_HEADER.index("speedup")
        for r in rows:
            if r[1] == "fc":
                expected = median[r[0], "traditional"] / median[r[0], "fc"]
                assert float(r[speedup]) == expected

    def test_neighbor_count_reported(self, bench_rows):
        m_col = CSV_HEADER.index("M")
        assert all(r[m_col] == "27" for r in bench_rows[1:])

    def test_memory_comparison(self, bench_rows):
        b_col = CSV_HEADER.index("persistent_bytes")
        fc = {r[0]: int(r[b_col]) for r in bench_rows[1:] if r[1] == "fc"}
        trad = {
            r[0]: int(r[b_col]) for r in bench_rows[1:] if r[1] == "traditional"
        }
        assert fc["f_int"] < trad["f_int"]


class TestDiffuseCSV:
    def test_schema_and_steady_state(self, tmp_path):
        out = tmp_path / "d.csv"
        cfg = _write(
            tmp_path, "d.json",
            {"version": 1, "experiment": "diffuse", "dim": 2, "counts": 16,
             "t_end": 2.5, "sample_stride": 25},
        )
        assert main(["diffuse", "--config", cfg, "--out", str(out)]) == 0
        rows = _read_csv(str(out))
        assert rows[0] == ["t", "u_linf", "err_vs_static_linf"]
        assert float(rows[-1][2]) < 1e-4

    def test_not_converged_exits_1(self, tmp_path):
        out = tmp_path / "d.csv"
        cfg = _write(
            tmp_path, "d.json",
            {"version": 1, "experiment": "diffuse", "dim": 2, "counts": 16,
             "scheme": "implicit-euler", "t_end": 0.1, "max_iter": 2},
        )
        with pytest.warns(UserWarning):
            assert main(["diffuse", "--config", cfg, "--out", str(out)]) == 1

    def test_nu_scaling_halves_time_to_steady(self, tmp_path):
        times = {}
        for nu in (1.0, 2.0):
            out = tmp_path / f"d{nu}.csv"
            cfg = _write(
                tmp_path, f"d{nu}.json",
                {"version": 1, "experiment": "diffuse", "dim": 2,
                 "counts": 16, "t_end": 4.0, "nu": nu, "sample_stride": 5},
            )
            assert main(["diffuse", "--config", cfg, "--out", str(out)]) == 0
            rows = _read_csv(str(out))
            reached = [r for r in rows[1:] if float(r[2]) < 1e-3]
            times[nu] = float(reached[0][0])
        ratio = times[1.0] / times[2.0]
        assert 1.7 <= ratio <= 2.3

    def test_gap_floored_at_tol(self, tmp_path):
        # the nu = 2.0 march of the test above ends below the static
        # solve's tol (1e-12), where the gap is rounding noise
        out = tmp_path / "d.csv"
        cfg = _write(
            tmp_path, "d.json",
            {"version": 1, "experiment": "diffuse", "dim": 2,
             "counts": 16, "t_end": 4.0, "nu": 2.0, "sample_stride": 5},
        )
        assert main(["diffuse", "--config", cfg, "--out", str(out)]) == 0
        gaps = [float(r[2]) for r in _read_csv(str(out))[1:]]
        assert gaps[-1] == 1e-12
        assert min(gaps) == 1e-12


class TestMeasure:
    def test_median_protocol(self):
        from fcrkpm.bench import measure

        calls = []
        t = measure(lambda: calls.append(1) or sum(range(2000)), reps=3)
        assert t > 0.0
        assert len(calls) >= 4  # one warm-up plus three reps

    def test_sub_resolution_increases_loops(self):
        from fcrkpm.bench import measure

        calls = []
        t = measure(lambda: calls.append(1), reps=3)
        assert t >= 0.0
        assert len(calls) > 4  # loop count doubled at least once


class TestDeterminism:
    def test_identical_config_gives_identical_payload(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            cfg = _write(
                tmp_path, f"{tag}.json",
                {"version": 1, "experiment": "converge", "dim": 2,
                 "powers": [3, 4, 5]},
            )
            assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
            outs.append(_read_csv(str(out)))
        timing_cols = {CONVERGE_HEADER.index("wall_s")}
        for row_a, row_b in zip(*outs):
            for k, (va, vb) in enumerate(zip(row_a, row_b)):
                if k not in timing_cols:
                    assert va == vb
