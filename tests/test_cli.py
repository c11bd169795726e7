"""Config validation, CSV schemas, exit codes, and determinism."""

import csv
import json
import pathlib
import warnings

import pytest

from fcrkpm.bench import CSV_HEADER
from fcrkpm.cli import CONVERGE_HEADER, ConfigError, load_config, main

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"


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
        for key, value in (("typo", 1), ("verify_counts", {"2": 12})):
            with pytest.raises(ConfigError, match="unknown config keys"):
                load_config({"version": 1, "experiment": "verify", key: value})

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
        configs = sorted(CONFIGS.glob("*.json"))
        assert configs
        for path in configs:
            load_config(json.loads(path.read_text()))

    def test_keys_the_experiment_never_reads_rejected(self):
        # no experiment reads threads: scipy's transforms run on one thread
        for doc in [
            {"version": 1, "experiment": "bench", "a_tilde": 3.5},
            {"version": 1, "experiment": "converge", "seed": 7},
        ] + [{"version": 1, "experiment": e, "threads": 2}
             for e in ("verify", "converge", "bench", "diffuse")]:
            with pytest.raises(ConfigError, match="unknown config keys"):
                load_config(doc)

    def test_flags_only_where_read(self):
        # --seed for verify/bench only, --threads for no experiment
        for argv in [["converge", "--seed", "1"]] + [
            [e, "--threads", "2"]
            for e in ("verify", "converge", "bench", "diffuse")
        ]:
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="experiment"):
            load_config({"version": 1})

    def test_unhashable_experiment_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown experiment \[\]"):
            load_config({"version": 1, "experiment": []})


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        path = _write(tmp_path, "bad.json", {"version": 1, "experiment": "converge", "x": 1})
        assert main(["converge", "--config", path]) == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("experiment,key", [
        ("converge", "a_tilde"), ("converge", "tol"),
        ("diffuse", "a_tilde"), ("diffuse", "tol"), ("diffuse", "t_end"),
        ("diffuse", "dt"), ("diffuse", "nu"), ("bench", "a_tilde_values"),
    ])
    def test_non_finite_number_is_2(self, tmp_path, experiment, key, value):
        # json writes and parses NaN and +-Infinity; each numeric key, and
        # an a_tilde_values entry, rejects them before any compute
        doc = {"version": 1, "experiment": experiment, "dim": 1,
               key: [1.5, value] if key == "a_tilde_values" else value}
        if experiment == "diffuse":
            doc["counts"] = 16
        path = _write(tmp_path, "c.json", doc)
        out = str(tmp_path / "out.csv")
        assert main([experiment, "--config", path, "--out", out]) == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("experiment,keys", [
        ("converge", {"dim": 1, "a_tilde": 100}),
        ("converge", {"dim": 2, "powers": [2, 3, 4], "a_tilde": 3.5}),
        ("diffuse", {"dim": 1, "counts": 16, "a_tilde": 100}),
        ("bench", {"dim": 1, "a_tilde_values": [1.5, 1e30]}),
    ])
    def test_support_too_wide_for_a_grid_is_2(self, tmp_path, capsys,
                                             experiment, keys):
        # every grid the config implies is planned before any compute: the
        # run fails as a config error and writes nothing, not even the
        # output directory
        path = _write(tmp_path, "c.json",
                      {"version": 1, "experiment": experiment, **keys})
        out = tmp_path / "out" / "rows.csv"
        assert main([experiment, "--config", path, "--out", str(out)]) == 2
        assert "config error: a_tilde=" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_object_config_is_2(self, tmp_path, capsys):
        path = _write(tmp_path, "list.json", [1, 2])
        assert main(["verify", "--config", path]) == 2
        assert ("config error: config must be a JSON object"
                in capsys.readouterr().err)

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
        assert main(["verify", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert any(name.startswith("f_int-3d") for name in names)
        cells = [n[len("moment-"):] for n in names if n.startswith("moment-")]
        assert all(f"spectra-{cell}" in names for cell in cells)
        assert report["warnings"] == ""

    def test_verify_records_warnings(self, tmp_path, monkeypatch):
        from fcrkpm import verify

        check = verify.lumped_mass_total_check
        monkeypatch.setattr(
            verify, "lumped_mass_total_check",
            lambda pc, provider=None: (
                warnings.warn("probe", RuntimeWarning) or check(pc, provider)
            ),
        )
        out = tmp_path / "report.json"
        with pytest.warns(RuntimeWarning, match="probe"):
            assert main(["verify", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["warnings"] == "RuntimeWarning"

    def test_verify_runs_on_mains_provider(self, tmp_path, monkeypatch):
        # the provider main builds carries every verify check but the
        # transform counts' own counters: a counting one swapped in for it
        # sees forward and inverse transforms
        from fcrkpm import CountingFFTProvider, cli

        built = []

        def counting():
            built.append(CountingFFTProvider())
            return built[-1]

        monkeypatch.setattr(cli, "ScipyFFTProvider", counting)
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == 0
        [provider] = built
        assert provider.forward_count > 0 and provider.inverse_count > 0

    def test_fault_injection_fails(self, tmp_path):
        out = tmp_path / "report.json"
        path = str(CONFIGS / "verify_fault.json")
        assert main(["verify", "--config", path, "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert not report["passed"]
        # the corrupted table must fail the oracle comparison by its
        # measured error, not crash the 2D cross-method cell
        assert all("exception" not in c for c in report["checks"])
        failed = {c["name"]: c for c in report["checks"] if not c["passed"]}
        for name in ("f_int-2d-n1-a1.5", "spectra-2d-n1-a1.5"):
            check = failed[name]
            assert check["tolerance"] < check["error"] < float("inf")


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
        # 2D takes 4 CG iterations at every size (1D takes 1), so a cap of
        # 2 stops each solve
        out = tmp_path / "c.csv"
        cfg = _write(
            tmp_path, "c.json",
            {"version": 1, "experiment": "converge", "dim": 2,
             "powers": [3, 4, 5], "max_iter": 2},
        )
        with pytest.warns(UserWarning, match="CG stopped"):
            assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
        col = CONVERGE_HEADER.index("warnings")
        rows = _read_csv(str(out))[1:]
        assert all("UserWarning" in r[col].split(";") for r in rows[:-1])

    def test_committed_1d_config_warns_nothing(self, tmp_path):
        out = tmp_path / "c.csv"
        cfg = str(CONFIGS / "convergence_1d.json")
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

    def test_band_nodes_reported(self, bench_rows, tmp_path):
        # a positive count on every fc row of a cell, empty on the
        # traditional ones, and growing with the support (1D: r nodes at
        # each end of the domain)
        col = CSV_HEADER.index("band_nodes")
        n_omega = CSV_HEADER.index("N_omega")
        fc = [r for r in bench_rows[1:] if r[1] == "fc"]
        assert {r[col] for r in fc} == {fc[0][col]}
        assert 0 < int(fc[0][col]) <= int(fc[0][n_omega])
        assert all(r[col] == "" for r in bench_rows[1:] if r[1] != "fc")
        out = tmp_path / "b.csv"
        cfg = _write(
            tmp_path, "b.json",
            {"version": 1, "experiment": "bench", "dim": 1,
             "nodes_per_axis": [8], "a_tilde_values": [1.5, 2.5], "reps": 3},
        )
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        a_col = CSV_HEADER.index("a_tilde")
        band = {r[a_col]: int(r[col]) for r in _read_csv(str(out))[1:]
                if r[1] == "fc"}
        assert band == {"1.5": 2, "2.5": 4}

    def test_warnings_recorded_per_cell(self, tmp_path, monkeypatch):
        from fcrkpm import cli

        cell = cli.bench_cell

        def probed(**kwargs):
            if kwargs["a_tilde"] == 1.5:
                warnings.warn("probe", RuntimeWarning)
            return cell(**kwargs)

        monkeypatch.setattr(cli, "bench_cell", probed)
        out = tmp_path / "b.csv"
        cfg = _write(
            tmp_path, "b.json",
            {"version": 1, "experiment": "bench", "dim": 1,
             "nodes_per_axis": [8], "a_tilde_values": [1.5, 2.5], "reps": 3},
        )
        with pytest.warns(RuntimeWarning, match="probe"):
            assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        rows = _read_csv(str(out))
        assert rows[0] == CSV_HEADER
        a_col = CSV_HEADER.index("a_tilde")
        w_col = CSV_HEADER.index("warnings")
        fired = {r[a_col]: r[w_col] for r in rows[1:]}
        assert fired == {"1.5": "RuntimeWarning", "2.5": ""}


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
        assert rows[0] == ["t", "u_linf", "err_vs_static_linf", "warnings"]
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
        rows = _read_csv(str(out))[1:]
        assert all("UserWarning" in r[3].split(";") for r in rows)

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
