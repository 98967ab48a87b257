"""End-to-end CLI checks: exit codes, canonical output, determinism."""
import hashlib
import json
import math
import os

import numpy as np
import pytest

from weakmeas import cli, estimator, scenario
from weakmeas.errors import WeakmeasError


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)


@pytest.fixture
def raw():
    return scenario.to_dict(scenario.preset("qubit-theta30"))


def dump(tmp_path, raw, name="sc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def run_json(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestRun:
    def test_closed_form_document(self, tmp_path, raw, capsys):
        raw["run"]["mode"] = "closed-form"
        doc = run_json(["run", "--config", dump(tmp_path, raw)], capsys)
        assert doc["weak_value"] == [2.0, 0.0]
        assert doc["re_formula"] == pytest.approx(2.0, abs=1e-12)
        assert doc["im_formula"] == pytest.approx(0.0, abs=1e-12)
        assert doc["postselect_prob"] == pytest.approx(0.25, abs=1e-12)
        assert doc["commutator_norms"]["[A,F]"] == pytest.approx(
            np.sqrt(3) / 2, abs=1e-12
        )

    def test_canonical_json_round_trips(self, tmp_path, raw, capsys):
        raw["run"]["mode"] = "closed-form"
        code = cli.main(["run", "--config", dump(tmp_path, raw)])
        out = capsys.readouterr().out
        assert code == 0
        assert cli.canonical_dumps(json.loads(out)) == out
        assert out.endswith("\n")

    def test_exact_moments_document(self, tmp_path, raw, capsys):
        raw["run"]["mode"] = "exact-moments"
        doc = run_json(["run", "--config", dump(tmp_path, raw)], capsys)
        assert doc["estimate"] == pytest.approx(1.9962593521067948, abs=1e-9)
        assert doc["std_error"] == 0.0
        assert doc["correlation_over_gA"] == pytest.approx(0.5, abs=1e-10)

    def test_preset_pointer_run(self, capsys):
        doc = run_json(["run", "--preset", "qubit-theta30"], capsys)
        assert doc["seed"] == 7
        assert doc["mode"] == "sample-pointer"
        assert doc["n_total"] == 1000000
        assert doc["estimate"] == pytest.approx(2.0503179640319131, abs=1e-12)

    def test_csv_format(self, tmp_path, raw, capsys):
        raw["run"]["samples"] = 2000
        code = cli.main(
            ["run", "--config", dump(tmp_path, raw), "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "key,value"
        keys = [line.split(",", 1)[0] for line in lines[1:]]
        assert keys == sorted(keys)
        assert "estimate" in keys and "seed" in keys

    def test_out_file_and_thread_invariance(self, tmp_path, raw):
        raw["run"]["samples"] = 20000
        cfg = dump(tmp_path, raw)
        paths = [str(tmp_path / f"out{k}.json") for k in range(3)]
        assert cli.main(["run", "--config", cfg, "--out", paths[0]]) == 0
        assert cli.main(["run", "--config", cfg, "--out", paths[1]]) == 0
        assert (
            cli.main(
                ["run", "--config", cfg, "--threads", "4", "--out", paths[2]]
            )
            == 0
        )
        blobs = [open(p, "rb").read() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".weakmeas-tmp-")]
        assert leftovers == []

    def test_dump_records_file(self, tmp_path, raw, capsys):
        raw["run"]["samples"] = 50
        rec_path = tmp_path / "records.csv"
        code = cli.main(
            [
                "run",
                "--config",
                dump(tmp_path, raw),
                "--out",
                str(tmp_path / "doc.json"),
                "--dump-records",
                str(rec_path),
            ]
        )
        assert code == 0
        lines = rec_path.read_text().rstrip("\n").split("\n")
        assert lines[0] == "index,value_A,value_F,selected"
        assert len(lines) == 51
        for line in lines[1:]:
            _, _, _, sel = line.split(",")
            assert sel in ("0", "1")

    def test_failed_dump_leaves_target_untouched(self, tmp_path, raw, capsys, monkeypatch):
        raw["run"].update(mode="sample-ideal", samples=3 * estimator.DUMP_BLOCK_ROWS)
        real_dump = estimator.dump_records

        def dump_one_block_then_fail(records, handle):
            real_dump(records[:estimator.DUMP_BLOCK_ROWS], handle)
            handle.flush()
            raise WeakmeasError("disk full")

        monkeypatch.setattr(estimator, "dump_records", dump_one_block_then_fail)
        rec_path = tmp_path / "records.csv"
        rec_path.write_bytes(b"old bytes\n")
        argv = ["run", "--config", dump(tmp_path, raw), "--out", str(tmp_path / "doc.json"),
                "--dump-records", str(rec_path)]
        assert cli.main(argv) == 3
        assert "disk full" in capsys.readouterr().err
        assert rec_path.read_bytes() == b"old bytes\n"
        assert [n for n in os.listdir(tmp_path) if n.startswith(".weakmeas-tmp-")] == []


class TestPairedOutputs:
    """--out and --dump-records are committed together, with plain-open modes."""

    def test_failed_dump_leaves_out_untouched(self, tmp_path, raw, monkeypatch):
        raw["run"].update(mode="sample-ideal", samples=2 * estimator.DUMP_BLOCK_ROWS)
        real_dump = estimator.dump_records

        def dump_one_block_then_fail(records, handle):
            real_dump(records[:estimator.DUMP_BLOCK_ROWS], handle)
            raise WeakmeasError("disk full")

        monkeypatch.setattr(estimator, "dump_records", dump_one_block_then_fail)
        doc_path = tmp_path / "doc.json"
        doc_path.write_bytes(b"old document\n")
        argv = ["run", "--config", dump(tmp_path, raw), "--out", str(doc_path),
                "--dump-records", str(tmp_path / "records.csv")]
        assert cli.main(argv) == 3
        assert doc_path.read_bytes() == b"old document\n"
        assert not (tmp_path / "records.csv").exists()
        assert [n for n in os.listdir(tmp_path) if n.startswith(".weakmeas-tmp-")] == []

    @pytest.mark.parametrize("command, option", [
        ("run", "--out"), ("run", "--dump-records"), ("sweep", "--out"),
    ])
    def test_unwritable_path_exits_three(self, tmp_path, raw, capsys, command, option):
        raw["run"].update(mode="sample-ideal", samples=100)
        bad = str(tmp_path / "missing" / "target.txt")
        argv = [command, "--config", dump(tmp_path, raw), option, bad]
        if command == "sweep":
            argv += ["--param", "gA_tA", "--values", "0.05"]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {bad}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("out, records", [("r.csv", "r.csv"), ("./r2.json", "r2.json"),
                                              ("r.csv", "sub/../r.csv")])
    def test_same_file_exits_two(self, tmp_path, raw, capsys, monkeypatch, out, records):
        # else the dump would be renamed over the document, leaving only the records
        raw["run"].update(mode="sample-ideal", samples=100)
        config = dump(tmp_path, raw)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert cli.main(["run", "--config", config, "--out", out, "--dump-records", records]) == 2
        captured = capsys.readouterr()
        assert "--dump-records" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / out).exists()
        assert sorted(os.listdir(tmp_path)) == ["sc.json", "sub"]

    @pytest.mark.parametrize("link", [os.link, os.symlink])
    def test_linked_file_exits_two(self, tmp_path, raw, capsys, link):
        raw["run"].update(mode="sample-ideal", samples=100)
        doc_path, alias = tmp_path / "doc.json", tmp_path / "alias.json"
        doc_path.write_bytes(b"old document\n")
        link(doc_path, alias)
        argv = ["run", "--config", dump(tmp_path, raw), "--out", str(doc_path),
                "--dump-records", str(alias)]
        assert cli.main(argv) == 2
        assert "--dump-records" in capsys.readouterr().err
        assert doc_path.read_bytes() == b"old document\n"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_output_mode_follows_umask(self, tmp_path, raw, umask, mode):
        raw["run"].update(mode="sample-ideal", samples=100)
        doc_path, rec_path = tmp_path / "doc.json", tmp_path / "rec.csv"
        argv = ["run", "--config", dump(tmp_path, raw), "--out", str(doc_path),
                "--dump-records", str(rec_path)]
        old = os.umask(umask)
        try:
            assert cli.main(argv) == 0
        finally:
            os.umask(old)
        assert [os.stat(p).st_mode & 0o777 for p in (doc_path, rec_path)] == [mode, mode]

    @pytest.mark.parametrize("field, edit", [
        ("pointer_A.extent", lambda raw: raw.update({"gA_tA": 14.0 + 4e-8})),
        ("pointer_F.extent", lambda raw: raw.update({"gF_tF": 1.7 + 4e-9})),
    ])
    def test_wrapping_reach_exits_two(self, tmp_path, raw, capsys, field, edit):
        # preset grids: A has sigma 1 and extent 40, F sigma 0.05 and extent 4
        edit(raw)
        assert cli.main(["run", "--config", dump(tmp_path, raw)]) == 2
        assert field in capsys.readouterr().err


class TestSeedPrecedence:
    def test_file_seed_is_default(self, tmp_path, raw, capsys):
        raw["run"]["samples"] = 2000
        doc = run_json(["run", "--config", dump(tmp_path, raw)], capsys)
        assert doc["seed"] == 7

    def test_env_overrides_file(self, tmp_path, raw, capsys, monkeypatch):
        raw["run"]["samples"] = 2000
        monkeypatch.setenv(cli.SEED_ENV_VAR, "41")
        doc = run_json(["run", "--config", dump(tmp_path, raw)], capsys)
        assert doc["seed"] == 41

    def test_flag_overrides_env(self, tmp_path, raw, capsys, monkeypatch):
        raw["run"]["samples"] = 2000
        monkeypatch.setenv(cli.SEED_ENV_VAR, "41")
        doc = run_json(
            ["run", "--config", dump(tmp_path, raw), "--seed", "9"], capsys
        )
        assert doc["seed"] == 9

    def test_garbage_env_rejected(self, tmp_path, raw, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "many")
        code = cli.main(["run", "--config", dump(tmp_path, raw)])
        err = capsys.readouterr().err
        assert code == 2
        assert cli.SEED_ENV_VAR in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_bad_flag_seed_exits_two(self, tmp_path, raw, capsys, seed):
        code = cli.main(["run", "--config", dump(tmp_path, raw), "--seed", seed])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--seed" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    def test_bad_env_seed_exits_two(self, tmp_path, raw, capsys, monkeypatch, seed):
        monkeypatch.setenv(cli.SEED_ENV_VAR, seed)
        code = cli.main(["run", "--config", dump(tmp_path, raw)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert cli.SEED_ENV_VAR in captured.err and "Traceback" not in captured.err


class TestThreadsOption:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_below_one_exits_two(self, tmp_path, raw, capsys, command, threads):
        out = str(tmp_path / "out.csv")
        extra = ["--param", "theta", "--values", "0.5", "--out", out] if command == "sweep" else []
        code = cli.main([command, "--config", dump(tmp_path, raw), "--threads", threads, *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--threads" in captured.err and "Traceback" not in captured.err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("threads", [str(cli.MAX_THREADS + 1), "5000"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_above_cap_exits_two(self, tmp_path, raw, capsys, command, threads):
        # argparse rejects the value before the scenario loads, so no thread starts
        out = str(tmp_path / "out.csv")
        extra = ["--param", "theta", "--values", "0.5", "--out", out] if command == "sweep" else []
        code = cli.main([command, "--config", dump(tmp_path, raw), "--threads", threads, *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--threads" in captured.err and "Traceback" not in captured.err
        assert not os.path.exists(out)

    def test_cap_is_inclusive(self):
        args = cli.build_parser().parse_args(
            ["run", "--preset", "qubit-theta30", "--threads", str(cli.MAX_THREADS)]
        )
        assert args.threads == cli.MAX_THREADS


class TestGridBound:
    @pytest.mark.parametrize("field", ["pointer_A", "pointer_F"])
    def test_huge_grid_exits_two(self, tmp_path, raw, capsys, field):
        # 2**40 points would be an 8 TiB array per device; the check runs at load
        raw["run"]["mode"] = "exact-moments"
        raw[field]["n_points"] = 2**40
        code = cli.main(["run", "--config", dump(tmp_path, raw)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"{field}.n_points" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("mode", ["sample-pointer", "exact-moments"])
    def test_huge_joint_grid_exits_two(self, tmp_path, raw, capsys, monkeypatch, mode):
        # 2**12 x 2**13 cells: each axis passes, the n_A x n_F density would not
        def no_state(sc):
            raise AssertionError("the joint bound must stop the run before any state")

        monkeypatch.setattr(estimator, "coupled_state", no_state)
        raw["run"]["mode"] = mode
        raw["pointer_A"]["n_points"], raw["pointer_F"]["n_points"] = 2**12, 2**13
        code = cli.main(["run", "--config", dump(tmp_path, raw)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "pointer_F.n_points" in captured.err and str(2**25) in captured.err
        assert "Traceback" not in captured.err


class TestSweep:
    def test_theta_formula_column(self, tmp_path, raw, capsys):
        raw["run"]["mode"] = "closed-form"
        out_path = tmp_path / "sweep.csv"
        code = cli.main(
            [
                "sweep",
                "--config",
                dump(tmp_path, raw),
                "--param",
                "theta",
                "--values",
                "0,30",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().rstrip("\n").split("\n")
        assert lines[0] == cli.SWEEP_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["theta", "theta"]
        assert [float(r[1]) for r in rows] == [0.0, 30.0]
        assert float(rows[0][4]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[1][4]) == pytest.approx(2.0, abs=1e-12)

    def test_coupling_sweep_error_grows(self, tmp_path, raw, capsys):
        raw["run"]["mode"] = "exact-moments"
        out_path = tmp_path / "sweep.csv"
        values = "0.01,0.02,0.05,0.1"
        code = cli.main(
            [
                "sweep",
                "--config",
                dump(tmp_path, raw),
                "--param",
                "gA_tA",
                "--values",
                values,
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in out_path.read_text().rstrip("\n").split("\n")[1:]
        ]
        assert [float(r[1]) for r in rows] == [0.01, 0.02, 0.05, 0.1]
        errs = [float(r[6]) for r in rows]
        assert errs == sorted(errs)
        assert all(float(r[4]) == pytest.approx(2.0, abs=1e-12) for r in rows)

    def test_single_point_matches_run(self, tmp_path, raw, capsys):
        raw["run"]["samples"] = 20000
        cfg = dump(tmp_path, raw)
        doc = run_json(["run", "--config", cfg], capsys)
        out_path = tmp_path / "one.csv"
        code = cli.main(
            [
                "sweep",
                "--config",
                cfg,
                "--param",
                "gA_tA",
                "--values",
                "0.05",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        row = out_path.read_text().rstrip("\n").split("\n")[1].split(",")
        assert float(row[2]) == doc["estimate"]
        assert float(row[3]) == doc["std_error"]

    def test_each_point_validated_once(self, tmp_path, raw, capsys, monkeypatch):
        raw["run"]["mode"] = "closed-form"
        calls = []
        real_validate = scenario.validate
        monkeypatch.setattr(scenario, "validate", lambda sc: calls.append(sc) or real_validate(sc))
        argv = ["sweep", "--config", dump(tmp_path, raw), "--param", "gA_tA",
                "--values", "0.01,0.02,0.03,0.04", "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 0
        assert len(calls) == 1 + 4  # the loaded file, then each point

    def test_bad_value_fails_before_writing(self, tmp_path, raw, capsys):
        raw["run"]["mode"] = "exact-moments"
        out_path = tmp_path / "sweep.csv"
        code = cli.main(
            [
                "sweep",
                "--config",
                dump(tmp_path, raw),
                "--param",
                "gA_tA",
                "--values",
                "0.01,500.0",
                "--out",
                str(out_path),
            ]
        )
        assert code == 2
        assert not out_path.exists()


class TestDiagnostics:
    def test_identity_coupling_stays_product(self, tmp_path, raw, capsys):
        raw["A_matrix"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        raw["run"]["mode"] = "diagnostics"
        doc = run_json(["run", "--config", dump(tmp_path, raw)], capsys)
        for name in ("system", "axis0"):
            assert doc["product_check"][name]["is_product"] is True
        assert abs(doc["correlation_witness"]["correlation_gap"]) < 1e-10

    def test_sigma_z_coupling_entangles(self, tmp_path, raw, capsys):
        raw["run"]["mode"] = "diagnostics"
        doc = run_json(["run", "--config", dump(tmp_path, raw)], capsys)
        assert doc["product_check"]["system"]["is_product"] is False
        assert doc["product_check"]["system"]["singular_values"][1] > 1e-6


class TestExitCodes:
    def test_missing_config(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_names_field(self, tmp_path, raw, capsys):
        raw["A_matrix"] = [[[0.0, 0.0], [1.0, 0.1]], [[1.0, 0.0], [0.0, 0.0]]]
        code = cli.main(["run", "--config", dump(tmp_path, raw)])
        err = capsys.readouterr().err
        assert code == 2
        assert "A_matrix" in err

    @pytest.mark.parametrize("typo, named", [("Run", "'Run'"), ("n_pointz", "pointer_A.n_pointz")])
    def test_unknown_key_exits_two(self, tmp_path, raw, capsys, typo, named):
        # each typo alone used to load as closed-form with every default and exit 0
        if typo == "Run":
            raw["Run"] = raw.pop("run")
        else:
            raw["pointer_A"][typo] = 256
        assert cli.main(["run", "--config", dump(tmp_path, raw)]) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    def test_unknown_sweep_param(self, tmp_path, raw, capsys):
        code = cli.main(
            [
                "sweep",
                "--config",
                dump(tmp_path, raw),
                "--param",
                "hbar",
                "--values",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    def test_empty_selection_is_runtime_error(self, tmp_path, raw, capsys):
        raw["run"]["samples"] = 500
        raw["run"]["threshold"] = 10.0
        out_path = tmp_path / "doc.json"
        code = cli.main(
            ["run", "--config", dump(tmp_path, raw), "--out", str(out_path)]
        )
        assert code == 3
        assert not out_path.exists()

    @pytest.mark.parametrize("mode", ["sample-pointer", "sample-ideal"])
    def test_zero_samples_is_validation_error(self, tmp_path, raw, capsys, mode):
        raw["run"].update(mode=mode, samples=0)
        argv = ["run", "--config", dump(tmp_path, raw), "--dump-records",
                str(tmp_path / "rec.csv")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "run.samples" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "rec.csv").exists()

    @pytest.mark.parametrize("mode", ["sample-pointer", "sample-ideal"])
    def test_zero_samples_sweep_is_validation_error(self, tmp_path, raw, capsys, mode):
        raw["run"].update(mode=mode, samples=0)
        out_path = tmp_path / "s.csv"
        argv = ["sweep", "--config", dump(tmp_path, raw), "--param", "gA_tA",
                "--values", "0.05", "--out", str(out_path)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "run.samples" in captured.err and "Traceback" not in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize("mode", ["sample-pointer", "sample-ideal"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_oversized_samples_is_validation_error(self, tmp_path, raw, capsys, mode, command):
        # RunTotals would ask for 2**70 flag bytes; the scenario fails at load instead
        raw["run"].update(mode=mode, samples=2**70)
        out_path = tmp_path / "out.csv"
        argv = [command, "--config", dump(tmp_path, raw), "--out", str(out_path)]
        if command == "sweep":
            argv += ["--param", "gA_tA", "--values", "0.05"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "run.samples" in captured.err and "Traceback" not in captured.err
        assert not out_path.exists()

    def test_dump_records_needs_sampling_mode(self, tmp_path, raw, capsys):
        raw["run"]["mode"] = "exact-moments"
        code = cli.main(
            [
                "run",
                "--config",
                dump(tmp_path, raw),
                "--dump-records",
                str(tmp_path / "r.csv"),
            ]
        )
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "weakmeas" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 2


class TestMalformedInputs:
    """Each malformed field ends in exit 2 with the field named on stderr."""

    EDITS = {
        "gA_tA": lambda raw: raw.update({"gA_tA": 0}),
        "gF_tF": lambda raw: raw.update({"gF_tF": 0.0}),
        "A_matrix": lambda raw: raw["A_matrix"][0][0].__setitem__(0, math.nan),
        "system_dim": lambda raw: raw.update({"system_dim": True}),
        "pointer_A.n_points": lambda raw: raw["pointer_A"].update({"n_points": True}),
        "run.samples": lambda raw: raw["run"].update({"samples": True}),
        "run.seed": lambda raw: raw["run"].update({"seed": True}),
        # positive, but squared by the grids into a subnormal or zero
        "pointer_F.sigma": lambda raw: raw["pointer_F"].update({"sigma": 1e-320}),
        "pointer_A.sigma": lambda raw: raw["pointer_A"].update({"sigma": 1e-200}),
        "hbar": lambda raw: raw.update({"hbar": 1e-320}),
    }

    @pytest.mark.parametrize("field", sorted(EDITS))
    def test_exit_two_names_field(self, tmp_path, raw, capsys, field):
        raw["run"].update(mode="exact-moments", readout="momentum", samples=1000)
        self.EDITS[field](raw)
        code = cli.main(["run", "--config", dump(tmp_path, raw)])
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["exact-moments", "sample-pointer", "sample-ideal"])
    def test_overflowing_grid_exits_two(self, tmp_path, raw, capsys, mode):
        # sigma and extent pass every other check, but their squares overflow
        raw["run"].update(mode=mode, samples=1000)
        raw["pointer_A"].update(sigma=1e298, extent=1e300)
        assert cli.main(["run", "--config", dump(tmp_path, raw)]) == 2
        err = capsys.readouterr().err
        assert "pointer_A.sigma" in err and "Traceback" not in err

    @pytest.mark.parametrize("param, bad, field", [
        ("gA_tA", "0", "gA_tA"),
        ("gA_tA", "nan", "gA_tA"),
        ("sigma_F", "nan", "pointer_F.sigma"),
        ("sigma_F", "1e-320", "pointer_F.sigma"),
        ("theta", "inf", "theta"),
        ("theta", "-inf", "theta"),
    ])
    def test_bad_sweep_point(self, tmp_path, raw, capsys, param, bad, field):
        raw["run"]["mode"] = "exact-moments"
        out_path = tmp_path / "s.csv"
        argv = ["sweep", "--config", dump(tmp_path, raw), "--param", param,
                "--values", "0.05," + bad, "--out", str(out_path)]
        assert cli.main(argv) == 2
        assert field in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000], ids=["not-utf8", "deep"])
    def test_unparsable_config_exits_two(self, tmp_path, capsys, content):
        # not UTF-8, and nested deeper than the JSON parser recurses
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err


# sha256 of the `run` document and of its --dump-records file at 50,000
# samples, recorded from the dense two-device engine; the factored engine
# must reproduce every draw
PINNED_SHA256 = {
    ("qubit-theta30", "position", "sample-pointer"): (
        "5dfe0c824c3dacaab23bd019d0728e5a8e198f8894279e87eb8bb48548164f5b",
        "900a7685ac3246ebf12ec33b18e1798f9ee7c94910fc62167f95abd7b07560e5",
    ),
    ("qubit-theta30", "momentum", "sample-pointer"): (
        "edede8076e4bea4b889c9b94ad190a1974e2891ce657cf808887ace062ce0863",
        "6f35ce4bc80aac6c71e4d56323a0ec469bc9fa7b2c906ded1478f1506777c794",
    ),
    ("imaginary-sigma-x", "position", "sample-pointer"): (
        "dda198808671d721db8bceaacf46433050dcb722c64f4d26adb99ebc5dfba77f",
        "646053013f07177cdea72c0e49c8ffbdb385da091b53313fb05c1517381073b0",
    ),
    ("imaginary-sigma-x", "momentum", "sample-pointer"): (
        "463874f6cdd1e0a8e666ac56432a9035d18d1cd134bf0c8fa210a2310acaa91f",
        "76037d15588c4b2fec4077beb4901224921056c62fdf152b5139752a6a989e4d",
    ),
    ("qubit-theta30", "position", "sample-ideal"): (
        "81620935696a9db8c3eeff61528403b37ac6d236761c59fd95fab15466135022",
        "151c36c70a6a73b048a4626ca374dabecef9c498eb47234d62a190d1e0ec43a1",
    ),
    ("qubit-theta30", "momentum", "sample-ideal"): (
        "3185004d04e69b18a550260fcefa0d8b8f72c2e80b455a2fda8b43ed10147b8a",
        "829b001b1522e1dd7300b3b9b268fd9a70f9dba036ab405921125d2cbc3932b2",
    ),
    ("imaginary-sigma-x", "position", "sample-ideal"): (
        "8cbba4bc3f96730151e3641b3880afc4719e22d35ac8666acf6dc3fe3782423f",
        "e6c9fd8a2005b3e1818a0ddbffa02aed30c6d957cbc39c2fd9d753a50569accb",
    ),
    ("imaginary-sigma-x", "momentum", "sample-ideal"): (
        "5bf3c3fb0bbc1f885970c274da7b9b00dc36569ea6c5a0bc725bff0c9714a3b4",
        "74818da1471cd13918ddb92175e280bf208c05d88700af910a5204b0f5561d8d",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_SHA256), ids="-".join)
def test_sampling_bytes_pinned(tmp_path, case):
    name, readout, mode = case
    raw = scenario.to_dict(scenario.preset(name))
    raw["run"].update(mode=mode, readout=readout, samples=50000)
    doc_path, rec_path = tmp_path / "doc.json", tmp_path / "rec.csv"
    argv = ["run", "--config", dump(tmp_path, raw), "--out", str(doc_path),
            "--dump-records", str(rec_path)]
    assert cli.main(argv) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (doc_path, rec_path))
    assert digests == PINNED_SHA256[case]


# the same digests at 200,000 samples: three full CHUNK_SIZE chunks plus a
# 3,392-row tail, so the streamed sums and the dump cross chunk boundaries
MULTI_CHUNK_SHA256 = {
    ("qubit-theta30", "position", "sample-pointer"): (
        "cc8c73bdd11022faba475ab9a1b47a0cb583287ef35730304ab5e450326b6856",
        "2d3fd87f3d0910c600b8374eb6900591a356d8d181fef2c2f2a5adea3f767aab",
    ),
    ("imaginary-sigma-x", "momentum", "sample-ideal"): (
        "03b68bea5368027f50fd79f7a2ab11e6a1c41c0a75d206cf468d0b8feef21394",
        "a7233f352c29010d6dee9c484b8c782150bda249f0e67924ed5d75beaffd0aaa",
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(MULTI_CHUNK_SHA256), ids="-".join)
def test_multi_chunk_bytes_pinned(tmp_path, case, threads):
    name, readout, mode = case
    raw = scenario.to_dict(scenario.preset(name))
    raw["run"].update(mode=mode, readout=readout, samples=200000)
    doc_path, rec_path = tmp_path / "doc.json", tmp_path / "rec.csv"
    argv = ["run", "--config", dump(tmp_path, raw), "--threads", threads,
            "--out", str(doc_path), "--dump-records", str(rec_path)]
    assert cli.main(argv) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (doc_path, rec_path))
    assert digests == MULTI_CHUNK_SHA256[case]


class TestPresetsCommand:
    def test_lists_names(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["imaginary-sigma-x", "qubit-theta30"]
