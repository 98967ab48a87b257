"""Scenario codec and validation: field naming, guards, presets, defaults."""
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from weakmeas import scenario
from weakmeas.errors import (
    GridExtentError,
    NormalizationError,
    NotHermitianError,
    ScenarioError,
)

REPO_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def base_dict():
    return scenario.to_dict(scenario.preset("qubit-theta30"))


class TestPresets:
    def test_names(self):
        assert scenario.preset_names() == ("imaginary-sigma-x", "qubit-theta30")

    def test_unknown_name(self):
        with pytest.raises(ScenarioError):
            scenario.preset("nonesuch")

    def test_theta30_contents(self):
        sc = scenario.preset("qubit-theta30")
        assert sc.system_dim == 2
        np.testing.assert_allclose(sc.a_matrix, np.diag([1.0, -1.0]))
        assert sc.ga_ta == 0.05
        assert sc.gf_tf == 1.0
        assert sc.run.threshold == 0.5
        assert sc.run.mode == "sample-pointer"

    def test_imaginary_contents(self):
        sc = scenario.preset("imaginary-sigma-x")
        assert sc.run.readout == "momentum"
        np.testing.assert_allclose(sc.i_vector, [1.0, 0.0])
        np.testing.assert_allclose(sc.f_vector, np.array([1.0, 1.0j]) / np.sqrt(2))


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "fname,preset_name",
        [
            ("qubit_theta30.json", "qubit-theta30"),
            ("imaginary_sigma_x.json", "imaginary-sigma-x"),
        ],
    )
    def test_repo_files_load_and_match_presets(self, fname, preset_name):
        sc = scenario.load_scenario(REPO_SCENARIOS / fname)
        ref = scenario.preset(preset_name)
        np.testing.assert_array_equal(sc.a_matrix, ref.a_matrix)
        np.testing.assert_array_equal(sc.i_vector, ref.i_vector)
        np.testing.assert_array_equal(sc.f_vector, ref.f_vector)
        assert sc.run == ref.run
        assert sc.pointer_a == ref.pointer_a
        assert sc.pointer_f == ref.pointer_f


class TestRoundTrip:
    def test_dict_codec_is_lossless(self):
        sc = scenario.preset("imaginary-sigma-x")
        back = scenario.from_dict(scenario.to_dict(sc))
        np.testing.assert_array_equal(back.a_matrix, sc.a_matrix)
        np.testing.assert_array_equal(back.f_vector, sc.f_vector)
        assert back.ga_ta == sc.ga_ta
        assert back.run == sc.run

    def test_complex_entries_as_pairs(self):
        raw = base_dict()
        assert raw["F_vector"][0] == [np.sqrt(3) / 2, 0.0]
        raw["F_vector"] = [[0.0, 0.0], [0.0, 1.0]]  # |1> times i
        sc = scenario.from_dict(raw)
        assert sc.f_vector[1] == 1.0j

    def test_bare_reals_accepted(self):
        raw = base_dict()
        raw["I_vector"] = [1, 0]
        raw["F_vector"] = [0.6, 0.8]
        sc = scenario.from_dict(raw)
        assert sc.i_vector[0] == 1.0 + 0.0j


class TestValidation:
    def test_non_hermitian_names_field(self):
        raw = base_dict()
        raw["A_matrix"] = [[[0.0, 0.0], [1.0, 0.1]], [[1.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(NotHermitianError, match="A_matrix"):
            scenario.from_dict(raw)

    def test_unnormalized_state_names_field(self):
        raw = base_dict()
        raw["I_vector"] = [[1.0, 0.0], [1.0, 0.0]]
        with pytest.raises(NormalizationError, match="I_vector"):
            scenario.from_dict(raw)

    def test_short_extent_names_pointer(self):
        raw = base_dict()
        raw["pointer_A"]["extent"] = 4.0  # only 4 sigma
        with pytest.raises(GridExtentError, match="pointer_A"):
            scenario.from_dict(raw)

    def test_shift_guard_at_load(self):
        raw = base_dict()
        raw["gA_tA"] = 100.0
        with pytest.raises(GridExtentError, match="pointer_A"):
            scenario.from_dict(raw)

    def test_missing_field_named(self):
        raw = base_dict()
        del raw["F_vector"]
        with pytest.raises(ScenarioError, match="F_vector"):
            scenario.from_dict(raw)

    @pytest.mark.parametrize("drop, message", [
        (lambda raw: raw.pop("F_vector"), "missing required field 'F_vector'"),
        (lambda raw: raw["pointer_F"].pop("n_points"), "missing required field pointer_F.n_points"),
    ], ids=["top-level", "nested"])
    def test_missing_field_message(self, drop, message):
        raw = base_dict()
        drop(raw)
        with pytest.raises(ScenarioError) as info:
            scenario.from_dict(raw)
        assert str(info.value) == message

    def test_dimension_mismatch(self):
        raw = base_dict()
        raw["I_vector"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ScenarioError, match="I_vector"):
            scenario.from_dict(raw)

    def test_bad_run_settings(self):
        for key, value in (
            ("mode", "estimate"),
            ("readout", "velocity"),
            ("samples", -4),
            ("seed", -1),
            ("seed", 2**64),
        ):
            raw = base_dict()
            raw["run"][key] = value
            with pytest.raises(ScenarioError, match="run"):
                scenario.from_dict(raw)

    def test_zero_samples_only_outside_sampling_modes(self):
        for mode in scenario.MODES:
            raw = base_dict()
            raw["run"].update(mode=mode, samples=0)
            if mode.startswith("sample-"):
                with pytest.raises(ScenarioError, match="run.samples"):
                    scenario.from_dict(raw)
            else:
                assert scenario.from_dict(raw).run.samples == 0

    def test_samples_capped_only_in_sampling_modes(self):
        # validation only: no scenario here draws or allocates its records
        for samples, mode in itertools.product((2**70, scenario.MAX_SAMPLES + 1), scenario.MODES):
            raw = base_dict()
            raw["run"].update(mode=mode, samples=samples)
            if mode.startswith("sample-"):
                with pytest.raises(ScenarioError, match=f"run.samples: .*{samples}"):
                    scenario.from_dict(raw)
            else:
                assert scenario.from_dict(raw).run.samples == samples

    def test_samples_cap_is_inclusive(self):
        raw = base_dict()
        raw["run"].update(mode="sample-ideal", samples=scenario.MAX_SAMPLES)
        assert scenario.from_dict(raw).run.samples == scenario.MAX_SAMPLES

    def test_unknown_run_key_rejected(self):
        raw = base_dict()
        raw["run"]["walkers"] = 3
        with pytest.raises(ScenarioError, match="walkers"):
            scenario.from_dict(raw)

    def test_misspelt_run_block_rejected(self):
        raw = base_dict()
        raw["Run"] = raw.pop("run")
        with pytest.raises(ScenarioError, match="'Run'"):
            scenario.from_dict(raw)

    @pytest.mark.parametrize("block", ["pointer_A", "pointer_F"])
    def test_unknown_pointer_key_rejected(self, block):
        raw = base_dict()
        raw[block]["n_pointz"] = 256
        with pytest.raises(ScenarioError, match=f"{block}.n_pointz"):
            scenario.from_dict(raw)

    def test_zero_couplings_named(self):
        for key in ("gA_tA", "gF_tF"):
            raw = base_dict()
            raw[key] = 0.0
            with pytest.raises(ScenarioError, match=key):
                scenario.from_dict(raw)

    def test_non_finite_entries_named(self):
        for key in ("A_matrix", "I_vector", "F_vector"):
            raw = base_dict()
            entries = raw[key][0] if key == "A_matrix" else raw[key]
            entries[0] = [float("nan"), 0.0]
            with pytest.raises(ScenarioError, match=key):
                scenario.from_dict(raw)

    def test_booleans_are_not_numbers(self):
        for path in (
            ("system_dim",),
            ("pointer_F", "n_points"),
            ("pointer_A", "sigma"),
            ("run", "samples"),
            ("run", "seed"),
            ("gA_tA",),
        ):
            raw = base_dict()
            target = raw
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = True
            with pytest.raises(ScenarioError, match=path[-1]):
                scenario.from_dict(raw)

    def test_n_points_power_of_two(self):
        raw = base_dict()
        raw["pointer_F"]["n_points"] = 1000
        with pytest.raises(ScenarioError, match="pointer_F.n_points"):
            scenario.from_dict(raw)

    @pytest.mark.parametrize("field", ["pointer_A", "pointer_F"])
    def test_n_points_bounded(self, field):
        raw = base_dict()
        raw[field]["n_points"] = 2 * scenario.MAX_POINTS
        with pytest.raises(ScenarioError, match=f"{field}.n_points: at most"):
            scenario.from_dict(raw)
        # loading builds no grid, so the largest size is checked without allocating one;
        # in closed-form, since MAX_POINTS x 1024 is over the joint bound of sample-pointer
        raw["run"]["mode"] = "closed-form"
        raw[field]["n_points"] = scenario.MAX_POINTS
        assert getattr(scenario.from_dict(raw), field.lower()).n_points == scenario.MAX_POINTS

    @pytest.mark.parametrize("mode", scenario.MODES)
    def test_joint_cells_bounded(self, mode):
        # only sample-pointer and exact-moments build the n_A x n_F density
        raw = base_dict()
        raw["run"] = {"mode": mode}
        raw["pointer_A"]["n_points"], raw["pointer_F"]["n_points"] = 2**12, 2**13
        if mode in ("sample-pointer", "exact-moments"):
            with pytest.raises(ScenarioError, match=f"pointer_F.n_points: .* = {2**25} cells"):
                scenario.from_dict(raw)
            raw["pointer_F"]["n_points"] = 2**12
        assert scenario.from_dict(raw).run.mode == mode


class TestDefaults:
    def test_run_block_optional(self):
        raw = base_dict()
        del raw["run"]
        sc = scenario.from_dict(raw)
        assert sc.run.mode == "closed-form"
        assert sc.run.readout == "position"
        assert sc.run.samples == 100000
        assert sc.run.seed == 0

    def test_threshold_defaults_to_half_coupling(self):
        raw = base_dict()
        raw["gF_tF"] = 2.0
        raw["pointer_F"]["extent"] = 8.0
        del raw["run"]["threshold"]
        sc = scenario.from_dict(raw)
        assert sc.run.threshold == 1.0

    def test_with_seed(self):
        sc = scenario.preset("qubit-theta30")
        assert scenario.with_seed(sc, 123).run.seed == 123
        assert sc.run.seed == 7  # original untouched


class TestFileLoading:
    # not JSON, not UTF-8, and nested deeper than the JSON parser recurses
    @pytest.mark.parametrize("content", [b"{ not json", b"\xff\xfe{}", b"[" * 100000],
                             ids=["not-json", "not-utf8", "deep"])
    def test_parse_error(self, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        with pytest.raises(ScenarioError, match="bad.json is not valid JSON"):
            scenario.load_scenario(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            scenario.load_scenario(tmp_path / "absent.json")

    def test_valid_file(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(base_dict()))
        sc = scenario.load_scenario(path)
        assert sc.run.seed == 7
