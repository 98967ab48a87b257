"""Sampling determinism, post-selection bookkeeping, boost identity, estimates."""
import io
import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakmeas import cli, estimator, scenario
from weakmeas.errors import EmptyPostSelectionError
from weakmeas.estimator import MeasurementRecord, RecordBatch


@pytest.fixture(scope="module")
def theta30():
    return scenario.preset("qubit-theta30")


@pytest.fixture(scope="module")
def imaginary():
    return scenario.preset("imaginary-sigma-x")


def worked_example_records():
    # one selected readout of 2 among five trials, X_F already binary
    rows = [MeasurementRecord(2.0, 1.0, True)]
    rows += [MeasurementRecord(2.0, 0.0, False)] * 4
    return rows


class TestRecordBatch:
    def test_sequence_protocol(self, theta30):
        batch = estimator.sample_records(theta30, 100)
        assert len(batch) == 100
        rec = batch[3]
        assert isinstance(rec, MeasurementRecord)
        assert rec.selected == (rec.value_F > theta30.run.threshold)
        assert batch[-1] == list(batch)[-1]
        sub = batch[10:20]
        assert isinstance(sub, RecordBatch)
        assert len(sub) == 10
        assert sub[0] == batch[10]

    def test_column_length_mismatch(self):
        with pytest.raises(ValueError):
            RecordBatch([1.0, 2.0], [1.0], [True])

    def test_empty_request(self, theta30):
        batch = estimator.sample_records(theta30, 0)
        assert len(batch) == 0
        assert list(batch) == []


class TestPointerSampling:
    def test_deterministic_in_seed_and_schedule(self, theta30):
        a = estimator.sample_records(theta30, 30000)
        b = estimator.sample_records(theta30, 30000)
        c = estimator.sample_records(theta30, 30000, threads=4)
        for other in (b, c):
            np.testing.assert_array_equal(a.value_A, other.value_A)
            np.testing.assert_array_equal(a.value_F, other.value_F)
            np.testing.assert_array_equal(a.selected, other.selected)
        different = estimator.sample_records(theta30, 30000, seed=8)
        assert not np.array_equal(a.value_A, different.value_A)

    def test_segmentation_invariance(self, theta30):
        # record k depends on (seed, k) only, so segments splice exactly
        whole = estimator.sample_records(theta30, 150000)
        head = estimator.sample_records(theta30, 70000)
        tail = estimator.sample_records(theta30, 80000, start=70000)
        np.testing.assert_array_equal(
            whole.value_A, np.concatenate([head.value_A, tail.value_A])
        )
        np.testing.assert_array_equal(
            whole.selected, np.concatenate([head.selected, tail.selected])
        )

    def test_identity_observable_clusters_at_shift(self, theta30):
        sc = replace(theta30, a_matrix=np.eye(2))
        batch = estimator.sample_records(sc, 100000)
        mean = float(np.mean(batch.value_A))
        spread = float(np.std(batch.value_A))
        assert abs(mean - sc.ga_ta) < 3.0 / math.sqrt(len(batch))
        assert spread == pytest.approx(1.0, abs=0.02)

    def test_selected_fraction_tracks_projection_probability(self, theta30):
        batch = estimator.sample_records(theta30, 1000000)
        frac = float(np.mean(batch.selected))
        assert abs(frac - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / 1000000)

    def test_readout_is_continuous(self, theta30):
        batch = estimator.sample_records(theta30, 20000)
        sel_spread = float(np.std(batch.value_F[batch.selected]))
        # F readout keeps its sigma_F = 0.05 width, unlike the ideal 0/1
        assert 0.03 < sel_spread < 0.07
        np.testing.assert_array_equal(
            batch.selected, batch.value_F > theta30.run.threshold
        )


class TestIdealSampling:
    def test_outcomes_are_binary(self, theta30):
        batch = estimator.sample_ideal(theta30, 50000)
        assert set(np.unique(batch.value_F)) <= {0.0, 1.0}
        np.testing.assert_array_equal(batch.selected, batch.value_F == 1.0)

    def test_fraction_near_born_probability(self, theta30):
        batch = estimator.sample_ideal(theta30, 100000)
        # |<F|I>|^2 = 0.25 up to an O(g_A) disturbance from the coupling
        assert abs(float(np.mean(batch.selected)) - 0.25) < 0.01

    def test_selected_mean_estimates_weak_value(self, theta30):
        batch = estimator.sample_ideal(theta30, 100000)
        s = estimator.summarize(batch, theta30)
        assert abs(s.estimate - 2.0) < 0.4  # 3 standard errors at this n

    def test_orthogonal_zero_strength_selects_nothing(self, theta30):
        sc = replace(
            theta30,
            i_vector=np.array([1.0, 0.0]),
            f_vector=np.array([0.0, 1.0]),
            ga_ta=0.0,
        )
        batch = estimator.sample_ideal(sc, 5000)
        assert int(batch.selected.sum()) == 0
        with pytest.raises(EmptyPostSelectionError):
            estimator.summarize(batch, sc)

    def test_deterministic(self, theta30):
        a = estimator.sample_ideal(theta30, 20000)
        b = estimator.sample_ideal(theta30, 20000, threads=3)
        np.testing.assert_array_equal(a.value_A, b.value_A)
        np.testing.assert_array_equal(a.value_F, b.value_F)


class TestSummarize:
    def test_worked_example_dataset(self, theta30):
        sc = replace(theta30, ga_ta=1.0)
        s = estimator.summarize(worked_example_records(), sc)
        assert s.n_total == 5
        assert s.n_selected == 1
        assert s.mean_all_AF == pytest.approx(0.4, abs=1e-15)
        assert s.mean_F == pytest.approx(0.2, abs=1e-15)
        assert s.mean_F_raw == pytest.approx(0.2, abs=1e-15)
        assert s.mean_selected_A == pytest.approx(2.0, abs=1e-15)
        assert s.boost == pytest.approx(5.0, abs=1e-12)
        assert s.boost * s.mean_F == pytest.approx(1.0, abs=1e-12)
        assert s.estimate == pytest.approx(2.0, abs=1e-15)
        assert math.isnan(s.std_error)  # single selected record

    def test_all_selected_has_unit_boost(self, theta30):
        xa = np.array([0.3, -1.2, 0.9, 2.5])
        batch = RecordBatch(xa, np.ones(4), np.ones(4, dtype=bool))
        s = estimator.summarize(batch, theta30)
        assert s.mean_selected_A == pytest.approx(float(xa.mean()), abs=1e-15)
        assert s.boost == pytest.approx(1.0, abs=1e-12)

    def test_empty_selection_raises(self, theta30):
        batch = RecordBatch(np.ones(10), np.zeros(10), np.zeros(10, dtype=bool))
        with pytest.raises(EmptyPostSelectionError):
            estimator.summarize(batch, theta30)
        with pytest.raises(EmptyPostSelectionError):
            estimator.summarize([], theta30)

    def test_position_estimate_at_scale(self, theta30):
        batch = estimator.sample_records(theta30, 1000000)
        s = estimator.summarize(batch, theta30)
        assert abs(s.estimate - 2.0) <= 0.1
        assert 0.02 < s.std_error < 0.06
        assert s.seed == theta30.run.seed
        assert s.mode == "sample-pointer"
        assert s.readout == "position"

    def test_momentum_estimate(self, imaginary):
        batch = estimator.sample_records(imaginary, 100000)
        s = estimator.summarize(batch, imaginary)
        assert abs(s.estimate - (-1.0)) < 0.25  # 3 standard errors at this n
        assert s.readout == "momentum"

    def test_binarized_and_raw_f_means_agree(self, theta30):
        # the jittered F readout sits within sigma_F of its 0/1 branch, so
        # the two averages differ only at sampling-noise level
        batch = estimator.sample_records(theta30, 100000)
        s = estimator.summarize(batch, theta30)
        assert abs(s.mean_F - s.mean_F_raw) < 1e-3


class TestBoostIdentity:
    def test_worked_example_dataset(self):
        chk = estimator.boost_identity_check(worked_example_records())
        assert chk.passed
        assert chk.lhs == pytest.approx(0.4, abs=1e-15)
        assert chk.rhs == pytest.approx(0.4, abs=1e-15)

    def test_all_selected(self):
        xa = np.array([1.0, 3.0, -2.0])
        batch = RecordBatch(xa, np.ones(3), np.ones(3, dtype=bool))
        chk = estimator.boost_identity_check(batch)
        assert chk.passed
        assert chk.lhs == pytest.approx(float(xa.mean()), abs=1e-15)

    def test_hundred_random_binarized_datasets(self):
        rng = np.random.default_rng(6101)
        done = 0
        while done < 100:
            n = int(rng.integers(1, 1000))
            sel = rng.random(n) < rng.random()
            if not sel.any():
                continue
            xa = rng.normal(scale=5.0, size=n)
            batch = RecordBatch(xa, sel.astype(float), sel)
            chk = estimator.boost_identity_check(batch)
            assert chk.passed
            assert abs(chk.lhs - chk.rhs) <= 1e-12
            done += 1

    def test_sampled_records_pass(self, theta30):
        batch = estimator.sample_records(theta30, 10000)
        assert estimator.boost_identity_check(batch).passed

    def test_requires_selected_record(self):
        batch = RecordBatch([1.0], [0.0], [False])
        with pytest.raises(EmptyPostSelectionError):
            estimator.boost_identity_check(batch)


class TestExactMoments:
    def test_amplified_qubit_values(self, theta30):
        em = estimator.exact_moments(theta30)
        assert em["mean_A"] == pytest.approx(0.025, abs=1e-10)
        assert em["mean_F"] == pytest.approx(0.250468457153, abs=1e-9)
        assert em["correlation_over_gA"] == pytest.approx(0.5, abs=1e-10)
        # conditional estimate 2/(1 + 0.75 g^2) up to residual selection bias
        assert em["estimate"] == pytest.approx(2.0 / 1.001875, abs=5e-5)
        assert abs(em["estimate"] - 2.0) < 0.01
        assert em["std_error"] == 0.0

    def test_imaginary_scenario_value(self, imaginary):
        em = estimator.exact_moments(imaginary)
        assert em["estimate"] == pytest.approx(-0.9987507809245, abs=1e-9)

    def test_unreachable_threshold_raises(self, theta30):
        sc = replace(theta30, run=replace(theta30.run, threshold=10.0))
        with pytest.raises(EmptyPostSelectionError):
            estimator.exact_moments(sc)


class TestConvergence:
    def streamed_estimate(self, sc, g, n):
        probe = replace(sc, ga_ta=g)
        selected = 0
        acc = 0.0
        step = 5000000
        for lo in range(0, n, step):
            batch = estimator.sample_records(probe, min(step, n - lo), start=lo)
            selected += int(batch.selected.sum())
            acc += float(batch.value_A[batch.selected].sum())
        return acc / selected / g

    def test_error_shrinks_with_strength_at_fixed_information(self, theta30):
        # n g^2 held at 1e4 keeps the sampling error near 0.02 while the
        # first-order bias scales as g^2
        errors = {}
        for g in (0.2, 0.05, 0.02):
            n = int(round(1e4 / g**2))
            errors[g] = abs(self.streamed_estimate(theta30, g, n) - 2.0)
        assert errors[0.05] <= 0.1
        assert errors[0.2] > errors[0.02]


class TestModeAgreement:
    def test_pointer_and_ideal_estimates_agree(self, theta30):
        n = 1000000
        sp = estimator.summarize(estimator.sample_records(theta30, n), theta30)
        si = estimator.summarize(estimator.sample_ideal(theta30, n), theta30)
        combined = math.hypot(sp.std_error, si.std_error)
        misclassification = math.erfc(
            theta30.gf_tf / (2.0 * math.sqrt(2.0) * theta30.pointer_f.sigma)
        )
        assert abs(sp.estimate - si.estimate) <= 3.0 * combined + misclassification


class TestRecordDump:
    def test_csv_shape_and_roundtrip(self, theta30):
        batch = estimator.sample_records(theta30, 50)
        buf = io.StringIO()
        estimator.dump_records(batch, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "index,value_A,value_F,selected"
        assert len(lines) == 51
        for k, line in enumerate(lines[1:]):
            idx, xa, xf, sel = line.split(",")
            assert int(idx) == k
            assert float(xa) == batch.value_A[k]  # 17 digits round-trip exactly
            assert float(xf) == batch.value_F[k]
            assert sel in ("0", "1")
            assert (sel == "1") == bool(batch.selected[k])


def reference_dump(records, handle):
    """The one-row-per-write writer dump_records must match byte for byte."""
    xa, xf, sel = estimator._columns(records)
    handle.write("index,value_A,value_F,selected\n")
    for k in range(xa.size):
        handle.write(f"{k},{xa[k]:.17g},{xf[k]:.17g},{1 if sel[k] else 0}\n")


def dump_matching_reference(records) -> str:
    got, want = io.StringIO(), io.StringIO()
    estimator.dump_records(records, got)
    reference_dump(records, want)
    # name the first differing line: pytest's diff of two long texts is slow
    pairs = zip(got.getvalue().splitlines(True), want.getvalue().splitlines(True))
    first = next(((k, a, b) for k, (a, b) in enumerate(pairs) if a != b), None)
    assert first is None, f"line {first[0]}: {first[1]!r} != {first[2]!r}"
    assert got.getvalue() == want.getvalue()
    return got.getvalue()


EDGE_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e17, 0.1, 1e-5,
               float(2**53)]


class TestBlockWriter:
    def test_edge_values_match_reference(self):
        edges = np.array(EDGE_VALUES)
        text = dump_matching_reference(
            RecordBatch(edges, edges[::-1], np.arange(edges.size) % 2 == 0)
        )
        column_a = [line.split(",")[1] for line in text.splitlines()[1:]]
        assert column_a[:6] == ["0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324"]

    @pytest.mark.parametrize("blocks, rows", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
                             ids=["0", "1", "B-1", "B", "B+1", "3B+7"])
    def test_row_counts_match_reference(self, blocks, rows):
        n = blocks * estimator.DUMP_BLOCK_ROWS + rows
        rng = np.random.default_rng(n)
        # random bit patterns reach every exponent, subnormals and NaN payloads
        xa = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        text = dump_matching_reference(RecordBatch(xa, rng.normal(size=n), rng.random(n) < 0.5))
        assert text.count("\n") == n + 1

    def test_record_list_matches_reference(self):
        dump_matching_reference(
            [MeasurementRecord(v, -v, k % 2 == 0) for k, v in enumerate(EDGE_VALUES)]
        )


def sum_bits(value) -> int:
    return int(np.array(value, dtype=np.float64).view(np.uint64))


def order_sensitive_values(rng, n):
    # magnitudes over 16 decades make every summation order round differently;
    # the selection product adds the signed zeros of unselected records
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    return values * (rng.random(n) < 0.75)


def streamed_sum(values, sizes):
    acc = estimator.PairwiseSum(values.size)
    lo = 0
    for size in sizes:
        acc.add(values[lo:lo + size])
        lo += size
    assert lo == values.size
    return acc.total


def random_split(rng, n, pieces):
    cuts = np.sort(rng.integers(0, n + 1, pieces - 1)) if n else np.zeros(pieces - 1, int)
    return np.diff(np.concatenate([[0], cuts, [n]])).tolist()


class TestPairwiseSum:
    """The streamed sum must equal np.add.reduce bit for bit.

    If a numpy release changes its summation tree this fails first; the fix
    belongs in PairwiseSum, never in these checks.
    """

    C = estimator.CHUNK_SIZE

    @pytest.mark.parametrize("n", [0, 1, 5, 7, 8, 9, 16, 127, 128, 129, 136, 257, 1000,
                                   C - 1, C, C + 1, 200000, 1000000])
    def test_matches_add_reduce(self, n):
        rng = np.random.default_rng([1604, n])
        values = order_sensitive_values(rng, n)
        want = sum_bits(np.add.reduce(values))
        if n >= 1000:
            # the data can tell summation orders apart
            assert sum_bits(np.cumsum(values)[-1]) != want
        assert sum_bits(streamed_sum(values, [n])) == want
        for pieces in (2, 3, 17):
            assert sum_bits(streamed_sum(values, random_split(rng, n, pieces))) == want
        for start in (0, 1, 8, self.C - 129, int(rng.integers(0, 10 * self.C))):
            sizes = [hi - lo for _, lo, hi in estimator._chunk_plan(start, n)]
            assert sum_bits(streamed_sum(values, sizes)) == want

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 3000), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_random_lengths_and_splits(self, n, pieces, seed):
        rng = np.random.default_rng(seed)
        values = order_sensitive_values(rng, n)
        got = streamed_sum(values, random_split(rng, n, pieces))
        assert sum_bits(got) == sum_bits(np.add.reduce(values))

    def test_signed_zero_total(self):
        values = np.full(300, -0.0)
        assert sum_bits(streamed_sum(values, [100, 200])) == sum_bits(np.add.reduce(values))

    def test_missing_values_raise(self):
        acc = estimator.PairwiseSum(10)
        acc.add(np.ones(9))
        with pytest.raises(ValueError):
            acc.total


class TestStreamedRun:
    def test_totals_match_record_batch(self, theta30):
        n = 3 * estimator.CHUNK_SIZE + 17
        batch = estimator.summarize(estimator.sample_records(theta30, n), theta30)
        totals = estimator.sample_records(theta30, n, sink=estimator.RunTotals(n))
        assert len(totals) == n
        assert estimator.summarize(totals, theta30) == batch

    def test_thread_window(self, imaginary, monkeypatch):
        # chunks drawn but not yet consumed never exceed 2 * threads
        lock, state = threading.Lock(), {"drawn": 0, "used": 0, "peak": 0}
        real_block, real_add = estimator._uniform_block, estimator.RunTotals.add

        def counted_block(*args):
            with lock:
                state["drawn"] += 1
                state["peak"] = max(state["peak"], state["drawn"] - state["used"])
            return real_block(*args)

        def slow_add(self, *columns):
            time.sleep(0.01)  # a slow consumer lets the workers run ahead
            with lock:
                state["used"] += 1
            real_add(self, *columns)

        monkeypatch.setattr(estimator, "_uniform_block", counted_block)
        monkeypatch.setattr(estimator.RunTotals, "add", slow_add)
        raw = scenario.to_dict(imaginary)
        raw["run"].update(mode="sample-ideal", samples=10 * estimator.CHUNK_SIZE)
        sc = scenario.from_dict(raw)
        doc, _ = cli.run_scenario(sc, threads=2)
        assert doc["n_total"] == 10 * estimator.CHUNK_SIZE
        assert state["drawn"] == state["used"] == 10
        assert state["peak"] <= 4

    def test_segment_dumps_concatenate(self, theta30):
        whole, head, tail = io.StringIO(), io.StringIO(), io.StringIO()
        estimator.dump_records(estimator.sample_records(theta30, 5000), whole)
        estimator.dump_records(estimator.sample_records(theta30, 3000), head)
        estimator.dump_records(estimator.sample_records(theta30, 2000, start=3000), tail)
        assert head.getvalue() + tail.getvalue() == whole.getvalue()
        assert estimator.sample_records(theta30, 10, start=7)[2:5].start == 9
