"""Measurement protocol: sampling, the 18 variances, reconstruction, trials."""

import math
import os
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_steering import (
    DIRECTIONS,
    CovarianceMatrix,
    GhzConfig,
    NumericalError,
    build_state,
    reconstruct_trials,
    steering_report,
)
from ghz_steering import tomography
from ghz_steering.network import correlation_variance
from ghz_steering.symplectic import symplectic_eigenvalues
from ghz_steering.tomography import (
    _BLOCK_ROWS,
    MEASUREMENT_LABELS,
    REJECT_NU_FLOOR,
    MeasurementSet,
    covariance_from_measurements,
    measure_set,
    population_measurements,
    sample_covariance,
    sample_quadratures,
)

R = 0.339


def test_measurement_labels_are_a_frozen_contract():
    assert MEASUREMENT_LABELS == (
        "xA", "pA", "xB", "pB", "xC", "pC",
        "xA-xB", "xA-xC", "xB-xC", "pA-pB", "pA-pC", "pB-pC",
        "xA+pB", "xA+pC", "xB+pC", "pA+xB", "pA+xC", "pB+xC",
    )


class TestMeasurementSet:
    def test_as_array_follows_label_order(self):
        ms = population_measurements(build_state(GhzConfig()))
        arr = ms.as_array()
        assert arr.tolist() == [ms.variances[lab] for lab in MEASUREMENT_LABELS]

    def test_rejects_wrong_keys(self):
        good = population_measurements(build_state(GhzConfig())).variances
        reordered = dict(reversed(list(good.items())))
        with pytest.raises(ValueError):
            MeasurementSet(variances=reordered)

    def test_rejects_missing_key(self):
        good = dict(population_measurements(build_state(GhzConfig())).variances)
        good.pop("pB+xC")
        with pytest.raises(ValueError):
            MeasurementSet(variances=good)

    def test_rejects_negative_variance(self):
        good = dict(population_measurements(build_state(GhzConfig())).variances)
        good["xA"] = -1.0
        with pytest.raises(ValueError):
            MeasurementSet(variances=good)


class TestSampleQuadratures:
    def test_shape(self):
        samples = sample_quadratures(build_state(GhzConfig()), 50, seed=1)
        assert samples.shape == (50, 6)

    def test_same_seed_same_table(self):
        cm = build_state(GhzConfig(eta=0.8))
        one = sample_quadratures(cm, 200, seed=9)
        two = sample_quadratures(cm, 200, seed=9)
        assert np.array_equal(one, two)

    def test_different_seeds_differ(self):
        cm = build_state(GhzConfig())
        assert not np.array_equal(
            sample_quadratures(cm, 200, seed=9), sample_quadratures(cm, 200, seed=10))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            sample_quadratures(build_state(GhzConfig()), 1, seed=0)

    def test_rejects_indefinite_matrix(self):
        bad = CovarianceMatrix(np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            sample_quadratures(bad, 10, seed=0)

    def test_vacuum_statistics(self):
        samples = sample_quadratures(CovarianceMatrix(np.eye(6)), 1_000_000, seed=3)
        variances = samples.var(axis=0, ddof=1)
        assert np.allclose(variances, 1.0, atol=0.01)

    def test_sampled_correlation_variance(self):
        cm = build_state(GhzConfig())
        samples = sample_quadratures(cm, 100_000, seed=11)
        diff = samples[:, 0] - samples[:, 2]
        assert diff.var(ddof=1) == pytest.approx(2 * math.exp(-2 * R), abs=0.02)


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestSampleCovariance:
    @pytest.mark.parametrize("n", [2, 5, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   3 * _BLOCK_ROWS + 7])
    def test_matches_the_sample_table(self, n):
        # the blocked stream is the table's stream; only rounding differs
        cm = build_state(GhzConfig(eta=0.7))
        table = sample_quadratures(cm, n, seed=21)
        got = sample_covariance(cm, n, seed=21).matrix
        assert relative_error(got, np.cov(table, rowvar=False)) <= 1e-12

    @pytest.mark.parametrize("cm, n", [
        (build_state(GhzConfig()), 1),
        (build_state(GhzConfig()), 0),
        (CovarianceMatrix(np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])), 10),
    ])
    def test_raises_what_sample_quadratures_raises(self, cm, n):
        with pytest.raises(ValueError) as table_error:
            sample_quadratures(cm, n, seed=0)
        with pytest.raises(ValueError) as cov_error:
            sample_covariance(cm, n, seed=0)
        assert str(cov_error.value) == str(table_error.value)


class TestMeasureSet:
    def test_unbiased_divisor(self):
        # columns 0 and 2 hold [0, 1, 2]: var = 1 with ddof=1, and their
        # difference is constant so the minus combo must vanish
        samples = np.zeros((3, 6))
        samples[:, 0] = [0.0, 1.0, 2.0]
        samples[:, 2] = [0.0, 1.0, 2.0]
        ms = measure_set(samples)
        assert ms.variances["xA"] == pytest.approx(1.0)
        assert ms.variances["xA-xB"] == pytest.approx(0.0)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            measure_set(np.zeros((10, 4)))

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            measure_set(np.zeros((1, 6)))


class TestPopulationMeasurements:
    def test_matches_correlation_variance(self):
        cm = build_state(GhzConfig(eta=0.6))
        ms = population_measurements(cm)
        assert ms.variances["xA-xB"] == correlation_variance(cm, "xA-xB")

    def test_lossless_pair_value(self):
        ms = population_measurements(build_state(GhzConfig()))
        assert ms.variances["xA-xB"] == pytest.approx(2 * math.exp(-2 * R), abs=1e-10)

    def test_three_modes_required(self):
        with pytest.raises(ValueError):
            population_measurements(CovarianceMatrix(np.eye(4)))


class TestCovarianceFromMeasurements:
    def test_vacuum(self):
        out = covariance_from_measurements(population_measurements(CovarianceMatrix(np.eye(6))))
        assert np.allclose(out.matrix, np.eye(6), atol=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=1.2),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_population_round_trip_is_exact(self, r, eta):
        cm = build_state(GhzConfig(r1=r, r2=r, r3=r, eta=eta))
        out = covariance_from_measurements(population_measurements(cm))
        assert np.max(np.abs(out.matrix - cm.matrix)) <= 1e-12

    def test_plus_and_minus_identities_agree(self):
        # Cov(xA, xB) extracted from Var(xA - xB) must equal the value
        # extracted from Var(xA + xB), which is not part of the protocol
        cm = build_state(GhzConfig(eta=0.7))
        ms = population_measurements(cm).variances
        plus = correlation_variance(cm, "xA+xB")
        from_minus = -0.5 * (ms["xA-xB"] - ms["xA"] - ms["xB"])
        from_plus = 0.5 * (plus - ms["xA"] - ms["xB"])
        assert from_minus == pytest.approx(from_plus, abs=1e-12)

    def test_within_mode_cross_terms_are_not_measured(self):
        # rotate mode A in phase space so the true state has an xA-pA
        # covariance; the protocol cannot see it, everything else survives
        theta = 0.3
        rot = np.eye(6)
        rot[0:2, 0:2] = [[math.cos(theta), math.sin(theta)],
                         [-math.sin(theta), math.cos(theta)]]
        state = build_state(GhzConfig()).matrix
        rotated = CovarianceMatrix(rot @ state @ rot.T)
        out = covariance_from_measurements(population_measurements(rotated))
        assert abs(rotated.matrix[0, 1]) > 0.1
        assert out.matrix[0, 1] == 0.0
        mask = np.ones((6, 6), dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        assert np.max(np.abs((out.matrix - rotated.matrix)[mask])) <= 1e-12


def per_trial_reference(cm, n_samples, n_trials, seed):
    """reconstruct_trials as a loop of one-trial library calls."""
    matrices, nu_mins, accepted, rows = [], [], [], []
    for index, child in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        sampled = sample_covariance(cm, n_samples, child)
        matrix = covariance_from_measurements(population_measurements(sampled))
        matrices.append(matrix.matrix)
        try:
            nu_min = float(symplectic_eigenvalues(matrix.matrix).min())
        except NumericalError:  # not positive definite
            nu_min = 0.0
        nu_mins.append(nu_min)
        if nu_min >= REJECT_NU_FLOOR:
            accepted.append(index)
            rows.append([steering_report(matrix).g[d] for d in DIRECTIONS])
    if len(rows) < 2:  # reconstruct_trials raises
        return matrices, nu_mins, accepted, rows, None, None
    values = np.array(rows)
    return matrices, nu_mins, accepted, rows, values.mean(axis=0), values.std(axis=0, ddof=1)


def assert_equals_reference(stats, reference):
    """reconstruct_trials output bit-identical to per_trial_reference."""
    matrices, nu_mins, accepted, rows, mean, std = reference
    assert all(np.array_equal(got.matrix, want) for got, want in zip(stats.matrices, matrices))
    assert len(stats.matrices) == len(matrices)
    assert np.array_equal(stats.min_symplectic_eigenvalues, nu_mins)
    assert stats.accepted == tuple(accepted)
    assert [[rep.g[d] for d in DIRECTIONS] for rep in stats.reports] == rows
    assert np.array_equal([stats.mean[d] for d in DIRECTIONS], mean)
    assert np.array_equal([stats.std[d] for d in DIRECTIONS], std)


class TestReconstructTrials:
    @pytest.mark.parametrize("cm, n, trials, seed", [
        (build_state(GhzConfig()), 20_000, 3, 7),
        (build_state(GhzConfig()), 1000, 3, 0),  # rejects trial 2
        (build_state(GhzConfig(eta=0.8)), 2000, 50, 3),
        # seed found by searching 0..99: trial 0 of this thermal state is not
        # positive definite, trials 1 and 2 are accepted
        (CovarianceMatrix(3.0 * np.eye(6)), 10, 3, 12),
    ])
    def test_equals_the_per_trial_loop(self, cm, n, trials, seed):
        stats = reconstruct_trials(cm, n_samples=n, n_trials=trials, seed=seed)
        assert_equals_reference(stats, per_trial_reference(cm, n, trials, seed))

    def test_a_trial_that_is_not_positive_definite_reads_zero(self):
        stats = reconstruct_trials(CovarianceMatrix(3.0 * np.eye(6)), 10, 3, seed=12)
        assert stats.min_symplectic_eigenvalues[0] == 0.0
        assert stats.rejected == (0,) and len(stats.accepted) >= 2

    def test_deterministic(self):
        cm = build_state(GhzConfig())
        one = reconstruct_trials(cm, n_samples=20_000, n_trials=3, seed=7)
        two = reconstruct_trials(cm, n_samples=20_000, n_trials=3, seed=7)
        assert one.mean == two.mean and one.std == two.std
        for m1, m2 in zip(one.matrices, two.matrices):
            assert np.array_equal(m1.matrix, m2.matrix)

    def test_no_repair_of_reconstructed_matrices(self):
        # trial matrices must be exactly what the pipeline produced for the
        # spawned child seed; no projection back to physicality
        cm = build_state(GhzConfig())
        stats = reconstruct_trials(cm, n_samples=20_000, n_trials=3, seed=7)
        child = np.random.SeedSequence(7).spawn(3)[1]
        direct = covariance_from_measurements(
            population_measurements(sample_covariance(cm, 20_000, child)))
        assert np.array_equal(stats.matrices[1].matrix, direct.matrix)

    @pytest.mark.parametrize("n, seed", [(20_000, 7), (20_000, 12345), (1000, 0)])
    def test_matches_the_sample_table_pipeline(self, n, seed):
        # (1000, 0) rejects its last trial
        cm = build_state(GhzConfig())
        stats = reconstruct_trials(cm, n_samples=n, n_trials=3, seed=seed)
        tables = [sample_quadratures(cm, n, child)
                  for child in np.random.SeedSequence(seed).spawn(3)]
        accepted = []
        for index, (got, table) in enumerate(zip(stats.matrices, tables)):
            want = covariance_from_measurements(measure_set(table)).matrix
            assert relative_error(got.matrix, want) <= 1e-12
            if symplectic_eigenvalues(want).min() >= REJECT_NU_FLOOR:
                accepted.append(index)
        assert stats.accepted == tuple(accepted)

    def test_memory_does_not_grow_with_samples(self):
        # a 1M-sample table alone is 48 MB; the streamed trials stay near
        # one block of draws
        state = build_state(GhzConfig())
        tracemalloc.start()
        try:
            reconstruct_trials(state, 1_000_000, 2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_bookkeeping_fields(self):
        cm = build_state(GhzConfig())
        stats = reconstruct_trials(cm, n_samples=20_000, n_trials=4, seed=1)
        assert stats.n_samples == 20_000 and stats.n_trials == 4 and stats.seed == 1
        assert len(stats.matrices) == 4
        assert len(stats.min_symplectic_eigenvalues) == 4
        assert len(stats.reports) == len(stats.accepted)
        assert set(stats.accepted) | set(stats.rejected) == {0, 1, 2, 3}

    def test_small_sample_trials_can_be_rejected(self):
        stats = reconstruct_trials(build_state(GhzConfig()), n_samples=1000, n_trials=3, seed=0)
        assert stats.accepted == (0, 1)
        assert stats.rejected == (2,)
        assert stats.min_symplectic_eigenvalues[2] < REJECT_NU_FLOOR

    def test_raises_when_too_few_trials_survive(self):
        with pytest.raises(RuntimeError, match="nu_min"):
            reconstruct_trials(build_state(GhzConfig()), n_samples=1000, n_trials=3, seed=4)

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            reconstruct_trials(build_state(GhzConfig()), n_samples=1000, n_trials=1, seed=0)

    def test_statistics_cover_accepted_trials(self):
        cm = build_state(GhzConfig())
        stats = reconstruct_trials(cm, n_samples=20_000, n_trials=3, seed=2)
        values = [rep.g["BC->A"] for rep in stats.reports]
        assert stats.mean["BC->A"] == pytest.approx(np.mean(values))
        assert stats.std["BC->A"] == pytest.approx(np.std(values, ddof=1))
        assert all(v >= 0 for v in stats.std.values())


def expected_too_few_message(nu_mins, accepted):
    detail = ", ".join(f"trial {i}: nu_min={nu:.4f}" for i, nu in enumerate(nu_mins))
    return (f"only {len(accepted)} of {len(nu_mins)} trials reconstructed a physical "
            f"matrix (floor {REJECT_NU_FLOOR}); {detail}")


def worker_counts(n_trials):
    return [1, 2, 3, n_trials + 2]


def streamed_reference(n_samples, dim, seed):
    """cov(Z) of n_samples standard-normal rows Z, summed block by block in stream order."""
    rng = np.random.default_rng(seed)
    sums, gram = np.zeros(dim), np.zeros((dim, dim))
    for start in range(0, n_samples, _BLOCK_ROWS):
        block = rng.standard_normal((min(_BLOCK_ROWS, n_samples - start), dim))
        sums += np.ones(len(block)) @ block
        gram += block.T @ block
    mean = sums / n_samples
    return (gram - n_samples * np.outer(mean, mean)) / (n_samples - 1)


class LoggedGenerator(np.random.Generator):
    """The stream of default_rng(seed), logging each block as (trial, thread, rows, alone).

    Each block is held open for `hold` seconds so that threads interleave;
    `alone` is False when another thread was inside this generator at the
    same time.  hook(trial, block number) runs before each block and may raise.
    """

    def __init__(self, trial, seed, log, hold=0.005, hook=None):
        super().__init__(np.random.PCG64(seed))
        self.trial, self.log, self.hold, self.hook = trial, log, hold, hook
        self.blocks = 0
        self.inside = threading.Lock()

    def standard_normal(self, *args, **kwargs):
        alone = self.inside.acquire(blocking=False)
        try:
            self.log.append((self.trial, threading.current_thread(), len(kwargs["out"]), alone))
            block, self.blocks = self.blocks, self.blocks + 1
            if self.hook is not None:
                self.hook(self.trial, block)
            time.sleep(self.hold)
            return super().standard_normal(*args, **kwargs)
        finally:
            if alone:
                self.inside.release()


def logged_generators(n_trials, seed, log, **kwargs):
    """One LoggedGenerator per child seed that reconstruct_trials would spawn."""
    children = np.random.SeedSequence(seed).spawn(n_trials)
    return [LoggedGenerator(trial, child, log, **kwargs) for trial, child in enumerate(children)]


class TestConcurrentSampling:
    """Trials are sampled block by block on up to one thread per usable CPU."""

    @pytest.mark.parametrize("cm, n, trials, seed", [
        (build_state(GhzConfig()), 20_000, 3, 7),  # 2 full blocks plus 3616 rows
        (build_state(GhzConfig()), 1000, 3, 0),  # rejects trial 2
        (build_state(GhzConfig(eta=0.8)), 2000, 50, 3),
    ])
    def test_results_do_not_depend_on_the_worker_count(self, monkeypatch, cm, n, trials, seed):
        reference = per_trial_reference(cm, n, trials, seed)
        for workers in worker_counts(trials):
            monkeypatch.setattr(tomography, "_usable_cpus", lambda: workers)
            stats = reconstruct_trials(cm, n_samples=n, n_trials=trials, seed=seed)
            assert_equals_reference(stats, reference)

    def test_too_few_accepted_raises_the_same_message_for_any_worker_count(self, monkeypatch):
        cm = build_state(GhzConfig())
        _, nu_mins, accepted, *_ = per_trial_reference(cm, 1000, 3, 4)
        assert len(accepted) < 2
        for workers in worker_counts(3):
            monkeypatch.setattr(tomography, "_usable_cpus", lambda: workers)
            with pytest.raises(RuntimeError) as exc:
                reconstruct_trials(cm, n_samples=1000, n_trials=3, seed=4)
            assert str(exc.value) == expected_too_few_message(nu_mins, accepted)

    def test_two_threads_share_every_trial_block_by_block(self, monkeypatch):
        # 12 blocks per trial: each round of two blocks hands a thread another
        # trial, so a thread that never meets one trial needs ~18 lucky rounds
        log = []
        monkeypatch.setattr(tomography, "_usable_cpus", lambda: 2)
        tomography._normal_covariances(12 * _BLOCK_ROWS, 6,
                                       logged_generators(3, 1, log, hold=0.002))
        drawers = {trial: {thread for t, thread, *_ in log if t == trial} for trial in range(3)}
        assert all(len(threads) == 2 for threads in drawers.values()), drawers

    @pytest.mark.parametrize("workers", worker_counts(4))
    def test_a_trial_is_drawn_by_one_thread_at_a_time_in_stream_order(self, monkeypatch, workers):
        n = 3 * _BLOCK_ROWS + 7
        log = []
        monkeypatch.setattr(tomography, "_usable_cpus", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            got = tomography._normal_covariances(n, 6, logged_generators(4, 2, log, hold=0.001))
        finally:
            sys.setswitchinterval(interval)
        assert all(alone for *_, alone in log)
        for trial, child in enumerate(np.random.SeedSequence(2).spawn(4)):
            assert [rows for t, _, rows, _ in log if t == trial] == [_BLOCK_ROWS] * 3 + [7]
            assert got[trial].tobytes() == streamed_reference(n, 6, child).tobytes()

    @pytest.mark.parametrize("workers", worker_counts(4))
    def test_the_first_failure_in_trial_order_propagates(self, monkeypatch, workers):
        # trial 2 fails on its first block and trial 1 on its second;
        # the sequential loop would raise trial 1's error
        def hook(trial, block):
            if (trial, block) in ((1, 1), (2, 0)):
                raise FloatingPointError(f"trial {trial} failed")

        log = []
        monkeypatch.setattr(tomography, "_usable_cpus", lambda: workers)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=r"^trial 1 failed$"):
            tomography._normal_covariances(5 * _BLOCK_ROWS, 6,
                                           logged_generators(4, 5, log, hook=hook))
        assert threading.active_count() == before
        blocks = Counter(trial for trial, *_ in log)
        assert blocks[0] == 5  # runs on: it could still fail first in trial order
        assert blocks[3] <= 1  # no longer scheduled once trial 2 has failed

    @pytest.mark.parametrize("workers", [2, 3, 6])
    def test_an_interrupt_stops_the_other_threads_within_one_block(self, monkeypatch, workers):
        caller = threading.current_thread()
        caller_blocks, late = [], []

        def hook(trial, block):
            if threading.current_thread() is not caller:
                if caller_blocks and caller_blocks[-1] == "interrupted":
                    late.append(threading.current_thread())
                return
            caller_blocks.append(trial)
            if len(caller_blocks) == 2:
                caller_blocks.append("interrupted")
                raise KeyboardInterrupt

        log = []
        monkeypatch.setattr(tomography, "_usable_cpus", lambda: workers)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            tomography._normal_covariances(5 * _BLOCK_ROWS, 6,
                                           logged_generators(4, 6, log, hook=hook))
        assert threading.active_count() == before
        # a block in progress is finished; at most one more can start before the queue empties
        assert all(count <= 1 for count in Counter(late).values()), late
        assert len(log) < 4 * 5

    def test_usable_cpus_follows_the_affinity_mask(self):
        assert tomography._usable_cpus() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("cpu_count, want", [(4, 4), (None, 1)])
    def test_usable_cpus_without_affinity(self, monkeypatch, cpu_count, want):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert tomography._usable_cpus() == want


def test_reconstruction_error_shrinks_with_sample_size():
    cm = build_state(GhzConfig())
    errors = {}
    for n in (1000, 10_000, 100_000):
        dists = []
        for seed in range(10):
            samples = sample_quadratures(cm, n, seed=seed)
            rec = covariance_from_measurements(measure_set(samples))
            dists.append(np.linalg.norm(rec.matrix - cm.matrix))
        errors[n] = np.mean(dists)
    assert errors[1000] > errors[10_000] > errors[100_000]
