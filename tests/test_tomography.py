"""Measurement protocol: sampling, the 18 variances, reconstruction, trials."""

import functools
import math
import timeit
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_steering import steering, symplectic, tomography
from ghz_steering import (
    DIRECTIONS,
    CovarianceMatrix,
    GhzConfig,
    NumericalError,
    build_state,
    reconstruct_trials,
    steering_report,
    steering_stack,
)
from ghz_steering.cli import DEFAULT_SEED
from ghz_steering.network import correlation_variance
from ghz_steering.symplectic import symmetric_part, symplectic_eigenvalues
from ghz_steering.tomography import (
    MEASUREMENT_LABELS,
    REJECT_NU_FLOOR,
    TrialStatistics,
    _bartlett_covariances,
    _positive_definite,
    _sample_covariances,
    _sampling_root,
    covariance_from_measurements,
    measure_set,
    population_measurements,
    sample_quadratures,
)

R = 0.339


def sampled_covariance(cm, n_samples, seed):
    """The sample covariance of n_samples records that reconstruct_trials draws as trial 0."""
    return _sample_covariances(_sampling_root(cm, n_samples),
                               _bartlett_covariances(n_samples, 6, 1, seed))[0]


def test_measurement_labels_are_a_frozen_contract():
    assert MEASUREMENT_LABELS == (
        "xA", "pA", "xB", "pB", "xC", "pC",
        "xA-xB", "xA-xC", "xB-xC", "pA-pB", "pA-pC", "pB-pC",
        "xA+pB", "xA+pC", "xB+pC", "pA+xB", "pA+xC", "pB+xC",
    )


def var_of(variances, label):
    """The variance of one labelled combination from an (..., 18) array."""
    return variances[..., MEASUREMENT_LABELS.index(label)]


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


class TestSampleCovariance:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_rank_is_that_of_n_samples(self, n):
        # the sample covariance of n rows has rank n - 1, capped by the dimension
        got = sampled_covariance(build_state(GhzConfig(eta=0.7)), n, seed=21)
        assert np.linalg.matrix_rank(got) == min(n - 1, 6)

    @pytest.mark.parametrize("n", [10**15, 10**20])  # 10^20 is past the int64 range
    def test_costs_one_draw_at_any_sample_count(self, n):
        # the relative sampling error is ~5e-8 at 10^15 samples
        cm = build_state(GhzConfig(eta=0.7))
        got = sampled_covariance(cm, n, seed=21)
        assert np.max(np.abs(got - cm.matrix)) <= 1e-6

    @pytest.mark.parametrize("cm, n", [
        (build_state(GhzConfig()), 1),
        (build_state(GhzConfig()), 0),
        (CovarianceMatrix(np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])), 10),
    ])
    def test_raises_what_sample_quadratures_raises(self, cm, n):
        with pytest.raises(ValueError) as table_error:
            sample_quadratures(cm, n, seed=0)
        with pytest.raises(ValueError) as cov_error:
            sampled_covariance(cm, n, seed=0)
        assert str(cov_error.value) == str(table_error.value)


def two_stream_bartlett_reference(n_samples, dim, n_trials, seed):
    """_bartlett_covariances as one factor per trial, filled where it is drawn."""
    dof = n_samples - 1
    k = min(dof, dim)
    rows, cols = np.triu_indices(k, 1, dim)
    chi_rng, normal_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    factors = np.zeros((n_trials, k, dim))
    for factor in factors:
        factor[range(k), range(k)] = [np.sqrt(chi_rng.chisquare(dof - i)) for i in range(k)]
        factor[rows, cols] = normal_rng.standard_normal(len(rows))
    return np.swapaxes(factors, -1, -2) @ factors / dof


class TestBartlettCovariances:
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 2000, 2**70])
    @pytest.mark.parametrize("trials", [1, 2, 50])
    def test_draws_the_two_stream_layout(self, n, trials):
        # the streams are the seeded contract: the seed's first child draws
        # the chi-squares, its second the normals right of the diagonal in
        # row order, both trial by trial
        seed = n % 1009 + trials
        got = _bartlett_covariances(n, 6, trials, seed)
        assert np.array_equal(got, two_stream_bartlett_reference(n, 6, trials, seed))

    def test_a_seed_sequence_is_not_advanced(self):
        # a SeedSequence draws what its entropy draws, however often it is used
        seed = np.random.SeedSequence(11)
        first = _bartlett_covariances(2000, 6, 2, seed)
        assert np.array_equal(_bartlett_covariances(2000, 6, 2, seed), first)
        assert np.array_equal(_bartlett_covariances(2000, 6, 2, 11), first)
        cm = build_state(GhzConfig())
        assert np.array_equal(sampled_covariance(cm, 2000, seed), sampled_covariance(cm, 2000, 11))


class TestMeasureSet:
    def test_unbiased_divisor(self):
        # columns 0 and 2 hold [0, 1, 2]: var = 1 with ddof=1, and their
        # difference is constant so the minus combo must vanish
        samples = np.zeros((3, 6))
        samples[:, 0] = [0.0, 1.0, 2.0]
        samples[:, 2] = [0.0, 1.0, 2.0]
        var = measure_set(samples)
        assert var.shape == (18,)
        assert var_of(var, "xA") == pytest.approx(1.0)
        assert var_of(var, "xA-xB") == pytest.approx(0.0)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            measure_set(np.zeros((10, 4)))

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            measure_set(np.zeros((1, 6)))

    def test_is_population_measurements_of_the_sample_covariance(self):
        samples = sample_quadratures(build_state(GhzConfig(eta=0.7)), 500, seed=4)
        want = population_measurements(np.cov(samples, rowvar=False))
        assert np.array_equal(measure_set(samples), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_table(self, bad):
        samples = np.ones((5, 6))
        samples[2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            measure_set(samples)


class TestPopulationMeasurements:
    def test_matches_correlation_variance(self):
        cm = build_state(GhzConfig(eta=0.6))
        var = population_measurements(cm)
        assert var_of(var, "xA-xB") == correlation_variance(cm, "xA-xB")

    def test_lossless_pair_value(self):
        var = population_measurements(build_state(GhzConfig()))
        assert var_of(var, "xA-xB") == pytest.approx(2 * math.exp(-2 * R), abs=1e-10)

    @pytest.mark.parametrize("cov", [CovarianceMatrix(np.eye(4)), np.eye(4), np.ones((6, 4)),
                                     np.ones((3, 8, 8)), np.ones((6, 6, 4))])
    def test_three_modes_required(self, cov):
        with pytest.raises(ValueError, match="expected a three-mode state"):
            population_measurements(cov)

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match="expected a three-mode state"):
            population_measurements(np.ones(36))

    def test_stack_rows_equal_one_matrix_calls(self):
        states = np.array([build_state(GhzConfig(eta=eta)).matrix for eta in (0.2, 0.5, 1.0)])
        stack = np.stack([states, 2.0 * states])  # (2, 3, 6, 6)
        got = population_measurements(stack)
        assert got.shape == (2, 3, 18)
        for index in np.ndindex(2, 3):
            assert np.array_equal(got[index], population_measurements(stack[index]))
        assert np.array_equal(got[0, 1], population_measurements(CovarianceMatrix(states[1])))

    def test_arrays_are_symmetrized_on_ingest(self):
        state = build_state(GhzConfig(eta=0.6)).matrix
        skewed = state + np.triu(np.full((6, 6), 0.25), 1) - np.tril(np.full((6, 6), 0.25), -1)
        got = population_measurements(skewed)
        assert np.array_equal(got, population_measurements(symmetric_part(skewed)))
        assert np.allclose(got, population_measurements(state), rtol=0, atol=1e-15)

    def test_rejects_non_finite_entries(self):
        state = np.array(build_state(GhzConfig()).matrix)
        state[1, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            population_measurements(state)


class TestCovarianceFromMeasurements:
    def test_vacuum(self):
        out = covariance_from_measurements(population_measurements(CovarianceMatrix(np.eye(6))))
        assert type(out) is np.ndarray
        assert np.allclose(out, np.eye(6), atol=1e-12)

    def test_maps_the_last_axis(self):
        var = population_measurements(build_state(GhzConfig(eta=0.4)))
        stack = np.stack([[var, 2.0 * var, var + 1.0]] * 2)  # (2, 3, 18)
        out = covariance_from_measurements(stack)
        assert out.shape == (2, 3, 6, 6)
        for index in np.ndindex(2, 3):
            assert np.array_equal(out[index], covariance_from_measurements(stack[index]))

    @pytest.mark.parametrize("shape", [(17,), (19,), (18, 2), ()])
    def test_rejects_a_last_axis_other_than_18(self, shape):
        with pytest.raises(ValueError, match="18 variances"):
            covariance_from_measurements(np.ones(shape))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_a_bad_variance(self, bad):
        var = np.array(population_measurements(build_state(GhzConfig())))
        var[MEASUREMENT_LABELS.index("xA")] = bad
        with pytest.raises(ValueError, match="variances must be finite and non-negative"):
            covariance_from_measurements(var)
        with pytest.raises(ValueError, match="variances must be finite and non-negative"):
            covariance_from_measurements(np.stack([var] * 3))

    @given(
        st.floats(min_value=0.0, max_value=1.2),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_population_round_trip_is_exact(self, r, eta):
        cm = build_state(GhzConfig(r1=r, r2=r, r3=r, eta=eta))
        out = covariance_from_measurements(population_measurements(cm))
        assert np.max(np.abs(out - cm.matrix)) <= 1e-12

    def test_plus_and_minus_identities_agree(self):
        # Cov(xA, xB) extracted from Var(xA - xB) must equal the value
        # extracted from Var(xA + xB), which is not part of the protocol
        cm = build_state(GhzConfig(eta=0.7))
        var = population_measurements(cm)
        plus = correlation_variance(cm, "xA+xB")
        singles = var_of(var, "xA") + var_of(var, "xB")
        from_minus = -0.5 * (var_of(var, "xA-xB") - singles)
        from_plus = 0.5 * (plus - singles)
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
        assert out[0, 1] == 0.0
        mask = np.ones((6, 6), dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        assert np.max(np.abs((out - rotated.matrix)[mask])) <= 1e-12


def nu_min_or_zero(matrix):
    """Min symplectic eigenvalue of one matrix, 0 when it is not positive definite."""
    try:
        return float(symplectic_eigenvalues(matrix).min())
    except NumericalError:
        return 0.0


def trial_covariances(cm, n_samples, n_trials, seed):
    """The sample covariance of each trial, from the rows of one _bartlett_covariances draw."""
    root = _sampling_root(cm, n_samples)
    draws = _bartlett_covariances(n_samples, 6, n_trials, seed)
    sampled = [symmetric_part(root.T @ cov_z @ root) for cov_z in draws]
    assert np.array_equal(sampled[0], symmetric_part(sampled_covariance(cm, n_samples, seed)))
    return sampled


def per_trial_reference(cm, n_samples, n_trials, seed):
    """reconstruct_trials as a loop of one-trial library calls."""
    matrices, nu_mins, accepted, rows = [], [], [], []
    for index, sampled in enumerate(trial_covariances(cm, n_samples, n_trials, seed)):
        matrix = covariance_from_measurements(population_measurements(sampled))
        matrices.append(matrix)
        nu_mins.append(nu_min_or_zero(matrix))
        if nu_mins[-1] >= REJECT_NU_FLOOR:
            accepted.append(index)
            rows.append([steering_report(CovarianceMatrix(matrix))[d] for d in DIRECTIONS])
    if len(rows) < 2:  # reconstruct_trials raises
        return matrices, nu_mins, accepted, rows, None, None
    values = np.array(rows)
    return matrices, nu_mins, accepted, rows, values.mean(axis=0), values.std(axis=0, ddof=1)


def assert_equals_reference(stats, reference):
    """reconstruct_trials output bit-identical to per_trial_reference."""
    matrices, nu_mins, accepted, rows, mean, std = reference
    assert all(np.array_equal(got, want) for got, want in zip(stats.matrices, matrices))
    assert len(stats.matrices) == len(matrices)
    assert np.array_equal(stats.min_symplectic_eigenvalues, nu_mins)
    assert stats.accepted == tuple(accepted)
    assert stats.g.tolist() == rows
    assert np.array_equal([stats.mean[d] for d in DIRECTIONS], mean)
    assert np.array_equal([stats.std[d] for d in DIRECTIONS], std)


def cholesky_succeeds(matrix):
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False


class TestPositiveDefinite:
    @pytest.mark.parametrize("n", [3, 7, 12, 20, 50])
    def test_agrees_with_cholesky_row_by_row(self, n):
        cm = build_state(GhzConfig(eta=0.7))
        stack = covariance_from_measurements(population_measurements(
            np.array(trial_covariances(cm, n, 1000, n))))
        want = [cholesky_succeeds(m) for m in stack]
        assert 0 < sum(want) or n == 3
        assert _positive_definite(stack).tolist() == want

    def test_edge_cases(self):
        bad = np.eye(6)
        bad[4, 5] = bad[5, 4] = 1.0  # singular: the last pivot is exactly 0
        overflowing = np.eye(6)
        overflowing[0, 0] = 1e-300  # a tiny first pivot sends the carried-on rest past the float range
        overflowing[0, 1:] = overflowing[1:, 0] = 1e10
        stack = np.array([np.eye(6), bad, -np.eye(6), overflowing, 2.0 * np.eye(6)])
        with np.errstate(all="raise"):
            assert _positive_definite(stack).tolist() == [True, False, False, False, True]
        assert [cholesky_succeeds(m) for m in stack] == [True, False, False, False, True]
        assert _positive_definite(np.zeros((0, 6, 6))).shape == (0,)


class TestReconstructTrials:
    @pytest.mark.parametrize("cm, n, trials, seed", [
        (build_state(GhzConfig()), 20_000, 3, 7),
        (build_state(GhzConfig()), 1000, 3, 13),  # rejects trial 2
        (build_state(GhzConfig(eta=0.8)), 2000, 50, 3),
        # seed found by searching 0..299: the first for which trial 0 of this
        # thermal state is not positive definite and trials 1 and 2 are accepted
        (CovarianceMatrix(3.0 * np.eye(6)), 10, 3, 229),
    ])
    def test_equals_the_per_trial_loop(self, cm, n, trials, seed):
        stats = reconstruct_trials(cm, n_samples=n, n_trials=trials, seed=seed)
        assert_equals_reference(stats, per_trial_reference(cm, n, trials, seed))

    @pytest.mark.parametrize("seed", [0, 1, 3, DEFAULT_SEED])
    def test_a_trial_does_not_depend_on_the_trial_count(self, seed):
        # each trial draws from its own child seed of (seed, trial index);
        # at eta = 0.7 these seeds keep at least 2 of the first 3 trials
        cm = build_state(GhzConfig(eta=0.7))
        many = reconstruct_trials(cm, 2000, 50, seed)
        few = reconstruct_trials(cm, 2000, 3, seed)
        assert np.array_equal(many.matrices[:3], few.matrices)
        assert many.min_symplectic_eigenvalues[:3] == few.min_symplectic_eigenvalues
        assert tuple(i for i in many.accepted if i < 3) == few.accepted

    def test_a_trial_that_is_not_positive_definite_reads_zero(self):
        stats = reconstruct_trials(CovarianceMatrix(3.0 * np.eye(6)), 10, 3, seed=229)
        assert stats.min_symplectic_eigenvalues[0] == 0.0
        assert stats.rejected == (0,) and len(stats.accepted) >= 2

    @pytest.mark.parametrize("cm, n, seed", [
        (CovarianceMatrix(3.0 * np.eye(6)), 10, 229),
        # noise and seed picked so that 49 of 50 trials are positive definite and 3 pass
        (CovarianceMatrix(build_state(GhzConfig(eta=0.7)).matrix + 0.2 * np.eye(6)), 20, 0),
    ])
    def test_a_stack_with_a_failing_matrix_takes_two_factorizations(self, monkeypatch, cm, n, seed):
        # the spectrum of the whole stack fails; the definiteness test picks the rows
        # for one more, and no row is retried alone.  G is one factorization of the
        # accepted rows in the three orderings: no rejected row reaches it
        def spy(module):
            shapes, cholesky = [], module._cholesky
            monkeypatch.setattr(module, "_cholesky", lambda m: shapes.append(m.shape) or cholesky(m))
            return shapes

        spectra, orderings = spy(symplectic), spy(steering)
        stats = reconstruct_trials(cm, n, 50, seed)
        definite = sum(cholesky_succeeds(m) for m in stats.matrices)
        assert spectra == [(50, 6, 6), (definite, 6, 6)] and 0 < definite < 50
        assert orderings == [(len(stats.accepted), 3, 6, 6)] and len(stats.accepted) < definite
        assert np.array_equal(stats.min_symplectic_eigenvalues,
                              [nu_min_or_zero(m) for m in stats.matrices])

    @pytest.mark.parametrize("cm, n, trials, seed", [
        (build_state(GhzConfig(eta=0.7)), 2000, 50, 1),
        (build_state(GhzConfig(r1=1.7, r2=1.7, r3=1.7, eta=0.5)), 100_000, 20, 2),
        (CovarianceMatrix(3.0 * np.eye(6)), 10, 50, 229),  # some trials not positive definite
    ])
    def test_spectra_and_g_are_those_of_the_library_calls(self, cm, n, trials, seed):
        # one factorization serves both, bit for bit as symplectic_eigenvalues and steering_stack
        stats = reconstruct_trials(cm, n, trials, seed)
        definite = np.array([cholesky_succeeds(m) for m in stats.matrices])
        nu_mins = np.zeros(trials)
        nu_mins[definite] = symplectic_eigenvalues(stats.matrices[definite]).min(axis=-1)
        assert np.array_equal(stats.min_symplectic_eigenvalues, nu_mins)
        assert np.array_equal(stats.g, steering_stack(stats.matrices[list(stats.accepted)]))

    @pytest.mark.parametrize("n, past_the_spread", [(8, True), (20, False)])
    def test_small_sample_stacks_raise_no_runtime_warning(self, n, past_the_spread):
        # wild but positive-definite trials: at n = 8 a spectrum spreads past the real
        # route's bound, and both routes run; none passes the floor
        cm = build_state(GhzConfig())
        matrices = covariance_from_measurements(population_measurements(
            np.array(trial_covariances(cm, n, 200, 3))))
        nus = symplectic_eigenvalues(matrices[_positive_definite(matrices)])
        spread = nus[:, -1] / nus[:, 0] > symplectic._REAL_ROUTE_SPREAD
        assert spread.any() == past_the_spread and not spread.all()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="only 0 of 200 trials"):
                reconstruct_trials(cm, n, 200, seed=3)

    def test_deterministic(self):
        cm = build_state(GhzConfig())
        one = reconstruct_trials(cm, n_samples=20_000, n_trials=3, seed=7)
        two = reconstruct_trials(cm, n_samples=20_000, n_trials=3, seed=7)
        assert one.mean == two.mean and one.std == two.std
        for m1, m2 in zip(one.matrices, two.matrices):
            assert np.array_equal(m1, m2)

    def test_no_repair_of_reconstructed_matrices(self):
        # trial matrices must be exactly what the pipeline produced from the
        # trial's rows of the two streams; no projection back to physicality
        cm = build_state(GhzConfig())
        stats = reconstruct_trials(cm, n_samples=20_000, n_trials=3, seed=7)
        for got, sampled in zip(stats.matrices, trial_covariances(cm, 20_000, 3, 7)):
            direct = covariance_from_measurements(population_measurements(sampled))
            assert np.array_equal(got, direct)

    def test_memory_does_not_grow_with_samples(self):
        # a 1M-sample table alone is 48 MB; the exact draws hold no samples
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
        assert stats.matrices.shape == (4, 6, 6)
        assert len(stats.min_symplectic_eigenvalues) == 4
        assert stats.g.shape == (len(stats.accepted), len(DIRECTIONS))
        assert set(stats.accepted) | set(stats.rejected) == {0, 1, 2, 3}

    def test_trial_matrices_are_read_only(self):
        stats = reconstruct_trials(build_state(GhzConfig()), n_samples=20_000, n_trials=3, seed=7)
        with pytest.raises(ValueError, match="read-only"):
            stats.matrices[0, 0, 0] = 0.0

    def test_compares_by_identity(self):
        one = reconstruct_trials(build_state(GhzConfig()), n_samples=20_000, n_trials=3, seed=7)
        two = reconstruct_trials(build_state(GhzConfig()), n_samples=20_000, n_trials=3, seed=7)
        assert (one == two) is False
        assert (one == one) is True

    def test_rejected_is_the_complement_in_linear_time(self):
        # at the CLI's trial cap, a scan of accepted per trial takes about 0.8 s (2-vCPU x86-64)
        n = 10_000
        accepted = tuple(k for k in range(n) if k % 7)
        stats = TrialStatistics(n_samples=2000, n_trials=n, seed=0, matrices=np.zeros((n, 6, 6)),
                                min_symplectic_eigenvalues=(1.0,) * n, accepted=accepted,
                                g=np.zeros((len(accepted), 12)), mean={}, std={})
        assert stats.rejected == tuple(range(0, n, 7))
        assert min(timeit.repeat(lambda: stats.rejected, number=1, repeat=3)) < 0.1

    def test_small_sample_trials_can_be_rejected(self):
        # seed found by searching 0..99: the first that accepts trials 0 and 1
        # and rejects trial 2
        stats = reconstruct_trials(build_state(GhzConfig()), n_samples=1000, n_trials=3, seed=13)
        assert stats.accepted == (0, 1)
        assert stats.rejected == (2,)
        assert stats.min_symplectic_eigenvalues[2] < REJECT_NU_FLOOR

    def test_raises_when_too_few_trials_survive(self):
        # seed found by searching 0..99: the first that accepts fewer than 2 trials
        cm = build_state(GhzConfig())
        _, nu_mins, accepted, *_ = per_trial_reference(cm, 1000, 3, 0)
        assert len(accepted) < 2
        with pytest.raises(RuntimeError, match="nu_min") as exc:
            reconstruct_trials(cm, n_samples=1000, n_trials=3, seed=0)
        assert str(exc.value) == expected_too_few_message(nu_mins, accepted)

    def test_the_too_few_message_counts_singular_and_low_trials(self):
        # 7 samples: most reconstructions are not positive definite, none passes
        cm = build_state(GhzConfig(eta=0.7))
        _, nu_mins, accepted, *_ = per_trial_reference(cm, 7, 20, 1)
        assert accepted == [] and 0 < nu_mins.count(0.0) < 20
        with pytest.raises(RuntimeError) as exc:
            reconstruct_trials(cm, n_samples=7, n_trials=20, seed=1)
        assert str(exc.value) == expected_too_few_message(nu_mins, accepted)

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            reconstruct_trials(build_state(GhzConfig()), n_samples=1000, n_trials=1, seed=0)

    def test_a_sample_count_past_the_float_range_is_a_value_error(self):
        # n - 1 is the Wishart degrees of freedom, a float: 10^308 still fits, 10^400 does not
        cm = build_state(GhzConfig())
        with pytest.raises(ValueError, match="exceeds the largest float"):
            reconstruct_trials(cm, n_samples=10**400, n_trials=3, seed=0)
        assert len(reconstruct_trials(cm, n_samples=10**308, n_trials=3, seed=0).accepted) == 3

    @pytest.mark.parametrize("matrix", [
        1.5e308 * np.eye(6),  # root^T C root overflows
        np.full((6, 6), 1e308) + 1e307 * np.eye(6),  # an eigenvalue past the largest float
    ])
    def test_entries_near_the_largest_float_raise_without_an_overflow(self, matrix):
        cm = CovarianceMatrix(matrix)
        with pytest.raises(NumericalError, match="sample covariance out of range"):
            reconstruct_trials(cm, n_samples=10, n_trials=7, seed=0)
        with pytest.raises(NumericalError, match="sample covariance out of range"):
            sampled_covariance(cm, 10, 0)

    def test_statistics_cover_accepted_trials(self):
        cm = build_state(GhzConfig())
        stats = reconstruct_trials(cm, n_samples=20_000, n_trials=3, seed=2)
        values = stats.g[:, DIRECTIONS.index("BC->A")]
        assert stats.mean["BC->A"] == pytest.approx(np.mean(values))
        assert stats.std["BC->A"] == pytest.approx(np.std(values, ddof=1))
        assert all(v >= 0 for v in stats.std.values())


def expected_too_few_message(nu_mins, accepted):
    rejected = [nu for i, nu in enumerate(nu_mins) if i not in accepted]
    singular = sum(nu == 0.0 for nu in rejected)
    return (f"only {len(accepted)} of {len(nu_mins)} trials reconstructed a physical "
            f"matrix (floor {REJECT_NU_FLOOR}); {singular} not positive definite (nu_min=0), "
            f"{len(rejected) - singular} below the floor, "
            f"largest rejected nu_min={max(rejected):.4f}")


def ks_pvalue(a, b):
    """Asymptotic p-value of the two-sample Kolmogorov-Smirnov test of a against b.

    D is the largest gap between the two empirical distribution functions,
    taken at every pooled value so that ties count once.  The p-value is the
    Kolmogorov tail Q(lam) = 2 sum_j (-1)^(j-1) exp(-2 j^2 lam^2) at
    lam = (sqrt(m) + 0.12 + 0.11 / sqrt(m)) D, m = n_a n_b / (n_a + n_b)
    (Stephens' correction).  With ties the test is conservative.
    """
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    d = np.max(np.abs(np.searchsorted(a, pooled, side="right") / len(a)
                      - np.searchsorted(b, pooled, side="right") / len(b)))
    m = len(a) * len(b) / (len(a) + len(b))
    lam = (math.sqrt(m) + 0.12 + 0.11 / math.sqrt(m)) * d
    if lam < 0.3:  # Q(0.3) > 1 - 1e-5, and the series converges slowly below it
        return 1.0
    j = np.arange(1, 101)
    return float(np.clip(2 * np.sum((-1.0) ** (j - 1) * np.exp(-2 * j**2 * lam**2)), 0.0, 1.0))


# The cells of the distribution test: n -> state.  At n = 2000 the paper's
# state passes the floor in about half of the trials.  At n = 7 it passes
# almost none, so that cell adds 4 I of thermal noise: about 1 trial in 6
# passes, with G mostly 0 and a tail of spurious steering.  At n = 3 no
# reconstruction is positive definite, so nu_min is 0 and no G is drawn: the
# reconstruction is S - D, D the zeroed within-mode x-p entries, S has rank
# 2, and D is positive semidefinite on at least 3 dimensions, which meet the
# 4-dimensional null space of S in some v with v^T (S - D) v <= 0.
DISTRIBUTION_CELLS = {
    3: build_state(GhzConfig()),
    7: CovarianceMatrix(build_state(GhzConfig(eta=0.7)).matrix + 4.0 * np.eye(6)),
    2000: build_state(GhzConfig()),
}
DISTRIBUTION_TRIALS = 2000
# Measured slots of S: two from minus combinations of x and p, one from a
# plus combination, and one single variance.
S_ENTRIES = {"Var(xA)": (0, 0), "Cov(xA,xB)": (0, 2), "Cov(pB,pC)": (3, 5), "Cov(xA,pC)": (0, 5)}
# nu_min and the S entries in every cell, and the 12 G columns where trials pass.
KS_CASES = [
    (n, quantity)
    for n in DISTRIBUTION_CELLS
    for quantity in ("nu_min", *S_ENTRIES, *(DIRECTIONS if n > 3 else ()))
]
# A family-wise false-alarm rate of 1%, Bonferroni-corrected over every comparison.
KS_LEVEL = 0.01 / len(KS_CASES)


@functools.cache
def pipeline_draws(n, pipeline):
    """(reconstructed matrices, nu_min, G of the accepted trials) for one cell.

    "exact" reconstructs from one two-stream draw of all trials, the draw
    reconstruct_trials makes (see test_equals_the_per_trial_loop), and
    "table" from measure_set of a sample_quadratures table per trial.  The
    two use independent fixed seeds.
    """
    cm = DISTRIBUTION_CELLS[n]
    seed = np.random.SeedSequence([n, pipeline == "table"])
    if pipeline == "table":
        children = seed.spawn(DISTRIBUTION_TRIALS)
        measured = np.array([measure_set(sample_quadratures(cm, n, child)) for child in children])
    else:
        cov_z = _bartlett_covariances(n, 6, DISTRIBUTION_TRIALS, seed)
        measured = population_measurements(_sample_covariances(_sampling_root(cm, n), cov_z))
    matrices = covariance_from_measurements(measured)
    nu_min = np.array([nu_min_or_zero(matrix) for matrix in matrices])
    accepted = nu_min >= REJECT_NU_FLOOR
    g = steering_stack(matrices[accepted]) if accepted.any() else np.zeros((0, len(DIRECTIONS)))
    return matrices, nu_min, g


class TestExactDistribution:
    """Exact draws against the sample-table pipeline, by two-sample KS tests.

    The seeds are fixed and were not chosen; the significance level comes
    from the number of comparisons alone.
    """

    @pytest.mark.parametrize("n, quantity", KS_CASES)
    def test_same_distribution_as_the_table_pipeline(self, n, quantity):
        samples = []
        for matrices, nu_min, g in (pipeline_draws(n, "exact"), pipeline_draws(n, "table")):
            if quantity == "nu_min":
                samples.append(nu_min)
            elif quantity in S_ENTRIES:
                i, j = S_ENTRIES[quantity]
                samples.append(matrices[:, i, j])
            else:
                assert len(g) >= 100
                samples.append(g[:, DIRECTIONS.index(quantity)])
        assert ks_pvalue(*samples) > KS_LEVEL

    def test_three_samples_never_reconstruct_a_positive_definite_matrix(self):
        for pipeline in ("exact", "table"):
            _, nu_min, g = pipeline_draws(3, pipeline)
            assert not nu_min.any() and len(g) == 0


def test_reconstruction_error_shrinks_with_sample_size():
    cm = build_state(GhzConfig())
    errors = {}
    for n in (1000, 10_000, 100_000):
        dists = []
        for seed in range(10):
            samples = sample_quadratures(cm, n, seed=seed)
            rec = covariance_from_measurements(measure_set(samples))
            dists.append(np.linalg.norm(rec - cm.matrix))
        errors[n] = np.mean(dists)
    assert errors[1000] > errors[10_000] > errors[100_000]
