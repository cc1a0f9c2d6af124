"""Covariance-matrix algebra: forms, spectra, reductions, Schur complements."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_steering import (GhzConfig, NumericalError, build_state, build_states, monogamy_residuals,
                          reconstruct_trials, steering_report)
from ghz_steering import symplectic
from ghz_steering.network import build_ghz, correlation_variance, lossy_stack, network_mode_matrix
from ghz_steering.tomography import sample_quadratures
from ghz_steering.symplectic import (
    PHYSICALITY_TOL,
    Partition,
    below_floor,
    is_physical,
    physicality_floor,
    purity,
    quadrature_indices,
    schur_complement,
    symmetric_part,
    symplectic_eigenvalues,
    symplectic_form,
)

R = 0.339
EPS = np.finfo(float).eps


def beam_splitter(n_modes, k, l, t):
    """Quadrature map of a beam splitter of power transmittance t on modes k and l."""
    c, d = math.sqrt(1 - t), math.sqrt(t)
    s = np.eye(2 * n_modes)
    for q in (0, 1):
        pair = [2 * k + q, 2 * l + q]
        s[np.ix_(pair, pair)] = [[c, d], [d, -c]]
    return s


def transform(cm, s):
    return symmetric_part(s @ cm @ s.T)


def squeezers(r1, r2):
    """Quadrature map of single-mode squeezers r1 on mode 0 and r2 on mode 1."""
    return np.diag([math.exp(-r1), math.exp(r1), math.exp(-r2), math.exp(r2)])


def phase_shifts(theta1, theta2):
    """Quadrature map of phase rotations by theta1 on mode 0 and theta2 on mode 1."""
    s = np.zeros((4, 4))
    for k, theta in enumerate((theta1, theta2)):
        c, d = math.cos(theta), math.sin(theta)
        s[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, d], [-d, c]]
    return s


def random_lossy_states(seed, count):
    """States with r1, r2, r3 in [0, 1.7] and t1, t2 in [0, 1], eta in [0.05, 0.95]."""
    rng = np.random.default_rng(seed)
    return [build_state(GhzConfig(r1=r1, r2=r2, r3=r3, t1=t1, t2=t2, eta=eta))
            for r1, r2, r3, t1, t2, eta in zip(*rng.uniform(0.0, 1.7, (3, count)),
                                               *rng.uniform(0.0, 1.0, (2, count)),
                                               rng.uniform(0.05, 0.95, count))]


def exact_state(r1, r2, r3, t1=1 / 3, t2=0.5, eta=1.0) -> np.ndarray:
    """build_state's matrix by the same arithmetic, for any r: no squeezing domain applies."""
    sigma_in = np.diag([math.exp(-2 * r1), math.exp(2 * r1), math.exp(2 * r2),
                        math.exp(-2 * r2), math.exp(-2 * r3), math.exp(2 * r3)])
    net = np.zeros((6, 6))
    net[0::2, 0::2] = net[1::2, 1::2] = network_mode_matrix(t1, t2)
    return lossy_stack(net @ sigma_in @ net.T, [eta])[0]


def hermitian_spectrum(states):
    """Three-mode spectra by the Hermitian route: the upper half of the eigenvalues of
    i L^T Omega L, L the Cholesky factor, which come in pairs +-nu."""
    low = np.linalg.cholesky(states)
    return np.linalg.eigvalsh(1j * (np.swapaxes(low, -1, -2) @ symplectic_form(3) @ low))[..., 3:]


def rotated_states(nus, seed, count, squeeze=1.5):
    """count three-mode states of symplectic spectrum nus: the thermal state diag(nu, nu)
    per mode through single-mode squeezers r in [0, squeeze] and a Haar-random passive
    network (a 3x3 unitary)."""
    rng = np.random.default_rng(seed)
    interleave = [0, 3, 1, 4, 2, 5]  # (xA, xB, xC, pA, pB, pC) -> (xA, pA, xB, pB, xC, pC)
    thermal = np.diag(np.repeat(nus, 2))
    states = []
    for _ in range(count):
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        passive = np.block([[u.real, -u.imag], [u.imag, u.real]])[np.ix_(interleave, interleave)]
        r = rng.uniform(0.0, squeeze, 3)
        s = passive @ np.diag(np.exp(np.concatenate([-r, r])))[np.ix_(interleave, interleave)]
        states.append(symmetric_part(s @ thermal @ s.T))
    return np.array(states)


def two_mode_squeezed(r: float) -> np.ndarray:
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    return np.array([
        [ch, 0, sh, 0],
        [0, ch, 0, -sh],
        [sh, 0, ch, 0],
        [0, -sh, 0, ch],
    ])


# A built state is a read-only (6, 6) float array; covariance input is read by _as_array.
class TestStateArrays:
    def test_symmetrized_on_ingest(self):
        raw = np.array([[1.0, 0.3], [0.1, 1.0]])
        m = symplectic._as_array(raw)
        assert m[0, 1] == m[1, 0] == pytest.approx(0.2)

    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_the_lossless_state_is_symmetrized_once_built(self, r1, r2, r3, t1, t2):
        # net sigma_in net^T is not exactly symmetric in rounding; build_ghz symmetrizes it
        state = build_ghz(GhzConfig(r1=r1, r2=r2, r3=r3, t1=t1, t2=t2))
        assert state.tobytes() == np.ascontiguousarray(state.T).tobytes()

    @pytest.mark.parametrize("build", [build_state, build_ghz])
    def test_a_built_state_is_a_read_only_float_array(self, build):
        state = build(GhzConfig(eta=0.6))
        assert type(state) is np.ndarray
        assert state.shape == (6, 6) and state.dtype == np.float64
        with pytest.raises(ValueError):
            state[0, 0] = 5.0

    @pytest.mark.parametrize("single", [False, True])
    def test_rejects_odd_dimension(self, single):
        with pytest.raises(ValueError):
            symplectic._as_array(np.eye(3), single)

    @pytest.mark.parametrize("single", [False, True])
    def test_rejects_non_square(self, single):
        with pytest.raises(ValueError):
            symplectic._as_array(np.ones((2, 4)), single)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError, match="not a state"):
            symplectic._as_array(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_entries_near_the_float_limit_stay_finite(self):
        big = np.finfo(float).max
        raw = np.array([[big, 0.9 * big], [big, big]])
        m = symplectic._as_array(raw)
        assert np.all(np.isfinite(m))
        assert m[0, 0] == big
        assert m[0, 1] == m[1, 0] == pytest.approx(0.95 * big, rel=1e-15)


class TestPartition:
    def test_valid(self):
        p = Partition(steering=(0,), steered=(1, 2))
        assert p.steering == (0,) and p.steered == (1, 2)

    @pytest.mark.parametrize("steering,steered", [
        ((), (1,)),
        ((0,), ()),
        ((0,), (0,)),
        ((0, 0), (1,)),
        ((-1,), (1,)),
    ])
    def test_invalid(self, steering, steered):
        with pytest.raises(ValueError):
            Partition(steering=steering, steered=steered)


class TestSymplecticForm:
    def test_block_structure(self):
        omega = symplectic_form(2)
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(omega[0:2, 0:2], block)
        assert np.array_equal(omega[2:4, 2:4], block)
        assert np.array_equal(omega[0:2, 2:4], np.zeros((2, 2)))

    def test_squares_to_minus_identity(self):
        omega = symplectic_form(3)
        assert np.array_equal(omega @ omega, -np.eye(6))

    def test_needs_a_mode(self):
        with pytest.raises(ValueError):
            symplectic_form(0)

    def test_is_built_once_and_read_only(self):
        assert symplectic_form(2) is symplectic_form(2)
        with pytest.raises(ValueError, match="read-only"):
            symplectic_form(2)[0, 1] = 2.0


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert symplectic_eigenvalues(np.eye(2)) == pytest.approx([1.0])

    def test_single_mode_squeezed_is_pure(self):
        nus = symplectic_eigenvalues(np.diag([math.exp(-2 * R), math.exp(2 * R)]))
        assert nus == pytest.approx([1.0], abs=1e-12)

    def test_thermal(self):
        nus = symplectic_eigenvalues(3.0 * np.eye(2))
        assert nus == pytest.approx([3.0])

    def test_two_mode_squeezed_is_pure(self):
        # the closed form keeps the degenerate pair at 1 to a few eps relative
        nus = symplectic_eigenvalues(two_mode_squeezed(R))
        assert nus == pytest.approx([1.0, 1.0], abs=1e-14)

    @pytest.mark.parametrize("r", [0.25, 0.3, 0.55, 1.05])
    def test_a_degenerate_pair_stays_ascending(self, r):
        # at these r, rounding puts det L / nu+ an ulp above nu+
        nus = symplectic_eigenvalues(two_mode_squeezed(r))
        assert nus[0] <= nus[1]
        assert nus == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_two_mode_thermal_product(self):
        cm = np.diag([2.0, 2.0, 5.0, 5.0])
        assert symplectic_eigenvalues(cm) == pytest.approx([2.0, 5.0])

    def test_ascending_order(self):
        cm = np.diag([7.0, 7.0, 2.0, 2.0, 4.0, 4.0])
        assert symplectic_eigenvalues(cm) == pytest.approx([2.0, 4.0, 7.0])

    def test_ghz_is_pure(self):
        nus = symplectic_eigenvalues(build_ghz(GhzConfig()))
        assert nus == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)

    def test_not_a_state(self):
        with pytest.raises(ValueError, match="not a state"):
            symplectic_eigenvalues(np.diag([1.0, -1.0]))

    def test_not_a_state_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="not a state"):
            symplectic_eigenvalues(np.diag([1.0, 1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_input_is_a_numerical_error(self, bad):
        # numpy's LinAlgError (a ValueError) must not escape as a usage error
        m = np.full((6, 6), bad)
        with pytest.raises(NumericalError):
            symplectic_eigenvalues(m)
        assert not is_physical(m)

    @pytest.mark.parametrize("modes", [(0,), (2,), (0, 1), (1, 2), (0, 1, 2)])
    def test_matches_an_independent_solve(self, modes):
        # eigenvalues of Omega @ sigma come in pairs +-i nu; Omega is built here
        n = len(modes)
        omega = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
        for state in random_lossy_states(seed=n, count=40):
            idx = quadrature_indices(modes)
            reduced = state[np.ix_(idx, idx)]
            expected = np.sort(np.abs(np.linalg.eigvals(omega @ reduced).imag))[::2]
            assert symplectic_eigenvalues(reduced) == pytest.approx(expected, rel=0, abs=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.7, 3.0])
    @pytest.mark.parametrize("nus", [(1.0, 1.0), (1.0, 1.0 + 1e-9), (1.5, 1.5), (1.0, 40.0)])
    def test_williamson_states(self, nus, r):
        # sigma = S diag(nu1, nu1, nu2, nu2) S^T, S = beam splitter, phase shifts,
        # squeezers, beam splitter; the phase shifts correlate x with p.
        # Rounding sigma moves each nu by about eps times the condition
        # number of its Cholesky factor, e^(2r) nu2 / nu1; the textbook
        # nu^2 = (Delta -+ sqrt(Delta^2 - 4 det)) / 2 loses half the digits
        # where nu1 ~ nu2 and misses 1 + 1e-9 by far more
        bound = 16 * np.finfo(float).eps * math.exp(2 * r) * nus[1] / nus[0]
        for t1, t2, ratio, thetas in [(0.3, 0.8, 0.4, (0.4, 1.3)), (0.5, 0.5, 1.0, (0.0, 0.0)),
                                      (0.9, 0.1, -0.7, (-0.9, 2.2))]:
            state = np.diag([nus[0], nus[0], nus[1], nus[1]])
            for s in (beam_splitter(2, 0, 1, t1), phase_shifts(*thetas), squeezers(r, ratio * r),
                      beam_splitter(2, 0, 1, t2)):
                state = transform(state, s)
            got = symplectic_eigenvalues(state)
            assert got[0] <= got[1]
            assert np.all(np.abs(got - nus) <= bound * np.array(nus)), (t1, t2, ratio)

    def test_three_modes_keep_the_real_route_bound_of_the_hermitian_route(self):
        # spectra (1, 1, nu) and (1, sqrt(nu), nu), nu from 1 to 1000, squeezed and rotated:
        # where nu_max <= R nu_min each nu of the real route lies within 8 eps (nu_max /
        # nu_min)^2 nu of the Hermitian route's, plus 8 eps ||sigma|| for the rounding of
        # M = L^T Omega L, which the two routes read differently; past R it is the
        # Hermitian route, bit for bit
        spread = symplectic._REAL_ROUTE_SPREAD
        states = np.concatenate([rotated_states([1.0, mid, nu], seed=k, count=20)
                                 for k, nu in enumerate(np.geomspace(1.0, 1000.0, 31))
                                 for mid in (1.0, math.sqrt(nu))])
        states = np.concatenate([states, random_lossy_states(seed=6, count=50)])
        got, reference = symplectic_eigenvalues(states), hermitian_spectrum(states)
        ratio = reference[:, -1] / reference[:, 0]
        real = ratio <= spread
        assert 0 < np.count_nonzero(real) < len(states)
        norm = np.linalg.eigvalsh(states[real])[:, -1:]
        bound = 8 * EPS * (ratio[real, None] ** 2 * reference[real] + norm)
        assert np.all(np.abs(got[real] - reference[real]) <= bound)
        assert np.array_equal(got[~real], reference[~real])

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
    def test_three_modes_out_of_the_real_range_take_the_hermitian_route(self, scale):
        # M^T M would underflow or overflow: no warning, and the Hermitian route bit for bit
        states = scale * np.array(random_lossy_states(seed=8, count=10))
        got = symplectic_eigenvalues(states)
        assert np.array_equal(got, hermitian_spectrum(states))
        assert np.allclose(got / scale, symplectic_eigenvalues(states / scale), rtol=1e-14, atol=0)

    def test_higher_rank_stack_matches_rows_bit_for_bit(self):
        # (K, 3, 4, 4): the two-mode reductions of each state, as the steering kernel stacks them
        pairs = [quadrature_indices(pair) for pair in ((1, 2), (0, 2), (0, 1))]
        states = np.array(random_lossy_states(seed=5, count=7))
        stack = np.stack([states[:, idx][:, :, idx] for idx in pairs], axis=1)
        nus = symplectic_eigenvalues(stack)
        assert nus.shape == (7, 3, 2)
        for k in range(7):
            for j in range(3):
                assert np.array_equal(nus[k, j], symplectic_eigenvalues(stack[k, j]))

    def test_stack_matches_single_matrices(self):
        states = build_states(GhzConfig(), [0.1, 0.5, 0.9])
        nus = symplectic_eigenvalues(states)
        assert nus.shape == (3, 3)
        for row, state in zip(nus, states):
            assert np.array_equal(row, symplectic_eigenvalues(state))

    @given(st.floats(min_value=0.0, max_value=1.5), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_two_mode_spectrum_matches_general_solver(self, r, t):
        # mix two squeezed modes on a beam splitter, then compare the
        # spectrum against a direct eigen-solve of Omega @ sigma
        state = np.diag([
            math.exp(-2 * r), math.exp(2 * r), math.exp(2 * r), math.exp(-2 * r),
        ])
        mixed = transform(state, beam_splitter(2, 0, 1, t))
        nus = symplectic_eigenvalues(mixed)
        evals = np.linalg.eigvals(symplectic_form(2) @ mixed)
        expected = np.sort(np.abs(evals.imag))[::2]
        assert nus == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=50)
    def test_determinant_is_product_of_squares(self, r):
        cm = build_ghz(GhzConfig(r1=r, r2=r, r3=r))
        nus = symplectic_eigenvalues(cm)
        assert np.linalg.det(cm) == pytest.approx(np.prod(nus**2), rel=1e-8)


class TestIsPhysical:
    def test_vacuum(self):
        assert is_physical(np.eye(2))

    def test_below_shot_noise_in_both_quadratures(self):
        assert not is_physical(0.5 * np.eye(2))

    def test_thermal(self):
        assert is_physical(2.0 * np.eye(2))

    def test_lossy_ghz(self):
        state = build_state(GhzConfig(eta=0.3))
        assert is_physical(state)

    def test_non_positive_definite(self):
        assert not is_physical(np.diag([1.0, -1.0]))

    def test_exact_state_is_the_built_state(self):
        config = GhzConfig(r1=0.2, r2=1.1, r3=3.0, t1=0.3, t2=0.8, eta=0.6)
        assert np.array_equal(exact_state(0.2, 1.1, 3.0, 0.3, 0.8, 0.6), build_state(config))

    def test_pure_states_up_to_r_4_are_physical(self):
        # pins the verdict where the fixed floor holds; from r = 4.23 on,
        # round-off pushes min nu below 1 - PHYSICALITY_TOL
        for k in range(401):
            r = k / 100
            assert is_physical(exact_state(r, r, r)), r

    def test_random_states_up_to_r_4_are_physical(self):
        rng = np.random.default_rng(2024)
        for params in zip(*rng.uniform(0.0, 4.0, (3, 200)), *rng.uniform(0.0, 1.0, (3, 200))):
            assert is_physical(exact_state(*params)), params

    def test_pure_states_up_to_r_8_are_physical_within_round_off(self):
        # the round-off of min nu stays below eps * kappa / 10 on these states,
        # and the condition-aware floor admits eps * kappa
        for k in range(81):
            r = 4 + k / 20
            assert is_physical(exact_state(r, r, r)), r

    def test_a_well_conditioned_state_below_the_fixed_floor_is_unphysical(self):
        # at r = 0.339 kappa is about 4, so the floor stays 1 - PHYSICALITY_TOL
        state = (1 - 1e-6) * build_state(GhzConfig(r1=R, r2=R, r3=R))
        assert symplectic_eigenvalues(state).min() == pytest.approx(1 - 1e-6, abs=1e-12)
        assert physicality_floor(state, 1 - 1e-6) == 1 - PHYSICALITY_TOL
        assert not is_physical(state)

    def test_rows_above_the_fixed_floor_need_no_condition_number(self, monkeypatch):
        states = build_states(GhzConfig(), np.linspace(0.0, 1.0, 21))
        nu_min = symplectic_eigenvalues(states).min(axis=-1)

        def no_eigvalsh(m):
            raise AssertionError("condition number computed")

        monkeypatch.setattr(symplectic, "_eigvalsh", no_eigvalsh)
        assert np.array_equal(physicality_floor(states, nu_min),
                              np.full(21, 1 - PHYSICALITY_TOL))


class TestRealRouteGuard:
    # two vacua and a thermal mode at nu, mixed by a random passive rotation: the
    # real route alone errs by about eps nu^2 in nu_min = 1
    @pytest.mark.parametrize("nu", [1e4, 1e5])
    def test_a_thermal_mode_among_vacua_is_physical(self, nu):
        states = rotated_states([1.0, 1.0, nu], seed=int(nu), count=200, squeeze=0.0)
        nu_min = symplectic_eigenvalues(states)[:, 0]
        assert np.all(nu_min >= physicality_floor(states, nu_min))
        assert np.abs(nu_min - 1.0).max() <= 1e-10

    def test_without_the_guard_such_states_read_unphysical(self, monkeypatch):
        # the rule itself: the certificate of below_floor passes these states without a spectrum
        monkeypatch.setattr(symplectic, "_REAL_ROUTE_SPREAD", np.inf)
        states = rotated_states([1.0, 1.0, 1e4], seed=10_000, count=200, squeeze=0.0)
        nu_min = symplectic_eigenvalues(states)[:, 0]
        assert not np.all(nu_min >= physicality_floor(states, nu_min))


class TestCertifyPhysical:
    F = 1 - PHYSICALITY_TOL

    @pytest.fixture
    def spectra(self, monkeypatch):
        """The stacks below_floor takes a spectrum and floor of, by their shapes."""
        shapes = []

        def spy(m, nu_min):
            shapes.append(np.shape(m))
            return physicality_floor(m, nu_min)

        monkeypatch.setattr(symplectic, "physicality_floor", spy)
        return shapes

    def test_passes_every_built_state_on_the_domain(self, spectra):
        # the 32 corners of r in {0, 3} and t1, t2 in {0, 1}, then 218 random configs, 10 eta each
        rng = np.random.default_rng(7)
        configs = [(3.0 * r1, 3.0 * r2, 3.0 * r3, float(t1), float(t2))
                   for r1, r2, r3, t1, t2 in np.ndindex(2, 2, 2, 2, 2)]
        configs += list(zip(*rng.uniform(0.0, 3.0, (3, 218)), *rng.uniform(0.0, 1.0, (2, 218))))
        states = np.concatenate([
            build_states(GhzConfig(r1=r1, r2=r2, r3=r3, t1=t1, t2=t2), np.linspace(0.0, 1.0, 10))
            for r1, r2, r3, t1, t2 in configs])
        assert len(states) == 2500
        assert np.array_equal(below_floor(states), np.zeros(2500, dtype=bool))
        assert spectra == []  # the certificate passed them all

    @pytest.mark.parametrize("delta", [1e-10, 1e-8, 1e-6])
    def test_a_pass_implies_the_floor_on_scaled_pure_states(self, spectra, delta):
        # c * sigma of a pure state has min nu = c = f (1 -+ delta)
        rng = np.random.default_rng(11)
        verdicts = {-1: [], 1: []}
        for params in zip(*rng.uniform(0.0, 3.0, (3, 100)), *rng.uniform(0.0, 1.0, (2, 100))):
            for sign, passed in verdicts.items():
                m = self.F * (1 + sign * delta) * exact_state(*params)
                nu_min = symplectic_eigenvalues(m).min()
                rule = bool(nu_min >= physicality_floor(m, nu_min))
                spectra.clear()
                assert below_floor(m[None]).tolist() == [not rule], (params, sign)
                passed.append(spectra == [])  # the certificate decided, with no spectrum
                if passed[-1]:
                    assert rule, (params, sign)
                else:
                    assert spectra == [(1, 6, 6)]
        if delta >= 1e-8:  # far enough from f that round-off cannot flip the verdict
            assert verdicts == {-1: [False] * 100, 1: [True] * 100}

    def test_fails_below_the_floor(self, spectra):
        assert below_floor(0.9 * build_state(GhzConfig())[None]).tolist() == [True]
        assert spectra == [(1, 6, 6)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_stack_is_not_a_state(self, bad):
        states = build_states(GhzConfig(), [0.5, 1.0])
        states[1, 2, 3] = states[1, 3, 2] = bad
        with pytest.raises(NumericalError, match="not a state"):
            below_floor(states)
        with pytest.raises(NumericalError, match="not a state"):
            below_floor(np.full((1, 6, 6), bad))

    @pytest.mark.parametrize("m", [np.diag([1.0, -1.0]), np.diag([2.0, 2.0, 1.0, 0.0]),
                                   np.ones((6, 6))])
    def test_a_matrix_that_is_not_positive_definite_is_not_a_state(self, m):
        with pytest.raises(NumericalError, match="not a state"):
            below_floor(m)
        with pytest.raises(NumericalError, match="not a state"):
            below_floor(np.stack([np.eye(len(m)), m]))


class TestSchurComplement:
    def test_product_state_returns_steered_block_exactly(self):
        cm = np.diag([2.0, 2.0, 3.0, 3.0])
        out = schur_complement(cm, Partition(steering=(0,), steered=(1,)))
        assert np.array_equal(out, 3.0 * np.eye(2))

    def test_ghz_one_to_one_closed_form(self):
        # conditioning one mode of the lossless state on another leaves
        # diag(b v / u, a u / v) with determinant exactly a b = 1
        a, b = math.exp(2 * R), math.exp(-2 * R)
        u, v = (a + 2 * b) / 3, (2 * a + b) / 3
        out = schur_complement(build_ghz(GhzConfig()), Partition(steering=(0,), steered=(1,)))
        assert np.allclose(out, np.diag([b * v / u, a * u / v]), atol=1e-12)
        assert np.linalg.det(out) == pytest.approx(1.0, abs=1e-12)

    def test_two_mode_squeezed_closed_form(self):
        out = schur_complement(two_mode_squeezed(R), Partition(steering=(0,), steered=(1,)))
        assert np.allclose(out, np.eye(2) / math.cosh(2 * R), atol=1e-12)

    @pytest.mark.parametrize("block", [np.diag([-1e13, 2.0]), np.zeros((2, 2)),
                                       np.diag([1.0, -1.0])])
    def test_steering_block_must_be_positive_definite(self, block):
        cm = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
        with pytest.raises(NumericalError, match="not a state"):
            schur_complement(cm, Partition(steering=(0,), steered=(1,)))

    def test_partition_out_of_range(self):
        with pytest.raises(ValueError, match="mode 3"):
            schur_complement(build_ghz(GhzConfig()), Partition(steering=(3,), steered=(0,)))

    def test_result_is_symmetric(self):
        state = build_state(GhzConfig(eta=0.6))
        out = schur_complement(state, Partition(steering=(1, 2), steered=(0,)))
        assert np.array_equal(out, out.T)


class TestPurity:
    def test_pure_states(self):
        assert purity(build_ghz(GhzConfig())) == pytest.approx(1.0, abs=1e-9)
        squeezed = np.diag([math.exp(1.6), math.exp(-1.6)])
        assert purity(squeezed) == pytest.approx(1.0, abs=1e-12)

    def test_loss_mixes(self):
        assert purity(build_state(GhzConfig(eta=0.5))) < 1.0 - 1e-6

    def test_thermal_value(self):
        assert purity(2.0 * np.eye(2)) == pytest.approx(0.5)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError, match="not a state"):
            purity(np.diag([1.0, -1.0]))

    def test_rejects_a_negative_definite_matrix(self):
        # det(-I6) = +1, so the determinant alone would pass it
        with pytest.raises(NumericalError, match="not a state"):
            purity(-np.eye(6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(NumericalError, match="not a state"):
            purity(np.full((6, 6), bad))

    def test_value_is_the_determinant_formula(self):
        state = build_state(GhzConfig(eta=0.4))
        assert purity(state) == float(1.0 / np.sqrt(np.linalg.det(state)))


# Readers of one state: each takes one (2N, 2N) array, read-only as built or writeable.
STATE_READERS = {
    "lossy_stack": lambda cm: lossy_stack(cm, [0.0, 0.3, 1.0]),
    "correlation_variance": lambda cm: correlation_variance(cm, "xA-xB"),
    "steering_report": steering_report,
    "monogamy_residuals": monogamy_residuals,
    "schur_complement": lambda cm: schur_complement(cm, Partition(steering=(1, 2), steered=(0,))),
    "sample_quadratures": lambda cm: sample_quadratures(cm, 50, seed=1),
    "reconstruct_trials": lambda cm: reconstruct_trials(cm, 20_000, 3, seed=7).matrices,
}


def exact(value):
    """The keys and bytes of a reader's result, so that the sign of a zero counts."""
    if isinstance(value, dict):
        return list(value), np.array(list(value.values())).tobytes()
    return np.asarray(value).tobytes()


class TestIngest:
    """Every public function that takes covariance input reads it through one check."""

    @pytest.mark.parametrize("shape", [(3, 3), (5, 5), (0, 0), (2, 4), (6,)])
    @pytest.mark.parametrize("func", [symplectic_eigenvalues, purity, below_floor])
    def test_a_shape_other_than_2n_by_2n_is_rejected(self, func, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            func(np.eye(*shape) if len(shape) == 2 else np.ones(shape))

    @pytest.mark.parametrize("m", [np.stack(4 * [build_state(GhzConfig())]),
                                   np.stack(3 * [build_state(GhzConfig(eta=0.5))]),
                                   np.ones((2, 4))])
    def test_is_physical_takes_one_matrix(self, m):
        with pytest.raises(ValueError, match=re.escape(f"got shape {m.shape}")):
            is_physical(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_is_physical_of_a_non_finite_matrix_is_false(self, bad):
        m = np.array(build_state(GhzConfig()))
        m[1, 4] = m[4, 1] = bad
        assert is_physical(m) is False

    def test_purity_takes_one_matrix(self):
        with pytest.raises(ValueError, match=re.escape("got shape (2, 6, 6)")):
            purity(build_states(GhzConfig(), [0.5, 1.0]))

    @pytest.mark.parametrize("reader", STATE_READERS.values(), ids=STATE_READERS.keys())
    def test_a_state_reader_takes_the_plain_array(self, reader):
        state = build_state(GhzConfig(eta=0.6))
        copy = np.array(state)
        assert not state.flags.writeable and copy.flags.writeable
        assert exact(reader(copy)) == exact(reader(state))

    @pytest.mark.parametrize("shape", [(5, 5), (2, 6, 6)])
    @pytest.mark.parametrize("reader", STATE_READERS.values(), ids=STATE_READERS.keys())
    def test_a_state_reader_rejects_any_other_shape(self, reader, shape):
        message = f"expected covariance input of shape (2N, 2N), N >= 1, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            reader(np.broadcast_to(np.eye(shape[-1]), shape))

    def test_below_floor_takes_what_its_siblings_take(self):
        state = build_state(GhzConfig(eta=0.5))
        assert below_floor(state.tolist()).tolist() is False
        assert below_floor(state).tolist() is False
        assert below_floor(0.9 * np.eye(2)).tolist() is True


@given(
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=60)
def test_network_ops_preserve_symplectic_spectrum(r, t, mode):
    """Beam splitters and sign flips are passive: the spectrum cannot move."""
    state = build_state(GhzConfig(eta=0.7, r1=r, r2=r, r3=r))
    before = symplectic_eigenvalues(state)
    other = (mode + 1) % 3
    flip = np.eye(6)
    flip[2 * mode, 2 * mode] = flip[2 * mode + 1, 2 * mode + 1] = -1.0
    moved = transform(transform(state, beam_splitter(3, mode, other, t)), flip)
    assert symplectic_eigenvalues(moved) == pytest.approx(before, abs=1e-9)
