"""Covariance-matrix algebra: forms, spectra, reductions, Schur complements."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_steering import CovarianceMatrix, GhzConfig, NumericalError, build_state, build_states
from ghz_steering import symplectic
from ghz_steering.network import build_ghz
from ghz_steering.symplectic import (
    PHYSICALITY_TOL,
    Partition,
    is_physical,
    physicality_floor,
    purity,
    quadrature_indices,
    require_invertible,
    schur_complement,
    symplectic_eigenvalues,
    symplectic_form,
)

R = 0.339


def beam_splitter(n_modes, k, l, t):
    """Quadrature map of a beam splitter of power transmittance t on modes k and l."""
    c, d = math.sqrt(1 - t), math.sqrt(t)
    s = np.eye(2 * n_modes)
    for q in (0, 1):
        pair = [2 * k + q, 2 * l + q]
        s[np.ix_(pair, pair)] = [[c, d], [d, -c]]
    return s


def transform(cm, s):
    return CovarianceMatrix(s @ cm.matrix @ s.T)


def random_lossy_states(seed, count):
    """States with r1, r2, r3 in [0, 1.7] and t1, t2 in [0, 1], eta in [0.05, 0.95]."""
    rng = np.random.default_rng(seed)
    return [build_state(GhzConfig(r1=r1, r2=r2, r3=r3, t1=t1, t2=t2, eta=eta))
            for r1, r2, r3, t1, t2, eta in zip(*rng.uniform(0.0, 1.7, (3, count)),
                                               *rng.uniform(0.0, 1.0, (2, count)),
                                               rng.uniform(0.05, 0.95, count))]


def two_mode_squeezed(r: float) -> CovarianceMatrix:
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    return CovarianceMatrix(np.array([
        [ch, 0, sh, 0],
        [0, ch, 0, -sh],
        [sh, 0, ch, 0],
        [0, -sh, 0, ch],
    ]))


class TestCovarianceMatrix:
    def test_symmetrized_on_ingest(self):
        raw = np.array([[1.0, 0.3], [0.1, 1.0]])
        cm = CovarianceMatrix(raw)
        assert cm.matrix[0, 1] == cm.matrix[1, 0] == pytest.approx(0.2)

    def test_read_only(self):
        cm = CovarianceMatrix(np.eye(2))
        with pytest.raises(ValueError):
            cm.matrix[0, 0] = 5.0

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.ones((2, 4)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_n_modes(self):
        assert CovarianceMatrix(np.eye(6)).n_modes == 3

    def test_entries_near_the_float_limit_stay_finite(self):
        big = np.finfo(float).max
        raw = np.array([[big, 0.9 * big], [big, big]])
        cm = CovarianceMatrix(raw)
        assert np.all(np.isfinite(cm.matrix))
        assert cm.matrix[0, 0] == big
        assert cm.matrix[0, 1] == cm.matrix[1, 0] == pytest.approx(0.95 * big, rel=1e-15)


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
        assert symplectic_eigenvalues(CovarianceMatrix(np.eye(2))) == pytest.approx([1.0])

    def test_single_mode_squeezed_is_pure(self):
        nus = symplectic_eigenvalues(CovarianceMatrix(np.diag([math.exp(-2 * R), math.exp(2 * R)])))
        assert nus == pytest.approx([1.0], abs=1e-12)

    def test_thermal(self):
        nus = symplectic_eigenvalues(CovarianceMatrix(3.0 * np.eye(2)))
        assert nus == pytest.approx([3.0])

    def test_two_mode_squeezed_is_pure(self):
        # the Hermitian route keeps degenerate eigenvalues at 1 to machine accuracy
        nus = symplectic_eigenvalues(two_mode_squeezed(R))
        assert nus == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_two_mode_thermal_product(self):
        cm = CovarianceMatrix(np.diag([2.0, 2.0, 5.0, 5.0]))
        assert symplectic_eigenvalues(cm) == pytest.approx([2.0, 5.0])

    def test_ascending_order(self):
        cm = CovarianceMatrix(np.diag([7.0, 7.0, 2.0, 2.0, 4.0, 4.0]))
        assert symplectic_eigenvalues(cm) == pytest.approx([2.0, 4.0, 7.0])

    def test_ghz_is_pure(self):
        nus = symplectic_eigenvalues(build_ghz(GhzConfig()))
        assert nus == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)

    def test_not_a_state(self):
        with pytest.raises(ValueError, match="not a state"):
            symplectic_eigenvalues(CovarianceMatrix(np.diag([1.0, -1.0])))

    def test_not_a_state_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="not a state"):
            symplectic_eigenvalues(np.diag([1.0, 1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_input_is_a_numerical_error(self, bad):
        # numpy's LinAlgError (a ValueError) must not escape as a usage error
        m = np.full((6, 6), bad)
        with pytest.raises(NumericalError):
            symplectic_eigenvalues(m)
        with pytest.raises(NumericalError):
            require_invertible(m[None, :2, :2])
        assert not is_physical(m)

    @pytest.mark.parametrize("modes", [(0,), (2,), (0, 1), (1, 2), (0, 1, 2)])
    def test_matches_an_independent_solve(self, modes):
        # eigenvalues of Omega @ sigma come in pairs +-i nu; Omega is built here
        n = len(modes)
        omega = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
        for state in random_lossy_states(seed=n, count=40):
            idx = quadrature_indices(modes)
            reduced = state.matrix[np.ix_(idx, idx)]
            expected = np.sort(np.abs(np.linalg.eigvals(omega @ reduced).imag))[::2]
            assert symplectic_eigenvalues(reduced) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_higher_rank_stack_matches_rows_bit_for_bit(self):
        # (K, 3, 4, 4): the two-mode reductions of each state, as the steering kernel stacks them
        pairs = [quadrature_indices(pair) for pair in ((1, 2), (0, 2), (0, 1))]
        states = np.array([s.matrix for s in random_lossy_states(seed=5, count=7)])
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
        state = CovarianceMatrix(np.diag([
            math.exp(-2 * r), math.exp(2 * r), math.exp(2 * r), math.exp(-2 * r),
        ]))
        mixed = transform(state, beam_splitter(2, 0, 1, t))
        nus = symplectic_eigenvalues(mixed)
        evals = np.linalg.eigvals(symplectic_form(2) @ mixed.matrix)
        expected = np.sort(np.abs(evals.imag))[::2]
        assert nus == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=50)
    def test_determinant_is_product_of_squares(self, r):
        cm = build_ghz(GhzConfig(r1=r, r2=r, r3=r))
        nus = symplectic_eigenvalues(cm)
        assert np.linalg.det(cm.matrix) == pytest.approx(np.prod(nus**2), rel=1e-8)


class TestIsPhysical:
    def test_vacuum(self):
        assert is_physical(CovarianceMatrix(np.eye(2)))

    def test_below_shot_noise_in_both_quadratures(self):
        assert not is_physical(CovarianceMatrix(0.5 * np.eye(2)))

    def test_thermal(self):
        assert is_physical(CovarianceMatrix(2.0 * np.eye(2)))

    def test_lossy_ghz(self):
        state = build_state(GhzConfig(eta=0.3))
        assert is_physical(state, 1e-9)

    def test_non_positive_definite(self):
        assert not is_physical(CovarianceMatrix(np.diag([1.0, -1.0])))

    def test_pure_states_up_to_r_4_are_physical(self):
        # pins the verdict where the fixed floor holds; from r = 4.23 on,
        # round-off pushes min nu below 1 - PHYSICALITY_TOL
        for k in range(401):
            r = k / 100
            assert is_physical(build_state(GhzConfig(r1=r, r2=r, r3=r))), r

    def test_random_states_up_to_r_4_are_physical(self):
        rng = np.random.default_rng(2024)
        for r1, r2, r3, t1, t2, eta in zip(*rng.uniform(0.0, 4.0, (3, 200)),
                                           *rng.uniform(0.0, 1.0, (3, 200))):
            config = GhzConfig(r1=r1, r2=r2, r3=r3, t1=t1, t2=t2, eta=eta)
            assert is_physical(build_state(config)), config

    def test_pure_states_up_to_r_8_are_physical_within_round_off(self):
        # the round-off of min nu stays below eps * kappa / 10 on these states,
        # and the condition-aware floor admits eps * kappa
        for k in range(81):
            r = 4 + k / 20
            assert is_physical(build_state(GhzConfig(r1=r, r2=r, r3=r))), r

    def test_an_explicit_tolerance_overrides_the_condition_aware_floor(self):
        state = build_state(GhzConfig(r1=6, r2=6, r3=6))
        assert is_physical(state)
        assert not is_physical(state, tol=PHYSICALITY_TOL)

    def test_a_well_conditioned_state_below_the_fixed_floor_is_unphysical(self):
        # at r = 0.339 kappa is about 4, so the floor stays 1 - PHYSICALITY_TOL
        state = CovarianceMatrix((1 - 1e-6) * build_state(GhzConfig(r1=R, r2=R, r3=R)).matrix)
        assert symplectic_eigenvalues(state).min() == pytest.approx(1 - 1e-6, abs=1e-12)
        assert physicality_floor(state.matrix, 1 - 1e-6) == 1 - PHYSICALITY_TOL
        assert not is_physical(state)

    def test_rows_above_the_fixed_floor_need_no_condition_number(self, monkeypatch):
        states = build_states(GhzConfig(), np.linspace(0.0, 1.0, 21))
        nu_min = symplectic_eigenvalues(states).min(axis=-1)

        def no_eigvalsh(m):
            raise AssertionError("condition number computed")

        monkeypatch.setattr(symplectic, "_eigvalsh", no_eigvalsh)
        assert np.array_equal(physicality_floor(states, nu_min),
                              np.full(21, 1 - PHYSICALITY_TOL))

    def test_tolerance_is_respected(self):
        slightly_off = CovarianceMatrix((1 - 1e-6) * np.eye(2))
        assert not is_physical(slightly_off, tol=1e-9)
        assert is_physical(slightly_off, tol=1e-3)


class TestSchurComplement:
    def test_product_state_returns_steered_block_exactly(self):
        cm = CovarianceMatrix(np.diag([2.0, 2.0, 3.0, 3.0]))
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

    def test_condition_number_guard(self):
        cm = CovarianceMatrix(np.diag([1e14, 1e-2, 1.0, 1.0]))
        with pytest.raises(ValueError, match="steering party block not invertible"):
            schur_complement(cm, Partition(steering=(0,), steered=(1,)))

    @pytest.mark.parametrize("block", [np.diag([1e13, 2.0]), np.diag([-1e13, 2.0]), np.zeros((2, 2))])
    def test_condition_guard_is_a_numerical_error(self, block):
        cm = CovarianceMatrix(np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]))
        with pytest.raises(NumericalError, match="not invertible"):
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
        squeezed = CovarianceMatrix(np.diag([math.exp(1.6), math.exp(-1.6)]))
        assert purity(squeezed) == pytest.approx(1.0, abs=1e-12)

    def test_loss_mixes(self):
        assert purity(build_state(GhzConfig(eta=0.5))) < 1.0 - 1e-6

    def test_thermal_value(self):
        assert purity(CovarianceMatrix(2.0 * np.eye(2))) == pytest.approx(0.5)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError, match="not a state"):
            purity(CovarianceMatrix(np.diag([1.0, -1.0])))

    def test_rejects_a_negative_definite_matrix(self):
        # det(-I6) = +1, so the determinant alone would pass it
        with pytest.raises(NumericalError, match="not a state"):
            purity(CovarianceMatrix(-np.eye(6)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(NumericalError, match="not a state"):
            purity(np.full((6, 6), bad))

    def test_value_is_the_determinant_formula(self):
        state = build_state(GhzConfig(eta=0.4))
        assert purity(state) == float(1.0 / np.sqrt(np.linalg.det(state.matrix)))


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
