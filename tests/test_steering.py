"""Steering quantifier, the twelve directions, monogamy, thresholds."""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_steering import (
    DIRECTIONS,
    RESIDUAL_KEYS,
    GhzConfig,
    NumericalError,
    build_state,
    build_states,
    find_threshold,
    monogamy_residuals,
    monogamy_stack,
    reconstruct_trials,
    steering_report,
    steering_stack,
)
from ghz_steering import steering, symplectic
from ghz_steering.network import MAX_SQUEEZING_R, MODE_NAMES
from ghz_steering.steering import STEERING_EPS, gaussian_steering, parse_direction
from ghz_steering.symplectic import (PHYSICALITY_TOL, Partition, is_physical, quadrature_indices,
                                     symmetric_part, symplectic_eigenvalues, symplectic_form)

SIGN_CHANGE = steering._sign_change  # the root picker itself, where a test spies on its calls
EPS = np.finfo(float).eps

# The directions whose mode ordering, and so every bit of G, the cyclic kernel
# shares with the six-ordering one.
SAME_ORDERING = ("A->B", "C->A", "B->C", "A->BC", "BC->A", "C->AB", "AB->C")

R = 0.339
A_CONST = math.exp(2 * R)
B_CONST = math.exp(-2 * R)
U_CONST = (A_CONST + 2 * B_CONST) / 3
V_CONST = (2 * A_CONST + B_CONST) / 3
G_ONE_TO_TWO = 0.5 * math.log(U_CONST * V_CONST)


def quadrature_rows(modes):
    return [2 * "ABC".index(m) + q for m in modes for q in (0, 1)]


def independent_g(m, label):
    """G recomputed from scratch: Schur complement by hand, eigenvalues of
    Omega @ sigma_bar, then the same clamped log sum."""
    steering, steered = label.split("->")
    comp, rows = quadrature_rows(steering), quadrature_rows(steered)
    a_blk = m[np.ix_(comp, comp)]
    b_blk = m[np.ix_(rows, rows)]
    c_blk = m[np.ix_(comp, rows)]
    bar = b_blk - c_blk.T @ np.linalg.solve(a_blk, c_blk)
    evals = np.linalg.eigvals(symplectic_form(len(rows) // 2) @ bar)
    nus = np.sort(np.abs(evals.imag))[::2]
    return max(0.0, -sum(math.log(nu) for nu in nus if nu < 1 - 1e-10))


def closed_form_g(m, label):
    """G = max(0, 1/2 ln(det sigma_X / det sigma_XY)) for X steering Y, no clamp.

    Kogias, Lee, Ragy and Adesso (PRL 114, 060403, 2015) give it for a
    steered party of one mode.  It also holds for A->BC, because the lossless
    A|BC split is pure: a local symplectic on BC leaves one mode plus vacuum
    and does not touch the loss on A.
    """
    steering, steered = label.split("->")

    def det(modes):
        rows = quadrature_rows(modes)
        return np.linalg.det(m[np.ix_(rows, rows)])

    return max(0.0, 0.5 * math.log(det(steering) / det(steering + steered)))


def random_states(seed, n, r_max=1.7):
    """n states with r1, r2, r3 in [0, r_max] and t1, t2, eta in [0, 1]."""
    rng = np.random.default_rng(seed)
    return np.array([
        build_state(GhzConfig(r1=r1, r2=r2, r3=r3, t1=t1, t2=t2, eta=eta))
        for r1, r2, r3, t1, t2, eta in zip(*rng.uniform(0.0, r_max, (3, n)),
                                           *rng.uniform(0.0, 1.0, (3, n)))])


def hermitian_spectrum(low):
    """The symplectic spectrum of L L^T by the Hermitian route, for any number of modes:
    the upper half of the eigenvalues of i L^T Omega L, which come in pairs +-nu."""
    n = low.shape[-1] // 2
    return np.linalg.eigvalsh(1j * (np.swapaxes(low, -1, -2) @ symplectic_form(n) @ low))[..., n:]


def random_gaussian_states(seed, n, r_max=3.0):
    """n generic three-mode states: squeezed vacua with r in [0, r_max] through a
    random passive network (a Haar-random 3x3 unitary), plus thermal noise in [0, 0.5]."""
    rng = np.random.default_rng(seed)
    interleave = [0, 3, 1, 4, 2, 5]  # (xA, xB, xC, pA, pB, pC) -> (xA, pA, xB, pB, xC, pC)
    states = []
    for r, noise in zip(rng.uniform(0.0, r_max, (n, 3)), rng.uniform(0.0, 0.5, n)):
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        passive = np.block([[u.real, -u.imag], [u.imag, u.real]])[np.ix_(interleave, interleave)]
        squeezed = np.diag(np.exp(np.concatenate([-2 * r, 2 * r])))[np.ix_(interleave, interleave)]
        states.append(symmetric_part(passive @ squeezed @ passive.T) + noise * np.eye(6))
    return np.array(states)


def six_ordering_g(states):
    """G of the 12 directions by the six-ordering kernel that preceded the cyclic one.

    Each state is factored in all six mode orderings, and each direction is read
    in the first ordering that lists its steering party and then its steered
    party: nu = L_ww L_w+1,w+1 for one steered mode, the spectrum of the
    trailing 4x4 factor for two.
    """
    orderings = list(itertools.permutations(range(3)))
    ordered = np.array([quadrature_indices(order) for order in orderings])
    low = np.linalg.cholesky(states[:, ordered[:, :, None], ordered[:, None, :]])
    nus = np.ones((len(states), 12, 2))
    for k, label in enumerate(DIRECTIONS):
        p = parse_direction(label)
        lead = p.steering + p.steered
        o = next(i for i, order in enumerate(orderings) if order[:len(lead)] == lead)
        w = 2 * len(p.steering)
        if len(p.steered) == 1:
            nus[:, k, 0] = low[:, o, w, w] * low[:, o, w + 1, w + 1]
        else:
            nus[:, k] = symplectic._factor_spectrum(low[:, o, 2:, 2:])
    nus = np.where(np.abs(nus - 1.0) <= steering.BOUNDARY_CLAMP, 1.0, nus)
    return np.maximum(0.0, np.where(nus < 1.0, -np.log(nus), 0.0).sum(axis=-1))


def roots_sign_change(q0, qh, q1):
    """The root picker that preceded the closed form: np.roots, a companion-matrix eigensolver."""
    t = np.roots([q1, 4.0 * qh - q0 - q1, q0])
    t = t.real[(t.imag == 0.0) & (t.real > 0.0)]
    return float(t[0] / (1.0 + t[0])) if t.size == 1 else None


@pytest.fixture
def no_eigensolver(monkeypatch):
    """Make every eigenvalue solver the package could reach raise."""
    def refuse(m):
        raise AssertionError("eigenvalue solver called")

    monkeypatch.setattr(symplectic, "_eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


def quartic_g(m, label):
    """G as the quartic closed form gave it: two-mode nu^2 from Delta^2 - 4 det,
    which loses about sqrt(machine epsilon) when the two nu are nearly equal."""
    steering, steered = label.split("->")
    comp, rows = quadrature_rows(steering), quadrature_rows(steered)
    bar = m[np.ix_(rows, rows)] - m[np.ix_(comp, rows)].T @ np.linalg.solve(
        m[np.ix_(comp, comp)], m[np.ix_(comp, rows)])
    bar = 0.5 * (bar + bar.T)
    if len(rows) == 2:
        nus = np.array([math.sqrt(np.linalg.det(bar))])
    else:
        det = np.linalg.det
        delta = det(bar[:2, :2]) + det(bar[2:, 2:]) + 2.0 * det(bar[:2, 2:])
        root = math.sqrt(max(delta * delta - 4.0 * det(bar), 0.0))
        nus = np.sqrt(np.clip([(delta - root) / 2.0, (delta + root) / 2.0], 0.0, None))
    nus = np.where(np.abs(nus - 1.0) <= 1e-10, 1.0, nus)
    return max(0.0, -sum(math.log(nu) for nu in nus if nu < 1.0))


def two_mode_squeezed(r):
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    return np.array([
        [ch, 0, sh, 0],
        [0, ch, 0, -sh],
        [sh, 0, ch, 0],
        [0, -sh, 0, ch],
    ])


class TestParseDirection:
    def test_one_to_one(self):
        assert parse_direction("A->B") == Partition(steering=(0,), steered=(1,))

    def test_two_to_one(self):
        assert parse_direction("BC->A") == Partition(steering=(1, 2), steered=(0,))

    def test_one_to_two(self):
        assert parse_direction("B->AC") == Partition(steering=(1,), steered=(0, 2))

    INVALID = ["", "A", "A->", "->B", "A->D", "AB->AB", "a->b", "A=>B"]

    @pytest.mark.parametrize("label", INVALID)
    def test_invalid(self, label):
        with pytest.raises(ValueError):
            parse_direction(label)

    def test_a_party_lists_its_modes_in_canonical_order(self):
        assert parse_direction("CB->A") == Partition(steering=(1, 2), steered=(0,))

    @pytest.mark.parametrize("label", [*DIRECTIONS, "CB->A", *INVALID])
    def test_reads_labels_as_find_threshold_does(self, label):
        try:
            find_threshold(GhzConfig(), label)
            unknown = None
        except ValueError as exc:
            unknown = None if str(exc).startswith("no threshold in range") else str(exc)
        if unknown is None:
            steering_party, steered_party = label.split("->")
            assert parse_direction(label) == Partition(
                steering=sorted(MODE_NAMES.index(m) for m in steering_party),
                steered=sorted(MODE_NAMES.index(m) for m in steered_party))
        else:
            assert unknown.startswith("unknown direction")
            with pytest.raises(ValueError) as exc:
                parse_direction(label)
            assert str(exc.value) == unknown


class TestDirectionHelpers:
    def test_direction_tuple_is_frozen(self):
        assert DIRECTIONS == (
            "A->B", "B->A", "A->C", "C->A", "B->C", "C->B",
            "A->BC", "BC->A", "B->AC", "AC->B", "C->AB", "AB->C",
        )


class TestGaussianSteering:
    def test_vacuum_two_modes(self):
        vac = np.eye(4)
        assert gaussian_steering(vac, parse_direction("A->B")) == 0.0

    def test_two_mode_squeezed_both_directions(self):
        for r in (0.1, R, 0.9):
            cm = two_mode_squeezed(r)
            expected = math.log(math.cosh(2 * r))
            for label in ("A->B", "B->A"):
                got = gaussian_steering(cm, parse_direction(label))
                assert got == pytest.approx(expected, abs=1e-12)

    def test_ghz_one_to_one_is_exactly_zero(self):
        # the conditional state sits on the nu = 1 boundary; the clamp must
        # return a hard zero, not a tiny residual
        cm = build_state(GhzConfig())
        for label in DIRECTIONS[:6]:
            assert gaussian_steering(cm, parse_direction(label)) == 0.0

    def test_ghz_collective_closed_form(self):
        # all six collective directions of the lossless state share one value
        cm = build_state(GhzConfig())
        for label in DIRECTIONS[6:]:
            got = gaussian_steering(cm, parse_direction(label))
            assert got == pytest.approx(G_ONE_TO_TWO, abs=1e-9)

    def test_matches_independent_eigen_solve(self):
        # recompute from scratch: Schur complement by hand, eigenvalues of
        # Omega @ sigma_bar, then the same clamped log sum
        cm = build_state(GhzConfig(eta=0.7))
        for label in ("BC->A", "A->BC"):
            expected = independent_g(cm, label)
            got = gaussian_steering(cm, parse_direction(label))
            assert got == pytest.approx(expected, abs=1e-10)

    def test_one_way_regime(self):
        cm = build_state(GhzConfig(eta=0.3))
        assert gaussian_steering(cm, parse_direction("A->BC")) == 0.0
        assert gaussian_steering(cm, parse_direction("BC->A")) > 1e-3

    def test_collective_reverse_value_at_half_transmission(self):
        cm = build_state(GhzConfig(eta=0.5))
        got = gaussian_steering(cm, parse_direction("BC->A"))
        assert got == pytest.approx(0.0875672, abs=1e-6)

    def test_fully_lost_mode_cannot_steer_or_be_steered(self):
        cm = build_state(GhzConfig(eta=0.0))
        for label in DIRECTIONS:
            part = parse_direction(label)
            if part.steering == (0,) or part.steered == (0,):
                assert gaussian_steering(cm, part) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.2), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_never_negative(self, r, eta):
        cm = build_state(GhzConfig(r1=r, r2=r, r3=r, eta=eta))
        for label in DIRECTIONS:
            assert gaussian_steering(cm, parse_direction(label)) >= 0.0


class TestSteeringStack:
    @given(st.floats(min_value=0.0, max_value=1.7), st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_independent_solve(self, r, t1, t2, eta):
        m = build_state(GhzConfig(r1=r, r2=r, r3=r, t1=t1, t2=t2, eta=eta))
        g = steering_stack(m[None])
        assert g.shape == (1, 12)
        for label, value in zip(DIRECTIONS, g[0]):
            expected = independent_g(m, label)
            assert abs(value - expected) <= 1e-12, label
            # An exact 0 of the quartic form stays exact, unless it was a false
            # negative: at r = 1e-5, t1 = 1/8, t2 = 1/2, eta = 0 the quartic
            # form gave 0 for B->AC where G = 1.09375e-10 (50-digit check).
            if quartic_g(m, label) == 0.0 and expected == 0.0:
                assert value == 0.0, label

    @given(st.floats(min_value=0.0, max_value=1.7), st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=9))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_rows_match_single_state_calls(self, r, t1, t2, etas):
        states = build_states(GhzConfig(r1=r, r2=r, r3=r, t1=t1, t2=t2), etas)
        stacked = steering_stack(states)
        trials = reconstruct_trials(build_state(GhzConfig()), n_samples=2000, n_trials=3, seed=1)
        assert stacked.flags.c_contiguous and trials.g.flags.c_contiguous
        for k in range(len(etas)):
            assert np.abs(stacked[k] - steering_stack(states[k:k + 1])[0]).max() <= 1e-14

    def test_no_false_positive_just_below_half(self):
        # G(A->BC) is exactly 0 for eta <= 1/2: the smallest conditional nu
        # is exactly 1 and the other one is within ~1e-6 of it.  The quartic
        # closed form reported 1e-10..5e-8 on about 3% of such points.
        rng = np.random.default_rng(20240501)
        n = 2000
        r = rng.uniform(0.1, 1.7, n)
        t1, t2 = rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n)
        eta = 0.5 - 3e-5 * rng.uniform(0.0, 1.0, n)
        states = np.array([
            build_state(GhzConfig(r1=r[k], r2=r[k], r3=r[k], t1=t1[k], t2=t2[k], eta=eta[k]))
            for k in range(n)])
        g = steering_stack(states)[:, DIRECTIONS.index("A->BC")]
        assert np.count_nonzero(g) == 0

    @pytest.mark.parametrize("r", [0.1, R, 1.0, 1.7])
    @pytest.mark.parametrize("t1, t2", [(0.1, 0.9), (1 / 3, 0.5), (0.8, 0.2)])
    def test_collective_forward_is_monotone_in_transmission(self, r, t1, t2):
        # one switch, at 1/2: the one root that find_threshold reports
        states = build_states(GhzConfig(r1=r, r2=r, r3=r, t1=t1, t2=t2), np.linspace(0, 1, 201))
        g = steering_stack(states)[:, DIRECTIONS.index("A->BC")]
        assert np.all(np.diff(g) >= -1e-12)
        assert g[0] == 0.0 and g[-1] > 0.0

    @pytest.mark.parametrize(
        "label", [d for d in DIRECTIONS if len(d.split("->")[1]) == 1] + ["A->BC"])
    def test_matches_the_closed_form(self, label):
        states = random_states(20261018, 400)
        g = steering_stack(states)[:, DIRECTIONS.index(label)]
        expected = [closed_form_g(m, label) for m in states]
        assert np.abs(g - expected).max() <= 1e-12

    def test_empty_stack(self):
        assert steering_stack(np.zeros((0, 6, 6))).shape == (0, 12)

    def test_arrays_are_symmetrized_on_ingest(self):
        # each cyclic ordering reads a different triangle of a non-symmetric array
        skewed = build_states(GhzConfig(), [0.7])
        skewed[0, 0, 3] += 0.3
        assert np.array_equal(steering_stack(skewed), steering_stack(symmetric_part(skewed)))

    @pytest.mark.parametrize("shape", [(6, 6), (2, 4, 4), (1, 6, 5)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="stack"):
            steering_stack(np.ones(shape))

    @pytest.mark.parametrize("where, bad", [
        (..., np.nan), (..., np.inf), ((3, 3), np.nan), ((1, 4), np.inf),
    ])
    def test_non_finite_input_is_not_a_state(self, where, bad):
        states = build_states(GhzConfig(), [1.0])
        states[0][where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="not a state"):
                steering_stack(states)

    @given(st.lists(st.floats(min_value=0.0, max_value=MAX_SQUEEZING_R), min_size=3, max_size=3),
           st.integers(min_value=0, max_value=2), st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_states_on_the_squeezing_domain_edge(self, rs, edge, t1, t2, eta):
        # one r at the largest squeezing: the fixed floor holds, no kappa needed
        rs[edge] = MAX_SQUEEZING_R
        state = build_state(GhzConfig(*rs, t1=t1, t2=t2, eta=eta))
        assert is_physical(state)
        assert symplectic_eigenvalues(state).min() >= 1.0 - PHYSICALITY_TOL
        g = steering_stack(state[None])
        assert np.all(np.isfinite(g)) and np.all(g >= 0.0)

    def test_a_matrix_that_is_not_positive_definite_is_not_a_state(self):
        # the x quadratures of all three modes correlate at -0.6: every mode
        # and pair block is positive definite and well conditioned, the
        # whole matrix is not (eigenvalue 1 - 2 * 0.6 < 0)
        bad = np.eye(6)
        for i in (0, 2, 4):
            for j in (0, 2, 4):
                if i != j:
                    bad[i, j] = -0.6
        assert np.linalg.eigvalsh(bad).min() < 0
        states = np.stack([build_state(GhzConfig()), bad, np.eye(6)])
        with pytest.raises(NumericalError, match="not a state"):
            steering_stack(states)

    def test_rows_are_bit_identical_to_one_state_calls(self):
        states = random_states(20261019, 300)
        singles = np.concatenate([steering_stack(states[k:k + 1]) for k in range(300)])
        for size in (1, 2, 7, 300):
            assert np.array_equal(steering_stack(states[:size]), singles[:size]), size

    def test_matches_the_hermitian_route_up_to_r_3(self, monkeypatch):
        # the two-mode conditionals of a->bc, by their closed form and by
        # eigvalsh; reconstructed trials add states whose x and p correlate
        stats = reconstruct_trials(build_state(GhzConfig(eta=0.7)), n_samples=2000, n_trials=200,
                                   seed=20261021)
        states = np.concatenate([random_states(20261021, 2000, r_max=3.0),
                                 stats.matrices[list(stats.accepted)]])
        g = steering_stack(states)
        monkeypatch.setattr(steering, "_factor_spectrum", hermitian_spectrum)
        assert np.abs(g - steering_stack(states)).max() <= 1e-13

    def test_calls_no_eigensolver(self, no_eigensolver):
        for seed, size in [(1, 1), (2, 3), (3, 56)]:
            states = random_states(seed, size, r_max=3.0)
            assert steering_stack(states).shape == (size, 12)

    @pytest.mark.parametrize("noise", [0.0, 0.2, 2.0])
    def test_matches_independent_solve_up_to_r_3(self, noise):
        # noise * I adds thermal noise to every mode; at 2 shot-noise units
        # no direction is steerable any more
        states = random_states(20261020, 150, r_max=3.0) + noise * np.eye(6)
        g = steering_stack(states)
        expected = [[independent_g(m, label) for label in DIRECTIONS] for m in states]
        assert np.abs(g - expected).max() <= 1e-11


    def test_matches_independent_solve_on_generic_states(self):
        # a random passive network lets every direction steer, so each way the
        # kernel reads nu (a diagonal pair, a ratio of minors, a 4x4 factor) is seen at G > 0
        states = random_gaussian_states(20261023, 200)
        g = steering_stack(states)
        assert np.all((g > 0.0).sum(axis=0) >= 10)
        expected = [[independent_g(m, label) for label in DIRECTIONS] for m in states]
        assert np.abs(g - expected).max() <= 1e-11

    def test_matches_the_six_ordering_kernel(self):
        # the orderings differ in round-off only, which grows with the condition
        # number kappa of the state; directions read in the same ordering agree bit for bit
        states = np.concatenate([random_states(20261024, 2000, r_max=3.0),
                                 random_gaussian_states(20261024, 500)])
        g, reference = steering_stack(states), six_ordering_g(states)
        w = np.linalg.eigvalsh(states)
        assert np.all(np.abs(g - reference).max(axis=1) <= 8 * EPS * w[:, -1] / w[:, 0])
        same = [DIRECTIONS.index(label) for label in SAME_ORDERING]
        assert np.array_equal(g[:, same], reference[:, same])

    def test_equals_the_six_ordering_kernel_at_moderate_squeezing(self):
        states = random_states(20261025, 2000, r_max=0.5)
        assert np.abs(steering_stack(states) - six_ordering_g(states)).max() <= 1e-14

    def test_factors_each_state_in_three_orderings(self, monkeypatch):
        shapes = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: shapes.append(m.shape) or cholesky(m))
        steering_stack(random_states(20261026, 5))
        assert shapes == [(5, 3, 6, 6)]


class TestSteeringReport:
    def test_key_order_matches_directions(self):
        rep = steering_report(build_state(GhzConfig()))
        assert tuple(rep.keys()) == DIRECTIONS

    def test_three_modes_required(self):
        with pytest.raises(ValueError):
            steering_report(np.eye(4))

    def test_pure_state_directional_symmetry(self):
        rep = steering_report(build_state(GhzConfig()))
        for fwd, rev in zip(DIRECTIONS[6::2], DIRECTIONS[7::2]):
            assert rep[fwd] == pytest.approx(rep[rev], abs=1e-9)

    def test_swapping_unlossy_modes_relabels_the_report(self):
        state = build_state(GhzConfig(eta=0.6))
        idx = quadrature_indices((0, 2, 1))
        swapped = state[np.ix_(idx, idx)]
        rep = steering_report(state)
        rep_swapped = steering_report(swapped)
        relabel = str.maketrans("BC", "CB")
        for label in DIRECTIONS:
            translated = "->".join(
                "".join(sorted(part.translate(relabel))) for part in label.split("->"))
            assert rep_swapped[translated] == pytest.approx(rep[label], abs=1e-12)


class TestMonogamy:
    def test_residual_keys(self):
        res = monogamy_residuals(build_state(GhzConfig()))
        assert tuple(res.keys()) == RESIDUAL_KEYS

    def test_lossless_residuals_equal_collective_strength(self):
        # one-to-one terms vanish, so each residual collapses to its 1-to-2 term
        res = monogamy_residuals(build_state(GhzConfig()))
        assert res["A_out"] == pytest.approx(G_ONE_TO_TWO, abs=1e-12)
        assert res["A_in"] == pytest.approx(G_ONE_TO_TWO, abs=1e-12)

    @pytest.mark.parametrize("r", [0.1, R, 0.8])
    def test_non_negative_on_transmission_grid(self, r):
        for k in range(21):
            cfg = GhzConfig(r1=r, r2=r, r3=r, eta=k * 0.05)
            res = monogamy_residuals(build_state(cfg))
            assert min(res.values()) >= -1e-10

    @given(st.floats(min_value=0.0, max_value=1.2), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_non_negative_generically(self, r, eta):
        res = monogamy_residuals(build_state(GhzConfig(r1=r, r2=r, r3=r, eta=eta)))
        assert min(res.values()) >= -1e-10

    def test_stack_matches_the_residual_formulas(self):
        # each residual written out by label: collective minus both pairs
        g = steering_stack(random_states(20261019, 300))
        col = {label: g[:, k] for k, label in enumerate(DIRECTIONS)}
        expected = np.stack([
            col["A->BC"] - col["A->B"] - col["A->C"],
            col["BC->A"] - col["B->A"] - col["C->A"],
            col["B->AC"] - col["B->A"] - col["B->C"],
            col["AC->B"] - col["A->B"] - col["C->B"],
            col["C->AB"] - col["C->A"] - col["C->B"],
            col["AB->C"] - col["A->C"] - col["B->C"],
        ], axis=1)
        res = monogamy_stack(g)
        assert res.shape == (300, len(RESIDUAL_KEYS))
        assert np.array_equal(res, expected)
        assert np.array_equal(monogamy_stack(g[7]), expected[7])

    @pytest.mark.parametrize("shape", [(12,), (3, 12)])
    def test_stack_accepts_a_row_or_a_stack(self, shape):
        assert monogamy_stack(np.zeros(shape)).shape == shape[:-1] + (6,)

    @pytest.mark.parametrize("shape", [(11,), (3, 6), (12, 3)])
    def test_stack_rejects_a_wrong_last_axis(self, shape):
        with pytest.raises(ValueError, match="12 directions"):
            monogamy_stack(np.zeros(shape))


class TestSweep:
    @given(st.floats(min_value=0.0, max_value=1.7), st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=9))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_rows_equal_the_single_state_reports(self, r, t1, t2, etas):
        cfg = GhzConfig(r1=r, r2=r, r3=r, t1=t1, t2=t2)
        g = steering_stack(build_states(cfg, etas))
        residuals = monogamy_stack(g)
        for eta, g_row, res_row in zip(etas, g.tolist(), residuals.tolist()):
            state = build_state(replace(cfg, eta=eta))
            assert steering_report(state) == dict(zip(DIRECTIONS, g_row))
            assert monogamy_residuals(state) == dict(zip(RESIDUAL_KEYS, res_row))

    def test_collective_reverse_is_monotone_in_transmission(self):
        g = steering_stack(build_states(GhzConfig(), [k * 0.05 for k in range(21)]))
        values = g[:, DIRECTIONS.index("BC->A")].tolist()
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range_eta(self):
        with pytest.raises(ValueError):
            build_states(GhzConfig(), [0.5, 1.5])


class TestThreshold:
    @given(st.floats(min_value=0.05, max_value=3.0), st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_collective_forward_switches_on_exactly_at_half(self, r, t1, t2):
        # det sigma_A - det sigma = (2 eta - 1)(a_x a_p - 1) when A is
        # correlated, so G(A->BC) is 0 for eta <= 1/2 and positive above
        config = GhzConfig(r1=r, r2=r, r3=r, t1=t1, t2=t2)
        states = build_states(config, [0.5 - 1e-3, 0.5, 0.5 + 1e-3])
        below, half, above = steering_stack(states)[:, DIRECTIONS.index("A->BC")]
        assert below == 0.0 and half == 0.0
        assert above > 0.0

    def test_collective_forward_direction_activates_near_half(self):
        eta_star = find_threshold(GhzConfig(), "A->BC", tol=1e-4)
        assert 0.49 <= eta_star <= 0.51

    def test_below_threshold_is_silent(self):
        eta_star = find_threshold(GhzConfig(), "A->BC", tol=1e-4)
        cm = build_state(GhzConfig(eta=eta_star - 0.01))
        assert gaussian_steering(cm, parse_direction("A->BC")) <= STEERING_EPS

    @pytest.mark.parametrize("direction", ["BC->A", "B->AC", "CB->A"])
    def test_always_on_directions_have_no_threshold(self, direction):
        with pytest.raises(ValueError, match="no threshold in range"):
            find_threshold(GhzConfig(), direction)

    @pytest.mark.parametrize("direction", ["A->", "A-B", "D->A", "A->A", "AA->B"])
    def test_rejects_a_label_outside_the_12_directions(self, monkeypatch, direction):
        monkeypatch.setattr(steering, "parse_direction", None)  # the label is checked without it
        with pytest.raises(ValueError) as exc:
            find_threshold(GhzConfig(), direction)
        assert str(exc.value) == (f"unknown direction {direction!r}, expected one of "
                                  + ", ".join(DIRECTIONS))

    @pytest.mark.parametrize("tol", [0.0, -1e-4, float("nan")])
    def test_rejects_a_tolerance_that_is_not_positive(self, tol):
        # tol is an accuracy bound: none that is not positive can be met
        with pytest.raises(ValueError, match="tol must be positive"):
            find_threshold(GhzConfig(), "A->BC", tol=tol)

    def test_coarse_tolerance_still_brackets(self):
        eta_star = find_threshold(GhzConfig(), "A->BC", tol=5e-3)
        assert 0.49 <= eta_star <= 0.52

    @pytest.mark.parametrize("r", [0.01, 0.1, R, 1.7, MAX_SQUEEZING_R])
    def test_collective_forward_threshold_is_exactly_half(self, r):
        # exact, with no detection-floor offset: at r = 0.01 G is only 3.6e-9
        # at eta = 1/2 + 1e-5, far below STEERING_EPS
        eta_star = find_threshold(GhzConfig(r1=r, r2=r, r3=r), "A->BC", tol=1e-6)
        assert abs(eta_star - 0.5) <= 1e-12

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_no_squeezing_has_no_threshold(self, direction):
        with pytest.raises(ValueError, match="no threshold in range"):
            find_threshold(GhzConfig(r1=0.0, r2=0.0, r3=0.0), direction)

    @pytest.mark.parametrize("r1, r2, r3, t1, t2", [
        (R, R, R, 1 / 3, 0.5), (1.2, 0.4, 2.5, 0.3, 0.8), (0.01, 2.9, 0.7, 0.9, 0.1)])
    def test_the_second_root_of_the_collective_forward_quadratic_is_not_reported(
            self, monkeypatch, r1, r2, r3, t1, t2):
        # q = det sigma_A - det sigma = (2 eta - 1)(a_x a_p - 1); in t = eta / (1 - eta)
        # its quadratic has roots t = 1 (eta = 1/2) and t = -1 (eta at infinity)
        seen = []
        monkeypatch.setattr(steering, "_sign_change", lambda *q: seen.append(q) or SIGN_CHANGE(*q))
        eta_star = find_threshold(GhzConfig(r1=r1, r2=r2, r3=r3, t1=t1, t2=t2), "A->BC")
        (q0, qh, q1), = seen
        t = np.sort(np.roots([q1, 4 * qh - q0 - q1, q0]))
        assert np.isreal(t).all() and len(t) == 2
        assert abs(t[0] + 1) <= 1e-9 and abs(t[1] - 1) <= 1e-12
        assert abs(eta_star - 0.5) <= 1e-12

    @pytest.mark.parametrize("direction", ["B->AC", "C->AB"])
    @pytest.mark.parametrize("r", [0.01, R, 1.7, MAX_SQUEEZING_R])
    def test_two_mode_steered_directions_never_report_the_pure_end(self, monkeypatch, direction, r):
        # the state is pure at eta = 1 and A is vacuum at eta = 0: both make
        # one conditional nu exactly 1, so q is 0 at both ends, not just small
        seen = []
        monkeypatch.setattr(steering, "_sign_change", lambda *q: seen.append(q) or SIGN_CHANGE(*q))
        for t1, t2 in [(1 / 3, 0.5), (0.9, 0.2), (0.2, 0.99)]:
            with pytest.raises(ValueError, match="no threshold in range"):
                find_threshold(GhzConfig(r1=r, r2=r, r3=r, t1=t1, t2=t2), direction)
        assert all(q0 == 0.0 and q1 == 0.0 and qh != 0.0 for q0, qh, q1 in seen)

    @pytest.mark.parametrize("direction, config", [
        ("B->AC", (0.999205, 0.061531, 0.16442, 0.766453, 0.995169)),
        ("B->A", (0.054741, 0.430546, 0.934478, 0.322164, 0.334708)),
        ("C->A", (0.117715, 0.086599, 0.214096, 0.524395, 0.575767)),
        ("BC->A", (0.131927, 0.065544, 0.348219, 0.330984, 0.722535)),
    ])
    def test_an_onset_at_zero_is_not_a_threshold(self, direction, config):
        # G grows like eta from 0, so every eta > 0 is steerable: no switch
        # inside (0, 1), however slowly G rises
        g = steering_stack(build_states(GhzConfig(*config), [0.0, 1e-3, 0.5, 1.0]))
        g = g[:, DIRECTIONS.index(direction)]
        assert g[0] == 0.0 and np.all(g[1:] > 0.0)
        with pytest.raises(ValueError, match="no threshold in range"):
            find_threshold(GhzConfig(*config), direction, tol=1e-6)

    def test_calls_no_eigensolver(self, no_eigensolver):
        # every direction that has a threshold at one of these configs, found without one
        rng = np.random.default_rng(20261022)
        found = set()
        for r1, r2, r3, t1, t2 in zip(*rng.uniform(0.05, 3.0, (3, 20)),
                                      *rng.uniform(0.05, 0.95, (2, 20))):
            for direction in DIRECTIONS:
                try:
                    assert 0.0 < find_threshold(GhzConfig(r1, r2, r3, t1, t2), direction) < 1.0
                    found.add(direction)
                except ValueError as exc:
                    assert "no threshold in range" in str(exc)
        assert found == {"A->B", "B->A", "A->C", "C->A", "A->BC", "BC->A", "AC->B", "AB->C"}

    def test_sign_change_matches_the_companion_matrix_roots(self):
        rng = np.random.default_rng(20261027)
        q = rng.normal(size=(5000, 3)) * 10.0 ** rng.uniform(-8.0, 8.0, (5000, 1))
        x, y = rng.normal(size=(2, 200))
        s = rng.choice([-2.0, 0.25, 1.0, 3.0], 200)
        degenerate = np.concatenate([
            np.column_stack([0 * x, x, y]),                    # a root at eta = 0
            np.column_stack([x, y, 0 * x]),                    # a root at eta = 1: degree 1
            np.column_stack([0 * x, x, 0 * x]),                # roots at both ends
            np.column_stack([x, (x + y) / 4, y]),              # no linear term
            np.column_stack([s * s * x, (1 - s) ** 2 * x / 4, x]),  # a double root at t = s
        ])
        found = 0
        for q0, qh, q1 in np.concatenate([q, degenerate]).tolist():
            got, want = SIGN_CHANGE(q0, qh, q1), roots_sign_change(q0, qh, q1)
            assert (got is None) == (want is None), (q0, qh, q1)
            if want is not None:
                found += 1
                assert abs(got - want) <= 1e-15, (q0, qh, q1)
        assert found >= 2500

    @pytest.mark.parametrize("q, eta", [
        ((1.0, 0.0, -1.0), 0.5),        # one simple root inside
        ((0.0, -0.5, -3.0), 0.25),      # roots 0 and 1/4: the end is no threshold
        ((2.0, -1.0, 0.0), 0.25),       # roots 1/4 and 1
        ((-0.1, 0.075, 0.75), 0.4),     # roots 0.4 and -0.25
        ((0.6, -0.1, -0.3), 0.4),       # roots 0.4 and 1.5
        ((0.0, 1.0, 0.0), None),        # roots 0 and 1 only
        ((1.0, -0.5, 1.0), None),       # two roots inside: the ends agree
        ((1.0, 0.0, 1.0), None),        # a double root at 1/2
        ((1.0, -1e-9, 1.0), None),      # a double root split in two
        ((1.0, 1e-9, 1.0), None),       # a double root pushed to a complex pair
        ((0.0, 0.0, 0.0), None),        # q == 0, as at r = 0
        ((1.0, 1.0, 1.0), None),        # no root
    ])
    def test_sign_change_picks_the_one_root_inside(self, q, eta):
        got = SIGN_CHANGE(*q)
        if eta is None:
            assert got is None
        else:
            assert abs(got - eta) <= 1e-15
