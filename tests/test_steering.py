"""Steering quantifier, the twelve directions, monogamy, thresholds."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_steering import (
    DIRECTIONS,
    RESIDUAL_KEYS,
    CovarianceMatrix,
    GhzConfig,
    NumericalError,
    build_state,
    build_states,
    find_threshold,
    monogamy_residuals,
    monogamy_stack,
    steering_report,
    steering_stack,
)
from ghz_steering import steering
from ghz_steering.steering import STEERING_EPS, gaussian_steering, parse_direction
from ghz_steering.symplectic import Partition, quadrature_indices, symplectic_form

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
        build_state(GhzConfig(r1=r1, r2=r2, r3=r3, t1=t1, t2=t2, eta=eta)).matrix
        for r1, r2, r3, t1, t2, eta in zip(*rng.uniform(0.0, r_max, (3, n)),
                                           *rng.uniform(0.0, 1.0, (3, n)))])


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
    return CovarianceMatrix(np.array([
        [ch, 0, sh, 0],
        [0, ch, 0, -sh],
        [sh, 0, ch, 0],
        [0, -sh, 0, ch],
    ]))


class TestParseDirection:
    def test_one_to_one(self):
        assert parse_direction("A->B") == Partition(steering=(0,), steered=(1,))

    def test_two_to_one(self):
        assert parse_direction("BC->A") == Partition(steering=(1, 2), steered=(0,))

    def test_one_to_two(self):
        assert parse_direction("B->AC") == Partition(steering=(1,), steered=(0, 2))

    @pytest.mark.parametrize("label", ["", "A", "A->", "->B", "A->D", "AB->AB", "a->b", "A=>B"])
    def test_invalid(self, label):
        with pytest.raises(ValueError):
            parse_direction(label)


class TestDirectionHelpers:
    def test_direction_tuple_is_frozen(self):
        assert DIRECTIONS == (
            "A->B", "B->A", "A->C", "C->A", "B->C", "C->B",
            "A->BC", "BC->A", "B->AC", "AC->B", "C->AB", "AB->C",
        )


class TestGaussianSteering:
    def test_vacuum_two_modes(self):
        vac = CovarianceMatrix(np.eye(4))
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
            expected = independent_g(cm.matrix, label)
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
        m = build_state(GhzConfig(r1=r, r2=r, r3=r, t1=t1, t2=t2, eta=eta)).matrix
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
            build_state(GhzConfig(r1=r[k], r2=r[k], r3=r[k], t1=t1[k], t2=t2[k], eta=eta[k])).matrix
            for k in range(n)])
        g = steering_stack(states)[:, DIRECTIONS.index("A->BC")]
        assert np.count_nonzero(g) == 0

    @pytest.mark.parametrize("r", [0.1, R, 1.0, 1.7])
    @pytest.mark.parametrize("t1, t2", [(0.1, 0.9), (1 / 3, 0.5), (0.8, 0.2)])
    def test_collective_forward_is_monotone_in_transmission(self, r, t1, t2):
        # find_threshold's bisection rests on this
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

    @pytest.mark.parametrize("shape", [(6, 6), (2, 4, 4), (1, 6, 5)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="stack"):
            steering_stack(np.ones(shape))

    def test_ill_conditioned_block_is_a_numerical_error(self):
        # at r = 8 the two-mode steering blocks have condition number ~1e14
        states = build_states(GhzConfig(r1=8.0, r2=8.0, r3=8.0), [0.5])
        with pytest.raises(NumericalError, match="not invertible"):
            steering_stack(states)

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
        states = np.stack([build_state(GhzConfig()).matrix, bad, np.eye(6)])
        with pytest.raises(NumericalError, match="not a state"):
            steering_stack(states)

    def test_rows_are_bit_identical_to_one_state_calls(self):
        states = random_states(20261019, 300)
        singles = np.concatenate([steering_stack(states[k:k + 1]) for k in range(300)])
        for size in (1, 2, 7, 300):
            assert np.array_equal(steering_stack(states[:size]), singles[:size]), size

    @pytest.mark.parametrize("noise", [0.0, 0.2, 2.0])
    def test_matches_independent_solve_up_to_r_3(self, noise):
        # noise * I adds thermal noise to every mode; at 2 shot-noise units
        # no direction is steerable any more
        states = random_states(20261020, 150, r_max=3.0) + noise * np.eye(6)
        g = steering_stack(states)
        expected = [[independent_g(m, label) for label in DIRECTIONS] for m in states]
        assert np.abs(g - expected).max() <= 1e-11


class TestSteeringReport:
    def test_key_order_matches_directions(self):
        rep = steering_report(build_state(GhzConfig()))
        assert tuple(rep.keys()) == DIRECTIONS

    def test_three_modes_required(self):
        with pytest.raises(ValueError):
            steering_report(CovarianceMatrix(np.eye(4)))

    def test_pure_state_directional_symmetry(self):
        rep = steering_report(build_state(GhzConfig()))
        for fwd, rev in zip(DIRECTIONS[6::2], DIRECTIONS[7::2]):
            assert rep[fwd] == pytest.approx(rep[rev], abs=1e-9)

    def test_swapping_unlossy_modes_relabels_the_report(self):
        state = build_state(GhzConfig(eta=0.6))
        idx = quadrature_indices((0, 2, 1))
        swapped = CovarianceMatrix(state.matrix[np.ix_(idx, idx)])
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

    @pytest.mark.parametrize("tol", [0.0, -1e-4, float("nan")])
    def test_rejects_a_tolerance_that_is_not_positive(self, tol):
        # bisection to tol <= 0 never stops; nan would end it at once
        with pytest.raises(ValueError, match="tol must be positive"):
            find_threshold(GhzConfig(), "A->BC", tol=tol)

    def test_coarse_tolerance_still_brackets(self):
        eta_star = find_threshold(GhzConfig(), "A->BC", tol=5e-3)
        assert 0.49 <= eta_star <= 0.52

    @pytest.mark.parametrize("lookahead", [1, 2, 4, 5])
    @pytest.mark.parametrize("direction", ["A->BC", "AB->C", "A->B"])
    def test_the_lookahead_does_not_change_the_result(self, monkeypatch, lookahead, direction):
        # BISECTION_LOOKAHEAD only schedules which midpoints share a call
        configs = [GhzConfig(r1=r, r2=r, r3=r, t1=t1, t2=t2)
                   for r, t1, t2 in [(R, 1 / 3, 0.5), (0.1, 0.8, 0.3), (1.7, 0.5, 0.9)]]

        def thresholds():
            found = []
            for config in configs:
                for tol in (1e-6, 1e-3):
                    try:
                        found.append(find_threshold(config, direction, tol=tol))
                    except ValueError as exc:
                        found.append(str(exc))
            return found

        default = thresholds()
        monkeypatch.setattr(steering, "BISECTION_LOOKAHEAD", lookahead)
        assert thresholds() == default

    @pytest.mark.parametrize("r, t1, t2", [(R, 1 / 3, 0.5), (0.1, 0.8, 0.3), (1.7, 0.5, 0.9)])
    @pytest.mark.parametrize("tol", [1e-6, 1e-4, 0.3])
    def test_same_result_as_plain_bisection(self, r, t1, t2, tol):
        config = GhzConfig(r1=r, r2=r, r3=r, t1=t1, t2=t2)

        def steerable(eta):
            state = build_state(replace(config, eta=eta))
            return gaussian_steering(state, parse_direction("A->BC")) > STEERING_EPS

        lo, hi = 1e-6, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if steerable(mid):
                hi = mid
            else:
                lo = mid
        assert find_threshold(config, "A->BC", tol=tol) == 0.5 * (lo + hi)
