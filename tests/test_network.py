"""State preparation: squeezers, beam-splitter network, loss."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghz_steering import GhzConfig, build_state, build_states, network
from ghz_steering.network import (
    MAX_SQUEEZING_R,
    build_ghz,
    combo_vector,
    correlation_variance,
    lossy_channel,
    lossy_stack,
    network_mode_matrix,
    r_to_squeezing_db,
    squeezing_db_to_r,
)
from ghz_steering.symplectic import is_physical, purity, symplectic_form

R = 0.339


def test_squeezing_db_round_trip():
    for r in (0.0, 0.1, R, 1.2):
        assert squeezing_db_to_r(r_to_squeezing_db(r)) == pytest.approx(r, abs=1e-15)


def test_default_squeezing_in_decibels():
    assert r_to_squeezing_db(R) == pytest.approx(2.9445165873, abs=1e-9)


class TestGhzConfig:
    def test_defaults(self):
        cfg = GhzConfig()
        assert cfg.r1 == cfg.r2 == cfg.r3 == R
        assert cfg.t1 == pytest.approx(1 / 3)
        assert cfg.t2 == 0.5
        assert cfg.eta == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"r1": -0.1},
        {"t1": 1.5},
        {"t2": -0.2},
        {"eta": 2.0},
        {"r1": math.nan},
        {"r2": math.inf},
        {"r3": 400.0},
        {"r1": math.nextafter(MAX_SQUEEZING_R, math.inf)},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            GhzConfig(**kwargs)

    def test_largest_squeezing_is_accepted(self):
        cfg = GhzConfig(r1=MAX_SQUEEZING_R, r2=MAX_SQUEEZING_R, r3=MAX_SQUEEZING_R)
        assert cfg.r1 == cfg.r2 == cfg.r3 == MAX_SQUEEZING_R == 3.0

    def test_the_error_names_the_field_and_its_db_value(self):
        with pytest.raises(ValueError) as exc:
            GhzConfig(r3=3.5)
        assert str(exc.value) == ("r3 = 3.5 (30.4 dB) is outside the squeezing domain "
                                  "[0, 3] (0 to 26.06 dB)")


class TestNetworkModeMatrix:
    def test_default_entries(self):
        u = network_mode_matrix(1 / 3, 0.5)
        expected = np.array([
            [math.sqrt(2 / 3), math.sqrt(1 / 3), 0.0],
            [-math.sqrt(1 / 6), math.sqrt(1 / 3), math.sqrt(1 / 2)],
            [-math.sqrt(1 / 6), math.sqrt(1 / 3), -math.sqrt(1 / 2)],
        ])
        assert np.allclose(u, expected, atol=1e-12)

    def test_orthogonal(self):
        u = network_mode_matrix(1 / 3, 0.5)
        assert np.allclose(u @ u.T, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("t1,t2,expected", [
        # t = 0 passes both beams (the second with a sign), t = 1 swaps them
        (0.0, 0.0, [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
        (1.0, 0.0, [[0, 1, 0], [-1, 0, 0], [0, 0, -1]]),
        (0.0, 1.0, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
        (1.0, 1.0, [[0, 1, 0], [0, 0, 1], [-1, 0, 0]]),
    ])
    def test_corners(self, t1, t2, expected):
        assert np.array_equal(network_mode_matrix(t1, t2), np.array(expected, dtype=float))

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @example(0.0, 0.0)
    @example(1.0, 0.0)
    @example(0.0, 1.0)
    @example(1.0, 1.0)
    @settings(max_examples=100)
    def test_preserves_the_symplectic_form(self, t1, t2):
        # build_ghz applies the network alike to the x and the p sector
        net = np.zeros((6, 6))
        net[0::2, 0::2] = net[1::2, 1::2] = network_mode_matrix(t1, t2)
        omega = symplectic_form(3)
        assert np.abs(net @ omega @ net.T - omega).max() <= 1e-12


class TestBuildGhz:
    def test_zero_squeezing_gives_vacuum(self):
        cm = build_ghz(GhzConfig(r1=0.0, r2=0.0, r3=0.0))
        assert np.allclose(cm, np.eye(6), atol=1e-12)

    def test_uncoupled_network_passes_the_squeezed_inputs(self):
        # at t1 = t2 = 0 the network only flips signs: x, p, x squeezed vacua
        cm = build_ghz(GhzConfig(r1=0.2, r2=0.5, r3=0.9, t1=0.0, t2=0.0))
        expected = np.diag([math.exp(-0.4), math.exp(0.4), math.exp(1.0), math.exp(-1.0),
                            math.exp(-1.8), math.exp(1.8)])
        assert np.array_equal(cm, expected)

    def test_block_structure(self):
        m = build_ghz(GhzConfig())
        a, b = math.exp(2 * R), math.exp(-2 * R)
        u, v = (a + 2 * b) / 3, (2 * a + b) / 3
        c = (a - b) / 3
        for k in range(3):
            assert m[2 * k, 2 * k] == pytest.approx(u, abs=1e-12)
            assert m[2 * k + 1, 2 * k + 1] == pytest.approx(v, abs=1e-12)
            assert m[2 * k, 2 * k + 1] == pytest.approx(0.0, abs=1e-12)
        for k, l in [(0, 1), (0, 2), (1, 2)]:
            assert m[2 * k, 2 * l] == pytest.approx(c, abs=1e-12)
            assert m[2 * k + 1, 2 * l + 1] == pytest.approx(-c, abs=1e-12)
            assert m[2 * k, 2 * l + 1] == pytest.approx(0.0, abs=1e-12)

    def test_correlation_variances(self):
        cm = build_ghz(GhzConfig())
        b = math.exp(-2 * R)
        pairs = [("xA-xB", 2 * b), ("xA-xC", 2 * b), ("xB-xC", 2 * b), ("pA+pB+pC", 3 * b)]
        for label, expected in pairs:
            assert correlation_variance(cm, label) == pytest.approx(expected, abs=1e-10)

    @given(st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=40)
    def test_pure_for_any_symmetric_squeezing(self, r):
        cm = build_ghz(GhzConfig(r1=r, r2=r, r3=r))
        assert purity(cm) == pytest.approx(1.0, abs=1e-8)

    def test_reduced_modes_are_the_closed_form(self):
        # each mode alone: Var(x) = (e^{2r} + 2e^{-2r})/3, Var(p) = (2e^{2r} + e^{-2r})/3
        a, b = math.exp(2 * R), math.exp(-2 * R)
        expected = np.diag([(a + 2 * b) / 3, (2 * a + b) / 3])
        cm = build_ghz(GhzConfig())
        for mode in range(3):
            block = cm[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2]
            assert np.allclose(block, expected, atol=1e-12)


class TestBuildGhzCache:
    CONFIGS = [GhzConfig(), GhzConfig(r1=0.0, r2=0.0, r3=0.0), GhzConfig(r1=3.0, r2=1.7, r3=0.0),
               GhzConfig(r1=0.2, r2=0.5, r3=0.9, t1=0.0, t2=1.0), GhzConfig(r1=1.1, t1=0.7, t2=0.2)]

    def test_equals_the_uncached_build_byte_for_byte(self):
        network._lossless_state.cache_clear()
        for config in self.CONFIGS:
            key = (config.r1, config.r2, config.r3, config.t1, config.t2)
            uncached = network._lossless_state.__wrapped__(*key)
            assert build_ghz(config).tobytes() == uncached.tobytes()
            assert build_ghz(config).tobytes() == uncached.tobytes()  # now a cache hit

    def test_one_read_only_state_per_key_whatever_eta(self):
        first = build_ghz(GhzConfig(eta=0.3))
        assert build_ghz(GhzConfig(eta=0.9)) is first
        assert build_ghz(GhzConfig(r1=0.34)) is not first
        with pytest.raises(ValueError):
            first[0, 0] = 5.0

    @pytest.mark.parametrize("field", ["t1", "t2"])
    def test_signed_zero_transmittances_give_the_same_bytes(self, field):
        # -0.0 == 0.0 share one cache key, which is sound only because both build alike
        key = {name: getattr(GhzConfig(), name) for name in ("r1", "r2", "r3", "t1", "t2")}
        uncached = [network._lossless_state.__wrapped__(**{**key, field: zero}).tobytes()
                    for zero in (0.0, -0.0)]
        assert uncached[0] == uncached[1]
        for order in ((0.0, -0.0), (-0.0, 0.0)):
            network._lossless_state.cache_clear()
            for zero in order:  # a miss, then a hit on the shared key
                assert build_ghz(replace(GhzConfig(), **{field: zero})).tobytes() == uncached[0]

    def test_the_cache_is_bounded(self):
        network._lossless_state.cache_clear()
        size = network._lossless_state.cache_info().maxsize
        assert size is not None and size > 0
        for k in range(2 * size + 3):
            build_ghz(GhzConfig(r1=k / (2 * size + 3)))
        info = network._lossless_state.cache_info()
        assert info.currsize == size and info.misses == 2 * size + 3


class TestLossyChannel:
    def test_full_transmission_is_identity(self):
        cm = build_ghz(GhzConfig())
        assert np.array_equal(lossy_channel(cm, 1.0), cm)

    def test_zero_transmission_replaces_with_vacuum(self):
        out = lossy_channel(build_ghz(GhzConfig()), 0.0)
        assert np.allclose(out[0:2, 0:2], np.eye(2), atol=1e-12)
        assert np.allclose(out[0:2, 2:6], np.zeros((2, 4)), atol=1e-12)

    def test_diagonal_value(self):
        # Delta^2 x_A -> eta * u + (1 - eta)
        u = (math.exp(2 * R) + 2 * math.exp(-2 * R)) / 3
        out = lossy_channel(build_ghz(GhzConfig()), 0.5)
        assert out[0, 0] == pytest.approx(0.5 * u + 0.5, abs=1e-12)

    def test_off_diagonal_scales_by_sqrt_eta(self):
        before = build_ghz(GhzConfig())
        after = lossy_channel(build_ghz(GhzConfig()), 0.5)
        assert after[0, 2] == pytest.approx(math.sqrt(0.5) * before[0, 2], abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_composition(self, eta1, eta2):
        cm = build_ghz(GhzConfig())
        twice = lossy_channel(lossy_channel(cm, eta1), eta2)
        once = lossy_channel(cm, eta1 * eta2)
        assert np.allclose(twice, once, atol=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=1.5),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_preserves_physicality(self, r, eta):
        cm = lossy_channel(build_ghz(GhzConfig(r1=r, r2=r, r3=r)), eta)
        assert is_physical(cm)

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            lossy_channel(build_ghz(GhzConfig()), 1.2)


class TestBuildState:
    def test_lossless_equals_build_ghz(self):
        assert np.array_equal(build_state(GhzConfig()), build_ghz(GhzConfig()))

    def test_loss_hits_first_mode(self):
        direct = lossy_channel(build_ghz(GhzConfig()), 0.3)
        assert np.array_equal(build_state(GhzConfig(eta=0.3)), direct)


# The corners of the domain: each r in {0, 3}, t1 and t2 in {0, 1}.
CORNER_CONFIGS = [GhzConfig(r1=r1, r2=r2, r3=r3, t1=t1, t2=t2)
                  for r1 in (0.0, 3.0) for r2 in (0.0, 3.0) for r3 in (0.0, 3.0)
                  for t1 in (0.0, 1.0) for t2 in (0.0, 1.0)]


class TestBuildStates:
    @pytest.mark.parametrize("cfg", [GhzConfig(r1=0.7, r2=0.7, r3=0.7, t1=0.2, t2=0.8),
                                     *CORNER_CONFIGS])
    def test_rows_equal_build_state_exactly(self, cfg):
        # byte for byte, so the sign of a zero counts too
        etas = [0.0, 0.13, 0.5, 0.999, 1.0]
        stack = build_states(cfg, etas)
        assert stack.shape == (5, 6, 6)
        for eta, row in zip(etas, stack):
            assert row.tobytes() == build_state(replace(cfg, eta=eta)).tobytes()
            assert row.tobytes() == lossy_channel(build_ghz(cfg), eta).tobytes()

    @pytest.mark.parametrize("cfg", [GhzConfig(), GhzConfig(r1=3.0, r2=0.0, r3=1.0, t1=0.9, t2=0.1),
                                     *CORNER_CONFIGS])
    def test_no_negative_zero_at_zero_efficiency(self, cfg):
        # eta = 0 zeroes A's rows and columns; every zero of the state is +0.0
        state = build_states(cfg, [0.0])
        assert not np.signbit(state[state == 0.0]).any()

    @pytest.mark.parametrize("cfg", [GhzConfig(), *CORNER_CONFIGS])
    def test_a_stack_equals_its_transpose_exactly(self, cfg):
        stack = lossy_stack(build_ghz(cfg), np.linspace(0.0, 1.0, 11))
        assert stack.tobytes() == np.ascontiguousarray(np.swapaxes(stack, -1, -2)).tobytes()

    @pytest.mark.parametrize("etas", [[0.5, 1.2], [-0.1], [float("nan")]])
    def test_rejects_efficiencies_outside_unit_interval(self, etas):
        with pytest.raises(ValueError, match="efficiency"):
            build_states(GhzConfig(), etas)


class TestComboVector:
    def test_coefficient_vector(self):
        assert np.array_equal(combo_vector("xA-pB"), np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0]))
        assert np.array_equal(combo_vector("-xC+pA"), np.array([0.0, 1.0, 0.0, 0.0, -1.0, 0.0]))

    def test_rejects_duplicate_slot(self):
        with pytest.raises(ValueError, match="twice"):
            combo_vector("xA-xA")

    @pytest.mark.parametrize("label", ["yA", "xA-yB", "", "xA xB", "xAxB", "xA-", "xAB"])
    def test_rejects_unreadable_label(self, label):
        with pytest.raises(ValueError, match="unreadable"):
            combo_vector(label)

    def test_rejects_mode_d(self):
        with pytest.raises(ValueError, match="unknown mode"):
            combo_vector("xA-xD")


def test_vacuum_difference_variance():
    assert correlation_variance(np.eye(6), "xA-xB") == pytest.approx(2.0)


@pytest.mark.parametrize("cm", [np.eye(4), np.eye(2), build_state(GhzConfig())[:4, :4]])
def test_correlation_variance_needs_a_three_mode_state(cm):
    # the message population_measurements gives, not numpy's matmul error
    with pytest.raises(ValueError, match="^expected a three-mode state$"):
        correlation_variance(cm, "xA")
