"""find_threshold against an exact threshold oracle that shares no code with the package.

The oracle writes the lossy state as sigma(eta) = M D M^T.  M is the 6x8
network: the three squeezed inputs pass the beam splitters, A's rows carry
sqrt(eta), and two extra columns bring the vacuum that the loss mixes into A
with weight sqrt(1 - eta).  D = diag(e^{-2 r1}, e^{2 r1}, e^{2 r2},
e^{-2 r2}, e^{-2 r3}, e^{2 r3}, 1, 1).  By Cauchy-Binet every minor of sigma
is a sum over 8-choose-n column sets K of det M[rows, K] det M[cols, K] D_K,
and each term is eta^i (1 - eta)^j times a number that does not depend on
eta.  So each minor comes out as exact coefficients of eta^2, eta (1 - eta)
and (1 - eta)^2; for a principal minor every term is non-negative, so the
coefficients are accurate to a few ulps whatever the conditioning.

q(eta) = det sigma_X - det sigma_XY changes sign exactly where G(X->Y) does
for the ten log-det directions (the nine with one steered mode, and A->BC,
whose conditional keeps one symplectic eigenvalue at 1).  B->AC and C->AB
take q = det sigma_X (1 - Delta + det S) of the two-mode conditional S.
The oracle's threshold is the one root in (0, 1) where q changes sign.
"""

import itertools
import math

import numpy as np
import pytest

from ghz_steering import DIRECTIONS, GhzConfig, build_states, find_threshold
from ghz_steering import steering

N_CONFIGS = 240
PRODUCT_FORM = ("B->AC", "C->AB")
LOG_DET = tuple(label for label in DIRECTIONS if label not in PRODUCT_FORM)
VACUUM = (6, 7)  # the columns of M that feed the loss's vacuum into A


def random_configs(seed=20261019, n=N_CONFIGS):
    """n configs (r1, r2, r3, t1, t2): r uniform on the squeezing domain [0, 3], t on [0, 1]."""
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0.0, 3.0, (n, 3)), rng.uniform(0.0, 1.0, (n, 2))])


CONFIGS = random_configs()


def mode_matrix(t1, t2):
    """3x3 mode-space matrix: (1, 2) mixed at t1, mode 2 sign-flipped, (2, 3) mixed at t2."""
    c1, s1, c2, s2 = math.sqrt(1 - t1), math.sqrt(t1), math.sqrt(1 - t2), math.sqrt(t2)
    first = np.array([[c1, s1, 0.0], [s1, -c1, 0.0], [0.0, 0.0, 1.0]])
    second = np.array([[1.0, 0.0, 0.0], [0.0, c2, s2], [0.0, s2, -c2]])
    return second @ np.diag([1.0, -1.0, 1.0]) @ first


def network(configs):
    """M with the eta factors taken out, (n, 6, 8), and the diagonal of D, (n, 8)."""
    m = np.zeros((len(configs), 6, 8))
    d = np.ones((len(configs), 8))
    for k, (r1, r2, r3, t1, t2) in enumerate(configs):
        u = mode_matrix(t1, t2)
        m[k, 0::2, 0:6:2] = m[k, 1::2, 1:6:2] = u
        d[k, :6] = np.exp([-2 * r1, 2 * r1, 2 * r2, -2 * r2, -2 * r3, 2 * r3])
    m[:, 0, 6] = m[:, 1, 7] = 1.0
    return m, d


def quadratures(modes):
    return [2 * "ABC".index(mode) + q for mode in modes for q in (0, 1)]


# Degree-2 lift of eta^i (1 - eta)^j onto the basis eta^2, eta (1 - eta), (1 - eta)^2.
LIFT = {(2, 0): [1, 0, 0], (1, 1): [0, 1, 0], (0, 2): [0, 0, 1],
        (1, 0): [1, 1, 0], (0, 1): [0, 1, 1], (0, 0): [1, 2, 1]}


def minor(m, d, rows, cols):
    """Coefficients (n, 3) of det sigma(eta)[rows, cols], and the sums of |terms| beside them."""
    a_rows, a_cols = (sum(i < 2 for i in idx) for idx in (rows, cols))  # A's quadratures
    coef = np.zeros((m.shape[0], 3))
    scale = np.zeros((m.shape[0], 3))
    for k in itertools.combinations(range(8), len(rows)):
        j = sum(c in VACUUM for c in k)
        if j > min(a_rows, a_cols):
            continue  # only A's rows reach the vacuum columns: the term is 0
        sub = m[:, :, k]
        term = np.linalg.det(sub[:, rows]) * np.linalg.det(sub[:, cols]) * d[:, k].prod(axis=1)
        lift = np.array(LIFT[((a_rows + a_cols) // 2 - j, j)], dtype=float)
        coef += term[:, None] * lift
        scale += np.abs(term)[:, None] * lift
    return coef, scale


def q_coefficients(m, d, label):
    """Coefficients of q in the basis eta^2, eta (1 - eta), (1 - eta)^2, with round-off at 0."""
    x, y = label.split("->")
    if label in PRODUCT_FORM:
        # det sigma_X (1 - Delta + det S), S the conditional of Y = ac: det sigma_X
        # times det S_aa, det S_cc, det S_ac and det S are minors of sigma
        a, c = y
        terms = [(1.0, x, x), (-1.0, x + a, x + a), (-1.0, x + c, x + c),
                 (-2.0, x + a, x + c), (1.0, x + y, x + y)]
    else:
        terms = [(1.0, x, x), (-1.0, x + y, x + y)]
    coef, scale = 0.0, 0.0
    for sign, rows, cols in terms:
        c_term, s_term = minor(m, d, quadratures(rows), quadratures(cols))
        coef, scale = coef + sign * c_term, scale + s_term
    return np.where(np.abs(coef) <= 1e-12 * scale, 0.0, coef), scale


def power_form(coef):
    """(eta^2, eta, 1) coefficients of a eta^2 + b eta (1 - eta) + c (1 - eta)^2."""
    a, b, c = coef
    return np.array([a - b + c, b - 2 * c, c])


def oracle_threshold(coef):
    """The one root in (0, 1) where q changes sign, or None."""
    poly = power_form(coef)
    if not poly.any():
        return None
    roots = np.roots(poly)
    inside = sorted(root.real for root in roots if root.imag == 0 and 0 < root.real < 1)
    cuts = [0.0, *inside, 1.0]
    signs = [np.polyval(poly, 0.5 * (lo + hi)) > 0 for lo, hi in zip(cuts, cuts[1:])]
    switches = [root for k, root in enumerate(inside) if signs[k] != signs[k + 1]]
    return switches[0] if len(switches) == 1 else None


@pytest.fixture(scope="module")
def oracle():
    m, d = network(CONFIGS)
    return {label: q_coefficients(m, d, label) for label in DIRECTIONS}


def threshold_or_none(config, label):
    try:
        return find_threshold(GhzConfig(*config), label, tol=1e-6)
    except ValueError as exc:
        assert str(exc) == f"no threshold in range for direction {label!r}"
        return None


def test_the_network_is_the_packages_state():
    m, d = network(CONFIGS[:40])
    for eta in (0.0, 0.3, 1.0):
        weight = np.ones(8)
        weight[:6], weight[6:] = math.sqrt(eta), math.sqrt(1 - eta)
        m_eta = m.copy()
        m_eta[:, :2] *= weight
        sigma = m_eta * d[:, None, :] @ np.swapaxes(m_eta, 1, 2)
        built = np.array([build_states(GhzConfig(*config), [eta])[0] for config in CONFIGS[:40]])
        assert np.abs(sigma - built).max() <= 1e-12 * np.abs(built).max()


def test_minors_match_the_determinants_of_the_state():
    m, d = network(CONFIGS[:40])
    states = np.array([build_states(GhzConfig(*config), [0.0, 0.25, 0.5, 1.0])
                       for config in CONFIGS[:40]])
    for rows, cols in [("A", "A"), ("AB", "AB"), ("BC", "BC"), ("ABC", "ABC"), ("BA", "BC")]:
        coef, _ = minor(m, d, quadratures(rows), quadratures(cols))
        ri, ci = quadratures(rows), quadratures(cols)
        for k, eta in enumerate((0.0, 0.25, 0.5, 1.0)):
            want = np.linalg.det(states[:, k][:, ri][:, :, ci])
            got = coef @ [eta**2, eta * (1 - eta), (1 - eta)**2]
            assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("label", LOG_DET)
def test_log_det_thresholds_match_the_oracle(oracle, label):
    coef, _ = oracle[label]
    for config, c in zip(CONFIGS, coef):
        want, got = oracle_threshold(c), threshold_or_none(config, label)
        assert (want is None) == (got is None), (config, want, got)
        if want is not None:
            assert abs(got - want) <= 1e-9, (config, want, got)


@pytest.mark.parametrize("label", PRODUCT_FORM)
def test_product_form_directions_never_switch_inside(oracle, label):
    # q vanishes at eta = 0 (A is vacuum, one conditional nu is 1) and at
    # eta = 1 (the state is pure, again one nu is 1), so it is a multiple of
    # eta (1 - eta): no root inside, and neither end is a threshold
    coef, scale = oracle[label]
    assert np.all(np.abs(coef[:, [0, 2]]) <= 1e-8 * scale.max(axis=1, keepdims=True))
    assert not any(coef[:, 1] == 0)
    for config in CONFIGS:
        assert threshold_or_none(config, label) is None


def test_the_random_set_covers_every_kind_of_root(oracle):
    kinds = set()
    for label in LOG_DET:
        for c in oracle[label][0]:
            roots = np.roots(power_form(c))
            real = [root.real for root in roots if root.imag == 0]
            inside = [root for root in real if 0 < root < 1]
            if oracle_threshold(c) is None:
                kinds.add("none")
            elif c[2] == 0:
                kinds.add("second root at eta = 0")
            elif len(real) == 2 and len(inside) == 1:
                kinds.add("second root outside [0, 1]")
            elif len(real) == 1:
                kinds.add("linear")
    assert kinds >= {"none", "second root at eta = 0", "second root outside [0, 1]"}


def test_the_threshold_costs_one_kernel_call(monkeypatch):
    calls = []
    conditionals = steering._conditionals

    def spy(states):
        calls.append(np.array(states))
        return conditionals(states)

    monkeypatch.setattr(steering, "_conditionals", spy)
    config = GhzConfig(r1=1.2, r2=0.4, r3=2.5, t1=0.3, t2=0.8)
    assert abs(find_threshold(config, "A->BC") - 0.5) <= 1e-12
    assert len(calls) == 1
    assert np.array_equal(calls[0], build_states(config, [0.0, 0.5, 1.0]))
