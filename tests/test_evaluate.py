import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import logsumexp, ndtr, ndtri

from wgboost.evaluate import (
    _logsumexp,
    NormalRef,
    Standardization,
    classification_accuracy,
    mmd_squared,
    ood_score,
    point_predictions,
    point_predict_rmse,
    pr_auc,
    predicted_class,
    predictive_class_probs,
    predictive_interval_normal,
    predictive_nll_categorical,
    predictive_nll_normal,
)

HALF_LOG_2PI = 0.9189385332046727  # -log pdf of N(0,1) at 0, by hand


# -------------------------------------------------------------- regression


def test_nll_single_standard_normal_particle():
    particles = np.array([[[0.0, 0.0]]])  # one point, one particle (m=0, s=0)
    assert predictive_nll_normal(particles, np.array([0.0])) == pytest.approx(
        HALF_LOG_2PI, rel=1e-12
    )


def raw_mixture_nll(particles, y, std):
    """Oracle: work entirely in raw units, no de-standardization identity."""
    total = 0.0
    for i in range(len(y)):
        means = std.y_mean + std.y_std * particles[i, :, 0]
        sds = std.y_std * np.exp(particles[i, :, 1])
        pdf = np.mean(np.exp(-0.5 * ((y[i] - means) / sds) ** 2) / (sds * np.sqrt(2 * np.pi)))
        total += -np.log(pdf)
    return total / len(y)


def test_nll_destandardization_identity():
    """NLL_raw = NLL_std + log y_std, checked against a raw-space oracle."""
    rng = np.random.default_rng(10)
    particles = rng.normal(size=(30, 5, 2)) * 0.5
    y = rng.normal(loc=3.0, scale=2.0, size=30)
    std = Standardization(y_mean=3.1, y_std=1.9)
    got = predictive_nll_normal(particles, y, std)
    assert got == pytest.approx(raw_mixture_nll(particles, y, std), rel=1e-10)


def test_point_predictions_and_rmse():
    rng = np.random.default_rng(2)
    particles = rng.normal(size=(20, 6, 2))
    y = rng.normal(size=20)
    std = Standardization(y_mean=-1.0, y_std=2.5)
    pred = point_predictions(particles, std)
    assert np.allclose(pred, -1.0 + 2.5 * particles[..., 0].mean(axis=1))
    want = float(np.sqrt(np.mean((pred - y) ** 2)))
    assert point_predict_rmse(particles, y, std) == pytest.approx(want, rel=1e-12)


def test_interval_single_particle_closed_form():
    particles = np.array([[[0.0, 0.0]]])
    lo, hi = predictive_interval_normal(particles, level=0.95)
    q = ndtri(0.975)
    assert lo[0] == pytest.approx(-q, abs=1e-9)
    assert hi[0] == pytest.approx(q, abs=1e-9)
    # de-standardization shifts and scales the band
    std = Standardization(y_mean=4.0, y_std=3.0)
    lo2, hi2 = predictive_interval_normal(particles, std, level=0.95)
    assert lo2[0] == pytest.approx(4.0 - 3.0 * q, abs=1e-8)
    assert hi2[0] == pytest.approx(4.0 + 3.0 * q, abs=1e-8)


def test_interval_mixture_mass():
    """The reported band holds the requested mixture mass (Monte Carlo check)."""
    rng = np.random.default_rng(31)
    particles = rng.normal(size=(1, 4, 2))
    lo, hi = predictive_interval_normal(particles, level=0.9)
    comp = rng.integers(0, 4, size=200_000)
    draws = particles[0, comp, 0] + np.exp(particles[0, comp, 1]) * rng.standard_normal(200_000)
    inside = np.mean((draws >= lo[0]) & (draws <= hi[0]))
    assert inside == pytest.approx(0.9, abs=5e-3)


def test_interval_rejects_bad_level():
    with pytest.raises(ValueError):
        predictive_interval_normal(np.zeros((1, 1, 2)), level=1.0)


def test_logsumexp_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(8)
    for trial in range(300):
        a = np.round(rng.normal(size=(4, rng.integers(1, 9))) * rng.choice([1.0, 30.0, 800.0]),
                     rng.integers(0, 2))  # rounding makes ties, among them tied maxima
        a[rng.random(a.shape) < 0.2] = -np.inf
        a[0] = -np.inf
        if trial % 3 == 0:
            a[1, 0] = np.inf
        want = logsumexp(a, axis=-1)
        assert np.array_equal(_logsumexp(a), want, equal_nan=True)
        assert _logsumexp(a)[0] == -np.inf
    ties = np.array([[2.0, 2.0, 2.0], [-1.0, 5.0, 5.0]])
    assert np.array_equal(_logsumexp(ties), logsumexp(ties, axis=-1))


def test_all_minus_inf_components_give_infinite_nll_not_nan():
    particles = np.array([[[0.0, -400.0]], [[0.0, 0.0]]])  # the first density underflows to 0
    with np.errstate(over="ignore"):
        assert predictive_nll_normal(particles[:1], np.array([1.0])) == np.inf
        assert predictive_nll_normal(particles, np.array([1.0, 1.0])) == np.inf


def test_overflowing_residual_gives_infinite_nll_without_a_warning():
    # the residual 1.0 * e^400 squares past the float range: that component's density is 0
    particles = np.array([[[0.0, -400.0], [0.0, 0.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert predictive_nll_normal(particles[:, :1], np.array([1.0])) == np.inf
        mixed = predictive_nll_normal(particles, np.array([1.0]))
    assert mixed == -((-0.5 * float(np.log(2.0 * np.pi)) - 0.5) - np.log(2.0))


def brentq_interval(particles, level):
    """Oracle: one pair of brentq root searches per row, on scipy's ndtr."""
    alpha = 0.5 * (1.0 - level)
    bounds = []
    for row in particles:
        m, sd = row[:, 0], np.exp(row[:, 1])
        a, b = np.min(m - 9.0 * sd), np.max(m + 9.0 * sd)
        cdf = lambda z, p: np.mean(ndtr((z - m) / sd)) - p
        bounds.append([brentq(cdf, a, b, args=(p,), xtol=1e-14, rtol=1e-15) for p in (alpha, 1 - alpha)])
    return np.array(bounds).T


@pytest.mark.parametrize("n", [1, 4, 10])
@pytest.mark.parametrize("level", [0.5, 0.9, 0.95])
def test_vectorized_interval_matches_a_per_row_brentq_oracle(n, level):
    rng = np.random.default_rng(n)
    # overlapping components (no flat stretch of the CDF at a quantile), moved and
    # scaled per row so that every row has its own bracket
    shape = rng.normal(size=(60, n, 2)) * [1.0, 0.3]
    shift = rng.uniform(-50, 50, size=(60, 1))
    scale = np.exp(rng.uniform(-4, 4, size=(60, 1)))
    particles = np.stack([shift + scale * shape[..., 0], np.log(scale) + shape[..., 1]], axis=-1)
    lo, hi = predictive_interval_normal(particles, level=level)
    want_lo, want_hi = brentq_interval(particles, level)
    tol = 1e-9 * scale[:, 0]
    assert np.all(np.abs(lo - want_lo) <= tol)
    assert np.all(np.abs(hi - want_hi) <= tol)
    assert np.all(lo < hi)


def test_interval_of_no_rows_is_two_empty_arrays():
    lo, hi = predictive_interval_normal(np.zeros((0, 5, 2)), level=0.9)
    assert lo.shape == hi.shape == (0,)


def test_standardization_round_trip_and_floor():
    std = Standardization.from_responses(np.array([1.0, 2.0, 3.0]))
    y = np.array([0.3, 9.7])
    assert np.allclose(std.destandardize(std.standardize(y)), y)
    assert Standardization(0.0, 0.0).y_std == 1e-8


# ----------------------------------------------------------- classification


def test_class_probs_and_prediction():
    # two particles at q' = 0 give probabilities (1/2, 1/2); ties resolve to
    # the lowest label
    particles = np.zeros((1, 2, 1))
    probs = predictive_class_probs(particles, 2)
    assert np.allclose(probs, [[0.5, 0.5]])
    assert predicted_class(particles, 2)[0] == 1
    assert predictive_nll_categorical(particles, np.array([2]), 2) == pytest.approx(np.log(2.0))


def test_zero_probability_of_the_true_class_is_an_infinite_nll_without_a_warning():
    particles = np.array([[[800.0]], [[0.0]]])  # row 0 gives class 2 probability exactly 0
    assert predictive_class_probs(particles, 2)[0, 1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert predictive_nll_categorical(particles, np.array([2, 1]), 2) == np.inf


def test_class_probs_sum_to_one():
    rng = np.random.default_rng(3)
    particles = rng.normal(size=(10, 5, 3))
    probs = predictive_class_probs(particles, 4)
    assert probs.shape == (10, 4)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_accuracy():
    particles = np.array([[[2.0]], [[-2.0]], [[2.0]]])  # favors class 1, 2, 1
    labels = np.array([1, 2, 2])
    assert classification_accuracy(particles, labels, 2) == pytest.approx(2 / 3)


def test_ood_score_examples():
    # two particles with simplex vectors (1, 0) and (0, 1): per-class
    # population variance 1/4, so the score is 4
    particles = np.array([[40.0], [-40.0]])
    assert ood_score(particles, 2) == pytest.approx(4.0, rel=1e-6)
    # identical particles agree exactly; the floor caps the score at 1e12
    same = np.zeros((5, 1))
    assert ood_score(same, 2) == pytest.approx(1e12)
    batch = np.stack([particles, np.zeros_like(particles)])
    got = ood_score(batch, 2)
    assert got.shape == (2,)
    assert got[0] == pytest.approx(4.0, rel=1e-6) and got[1] == pytest.approx(1e12)


# ------------------------------------------------------------------ pr_auc


def oracle_pr_auc(scores, labels):
    """Quadratic oracle: precision/recall at every distinct threshold."""
    labels = np.asarray(labels).astype(bool)
    n_pos = labels.sum()
    pts = []
    for thr in sorted(set(scores), reverse=True):
        kept = scores >= thr
        tp = int((labels & kept).sum())
        pts.append((tp / n_pos, tp / int(kept.sum())))
    auc = 0.0
    prev_r = 0.0
    for r, p in pts:
        auc += (r - prev_r) * p
        prev_r = r
    return auc


def test_pr_auc_matches_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(5, 60))
        scores = np.round(rng.normal(size=n), 1)  # force ties
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        assert pr_auc(scores, labels) == pytest.approx(
            oracle_pr_auc(scores, labels), abs=1e-12
        )


def test_pr_auc_edge_cases():
    # perfect separation
    assert pr_auc(np.array([3.0, 2.0, 1.0, 0.0]), np.array([1, 1, 0, 0])) == 1.0
    # all scores tied: precision is the prevalence at full recall
    assert pr_auc(np.ones(4), np.array([1, 0, 0, 1])) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        pr_auc(np.ones(3), np.array([1, 1, 1]))
    with pytest.raises(ValueError):
        pr_auc(np.ones(3), np.array([0, 0, 0]))


# -------------------------------------------------------------------- MMD


def test_mmd_self_is_zero():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(25, 1))
    assert abs(mmd_squared(a, a)) <= 1e-12


def test_mmd_symmetric_and_separates():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(40, 2))
    b = rng.normal(loc=2.0, size=(40, 2))
    ab = mmd_squared(a, b, scale=1.0)
    assert ab == pytest.approx(mmd_squared(b, a, scale=1.0), rel=1e-12)
    assert ab > mmd_squared(a, a + 0.01, scale=1.0)
    assert ab > 0


def test_mmd_closed_form_against_monte_carlo():
    """The NormalRef cross/self terms match brute-force sampling."""
    rng = np.random.default_rng(19)
    a = rng.normal(size=(12, 1))
    ref = NormalRef(mean=0.3, sd=0.8)
    h = 0.5
    draws = ref.mean + ref.sd * rng.standard_normal((400_000, 1))
    e_aa = np.mean(np.exp(-((a - a.T) ** 2) / h))
    e_ab = np.mean(np.exp(-((a[:, 0][:, None] - draws[:, 0][None, :5000]) ** 2) / h))
    t1, t2 = draws[:200_000, 0], draws[200_000:, 0]
    e_bb = np.mean(np.exp(-((t1 - t2) ** 2) / h))
    mc = e_aa - 2 * e_ab + e_bb
    assert mmd_squared(a, ref, scale=h) == pytest.approx(mc, abs=5e-3)


def test_mmd_validation():
    with pytest.raises(ValueError):
        mmd_squared(np.zeros((3, 2)), NormalRef(0.0, 1.0))
    with pytest.raises(ValueError):
        mmd_squared(np.zeros((3, 1)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        mmd_squared(np.zeros((3, 1)), np.zeros((3, 1)), scale=0.0)
    with pytest.raises(ValueError):
        NormalRef(0.0, -1.0)
