"""Each benchmark check accepts a consistent output and rejects a perturbed one.

    python3 -m pytest wgbench/test_checks.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


@pytest.fixture()
def regression():
    """Responses y ~ N(x, 0.5) and particles scattered around the truth."""
    rng = np.random.default_rng(0)
    x_train, x_test = rng.normal(size=400), rng.normal(size=300)
    y_train = x_train + 0.5 * rng.normal(size=400)
    y_test = x_test + 0.5 * rng.normal(size=300)
    mu, sd = y_train.mean(), y_train.std()
    loc = (x_test - mu) / sd
    particles = np.stack(
        [loc[:, None] + 0.05 * rng.normal(size=(300, 10)),
         np.full((300, 10), math.log(0.5 / sd)) + 0.05 * rng.normal(size=(300, 10))],
        axis=-1,
    )
    oracle = checks.gaussian_nll(y_test, x_test, 0.5)
    return particles, y_test, y_train, oracle


def run_regression(particles, y_test, y_train, oracle, nll=None, log_rows=20):
    if nll is None:
        nll = checks.mixture_nll(particles, y_test, y_train)
    return checks.check_regression(particles, y_test, y_train, nll, oracle, log_rows, 20)


def test_mixture_nll_matches_direct_sum():
    p = np.array([[[0.0, 0.0], [1.0, math.log(2.0)]]])
    y_train = np.array([-1.0, 1.0])  # mean 0, sd 1
    dens = 0.5 * (math.exp(-0.5 * 0.3**2) / math.sqrt(2 * math.pi)
                  + math.exp(-0.5 * (0.7 / 2) ** 2) / (2 * math.sqrt(2 * math.pi)))
    assert checks.mixture_nll(p, np.array([0.3]), y_train) == pytest.approx(-math.log(dens), rel=1e-12)


def test_regression_accepts_consistent_output(regression):
    particles, y_test, y_train, oracle = regression
    nll = run_regression(particles, y_test, y_train, oracle)
    assert oracle < nll < checks.gaussian_nll(y_test, y_train.mean(), y_train.std())


def test_regression_rejects_evaluate_disagreement(regression):
    particles, y_test, y_train, oracle = regression
    nll = checks.mixture_nll(particles, y_test, y_train)
    with pytest.raises(CheckError, match="round-off"):
        run_regression(particles, y_test, y_train, oracle, nll=nll * (1 + 1e-6))


def test_regression_rejects_shifted_particles(regression):
    particles, y_test, y_train, oracle = regression
    shifted = particles.copy()
    shifted[..., 0] += 3.0
    with pytest.raises(CheckError, match="outside"):
        run_regression(shifted, y_test, y_train, oracle)


def test_regression_rejects_nll_below_oracle(regression):
    particles, y_test, y_train, oracle = regression
    with pytest.raises(CheckError, match="outside"):
        run_regression(particles, y_test, y_train, oracle + 1.0)


def test_regression_rejects_non_finite_particle(regression):
    particles, y_test, y_train, oracle = regression
    bad = particles.copy()
    bad[7, 3, 1] = np.nan
    with pytest.raises(CheckError, match="finite"):
        run_regression(bad, y_test, y_train, oracle)


def test_regression_rejects_short_log(regression):
    with pytest.raises(CheckError, match="log"):
        run_regression(*regression, log_rows=19)


@pytest.fixture()
def classification():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(500, 3)) * 1.5
    true = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    labels = (rng.random(500)[:, None] > np.cumsum(true, axis=1)).sum(axis=1).clip(0, 2)
    y_train = rng.integers(0, 3, 600)
    probs = 0.9 * true + 0.1 / 3
    oracle = float(-np.mean(np.log(true[np.arange(500), labels])))
    return probs, labels, y_train, oracle


def run_classification(probs, labels, y_train, oracle, nll=None):
    if nll is None:
        nll = float(-np.mean(np.log(probs[np.arange(len(labels)), labels])))
    return checks.check_classification(probs, labels, y_train, nll, oracle, 3)


def test_classification_accepts_consistent_output(classification):
    run_classification(*classification)


def test_classification_rejects_evaluate_disagreement(classification):
    probs, labels, y_train, oracle = classification
    nll = float(-np.mean(np.log(probs[np.arange(len(labels)), labels])))
    with pytest.raises(CheckError, match="round-off"):
        run_classification(probs, labels, y_train, oracle, nll=nll + 1e-6)


def test_classification_rejects_unnormalized_probabilities(classification):
    probs, labels, y_train, oracle = classification
    bad = probs.copy()
    bad[11, 0] += 1e-6
    with pytest.raises(CheckError, match="sum to 1"):
        run_classification(bad, labels, y_train, oracle)


def test_classification_rejects_prior_level_fit(classification):
    probs, labels, y_train, oracle = classification
    freq = np.bincount(y_train, minlength=3) / len(y_train)
    with pytest.raises(CheckError, match="outside"):
        run_classification(np.tile(freq, (len(labels), 1)), labels, y_train, oracle)


def test_early_stopping_takes_first_argmin():
    curve = np.array([1.0, 0.8, 0.7, 0.7, 0.9])
    checks.check_early_stopping(curve, 2, 4)
    with pytest.raises(CheckError, match="minimum"):
        checks.check_early_stopping(curve, 3, 4)
    with pytest.raises(CheckError, match="rows"):
        checks.check_early_stopping(curve[:-1], 2, 4)


def stump(feature, threshold, low, high):
    return {"n_features": 2, "nodes": [
        {"feature": feature, "threshold": threshold, "left": 1, "right": 2},
        {"value": list(low)}, {"value": list(high)}]}


@pytest.fixture()
def served():
    doc = {
        "config": {"learning_rate": 0.5},
        "init_particles": [[0.0, 1.0], [2.0, 3.0]],
        "ensembles": [
            [stump(0, 0.0, [1.0, 0.0], [-1.0, 0.0]), stump(1, 1.0, [0.0, 2.0], [0.0, -2.0])],
            [stump(1, 0.0, [4.0, 4.0], [8.0, 8.0]), stump(0, 5.0, [2.0, 2.0], [0.0, 0.0])],
        ],
    }
    X = np.array([[-1.0, 0.5], [1.0, 2.0], [0.0, 0.0]])
    return doc, X


def test_json_replay_routes_rows_by_hand(served):
    doc, X = served
    want = np.array([
        [[0.5, 2.0], [7.0, 8.0]],   # x0 <= 0, x1 <= 1; x1 > 0, x0 <= 5
        [[-0.5, 0.0], [7.0, 8.0]],  # x0 > 0, x1 > 1; x1 > 0, x0 <= 5
        [[0.5, 2.0], [5.0, 6.0]],   # x0 <= 0, x1 <= 1; x1 <= 0, x0 <= 5
    ])
    np.testing.assert_array_equal(checks.json_predict(doc, X), want)


def test_replay_rejects_perturbed_batch(served):
    doc, X = served
    batch = checks.json_predict(doc, X)
    checks.check_replay(batch, checks.json_predict(doc, X))
    bad = batch.copy()
    bad[2, 1, 0] += 1e-6
    with pytest.raises(CheckError, match="replay"):
        checks.check_replay(bad, checks.json_predict(doc, X))


def test_singles_reject_perturbed_row(served):
    doc, X = served
    batch = checks.json_predict(doc, X)
    singles = [batch[0].copy(), batch[1].copy()]
    checks.check_singles(batch, singles)
    singles[1][0, 1] += 1e-6
    with pytest.raises(CheckError, match="row 1"):
        checks.check_singles(batch, singles)


def test_class_probs_average_particle_softmax():
    q = np.array([[[0.0, 0.0], [math.log(2.0), 0.0]]])  # (1, N=2, k-1=2)
    want = 0.5 * (np.array([1, 1, 1]) / 3 + np.array([2, 1, 1]) / 4)
    np.testing.assert_allclose(checks.class_probs(q), [want], rtol=1e-12)


def test_particle_columns_reads_predict_layout(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "prediction,particle_1_0,particle_1_1,particle_2_0,particle_2_1\n"
        "9.0,1.0,2.0,3.0,4.0\n9.0,5.0,6.0,7.0,8.0\n# seed=7 format_version=1\n"
    )
    got = checks.particle_columns(str(path))
    np.testing.assert_array_equal(got, np.arange(1.0, 9.0).reshape(2, 2, 2))
