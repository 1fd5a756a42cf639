"""Acceptance gate: six checks, one [criterion N] PASS/FAIL/SKIP line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Checks 4 and 5 need benchmark CSVs (see README) under
$WGBOOST_DATA_DIR or ./data and skip when the files are absent; everything
else is self-contained.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import brentq

import wgboost as wg
from wgboost.boosting import init_particles
from wgboost.dataio import encode_class_labels, parse_regression_labels, read_table
from wgboost.directions import DirectionKind, compute_direction, diag_newton, full_newton, smoothed_grad
from wgboost.kernel import KernelConfig, kernel_eval, kernel_grad
from wgboost.synthetic import run_direction_bench
from wgboost.targets import CategoricalTarget, GaussianTarget, NormalLocationScaleTarget, from_simplex, to_simplex


@contextmanager
def criterion(n):
    started = time.perf_counter()
    try:
        yield
    except BaseException as err:
        if type(err).__name__ == "Skipped":
            print(f"[criterion {n}] SKIP ({err})")
        else:
            print(f"[criterion {n}] FAIL")
        raise
    print(f"[criterion {n}] PASS ({time.perf_counter() - started:.1f}s)")


def data_file(name):
    base = os.environ.get(
        "WGBOOST_DATA_DIR", os.path.join(os.path.dirname(__file__), os.pardir, "data")
    )
    path = os.path.join(base, f"{name}.csv")
    return path if os.path.exists(path) else None


# ---------------------------------------------------------------------------


def test_criterion_1_property_suite():
    """Derivative, degeneracy, invariance and determinism checks in under 30 s."""
    with criterion(1):
        started = time.perf_counter()
        rng = np.random.default_rng(0)

        # kernel gradient vs central differences, 1e-6 relative
        cfg = KernelConfig(0.1)
        for _ in range(20):
            a, b = rng.normal(scale=0.3, size=(2, 3))
            num = np.empty(3)
            for j in range(3):
                hi, lo = a.copy(), a.copy()
                hi[j] += 1e-6
                lo[j] -= 1e-6
                num[j] = (kernel_eval(hi, b, cfg) - kernel_eval(lo, b, cfg)) / 2e-6
            assert np.allclose(kernel_grad(a, b, cfg), num, rtol=1e-6, atol=1e-9)

        # target derivatives vs central differences, 1e-5
        def check_derivatives(t, theta):
            d = theta.size
            num_g = np.empty(d)
            num_h = np.empty((d, d))
            for j in range(d):
                hi, lo = theta.copy(), theta.copy()
                hi[j] += 1e-6
                lo[j] -= 1e-6
                num_g[j] = (t.log_density(hi) - t.log_density(lo)) / 2e-6
                num_h[:, j] = (t.log_grad(hi) - t.log_grad(lo)) / 2e-6
            assert np.allclose(t.log_grad(theta), num_g, rtol=1e-5, atol=1e-6)
            assert np.allclose(t.log_hess_full(theta), num_h, rtol=1e-5, atol=1e-5)
            assert np.allclose(t.log_hess_diag(theta), np.diagonal(num_h), rtol=1e-5, atol=1e-5)

        for _ in range(10):
            check_derivatives(NormalLocationScaleTarget(rng.normal()), rng.normal(size=2))
            check_derivatives(CategoricalTarget(int(rng.integers(1, 4)), 4), rng.normal(size=3))

        # N=1: smoothed gradient equals the raw score exactly
        for _ in range(10):
            t = NormalLocationScaleTarget(rng.normal())
            theta = rng.normal(size=(1, 2))
            assert np.array_equal(smoothed_grad(theta, t), t.log_grad(theta))

        # N=1, d=1: full Newton equals diagonal Newton within 1e-10
        for _ in range(10):
            t1 = GaussianTarget(rng.normal(), 0.5)
            theta = rng.normal(size=(1, 1))
            assert np.allclose(full_newton(theta, t1), diag_newton(theta, t1), atol=1e-10, rtol=0)

        # constant density rescaling leaves every direction bit-identical
        class Shifted:
            family = "shifted"

            def __init__(self, base):
                self._b = base

            dim = property(lambda self: self._b.dim)
            n_data = property(lambda self: self._b.n_data)

            def log_density(self, th):
                return self._b.log_density(th) + 55.5

            def derivatives(self, th, curvature=None):
                return self._b.derivatives(th, curvature)

            def take(self, idx):
                return Shifted(self._b.take(idx))

        base = NormalLocationScaleTarget(0.3)
        theta = rng.normal(size=(5, 2))
        for kind in DirectionKind:
            a = compute_direction(kind, theta, base, rate=0.1, rng=np.random.default_rng(9))
            b = compute_direction(kind, theta, Shifted(base), rate=0.1, rng=np.random.default_rng(9))
            assert np.array_equal(a, b)

        # simplex round trip within 1e-10
        q = rng.uniform(-20, 20, size=(50, 4))
        assert np.max(np.abs(from_simplex(to_simplex(q)) - q)) <= 1e-10

        # MMD of a set against itself within 1e-12
        a = rng.normal(size=(30, 1))
        assert abs(wg.mmd_squared(a, a)) <= 1e-12

        # PR-AUC against a quadratic threshold-enumeration oracle, 1e-12
        def oracle_pr_auc(scores, labels):
            labels = labels.astype(bool)
            auc, prev_r = 0.0, 0.0
            for thr in sorted(set(scores), reverse=True):
                kept = scores >= thr
                tp = int((labels & kept).sum())
                r, p = tp / labels.sum(), tp / kept.sum()
                auc += (r - prev_r) * p
                prev_r = r
            return auc

        for _ in range(20):
            scores = np.round(rng.normal(size=40), 1)
            labels = rng.integers(0, 2, size=40)
            if labels.sum() in (0, 40):
                continue
            assert wg.pr_auc(scores, labels) == pytest.approx(
                oracle_pr_auc(scores, labels), abs=1e-12
            )

        # save/load bit-exact predictions and same-seed determinism
        X = rng.normal(size=(40, 2))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=40)
        targets, std = wg.make_regression_targets(y)
        cfg = wg.BoostConfig(
            n_particles=4, max_iterations=6, init=wg.InitConfig(steps=50), seed=5
        )
        m1 = wg.fit(X, targets, cfg, standardization=std)
        m2 = wg.fit(X, targets, cfg, standardization=std)
        assert np.array_equal(m1.predict(X), m2.predict(X))
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            wg.save_model(m1, p1)
            wg.save_model(m2, p2)
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                assert f1.read() == f2.read()
            clone = wg.load_model(p1)
            assert np.array_equal(clone.predict(X), m1.predict(X))

        assert time.perf_counter() - started < 30.0


def test_criterion_2_direction_benchmark():
    """On the sin benchmark every estimator lowers the mean MMD, the Newton
    variants beat first-order at 100 learners, and full Newton costs the most
    wall clock."""
    with criterion(2):
        started = time.perf_counter()
        rows = run_direction_bench(iterations=100, checkpoints=(0, 10, 25, 50, 100), seed=0)
        at = {(r["direction"], r["weak_learners"]): r for r in rows}
        kinds = [k.value for k in DirectionKind]
        for k in kinds:
            assert at[(k, 100)]["mean_mmd"] < at[(k, 0)]["mean_mmd"], k
        first = at[("first-order", 100)]["mean_mmd"]
        assert at[("diag-newton", 100)]["mean_mmd"] <= first
        assert at[("full-newton", 100)]["mean_mmd"] <= first
        slowest = max(kinds, key=lambda k: at[(k, 100)]["wall_clock_s"])
        assert slowest == "full-newton"
        for k in kinds:
            if k != "full-newton":
                assert at[("full-newton", 100)]["wall_clock_s"] > at[(k, 100)]["wall_clock_s"]
        assert time.perf_counter() - started < 600.0


def test_criterion_3_sin_band_coverage():
    """95% predictive band on noisy sin data covers 90-99% of held-out points."""
    with criterion(3):
        started = time.perf_counter()
        rng = np.random.default_rng(1)

        def draw(n):
            x = rng.uniform(-3.5, 3.5, size=n)
            return x[:, None], np.sin(x) + np.sqrt(0.5) * rng.standard_normal(n)

        X, y = draw(500)
        X_test, y_test = draw(500)
        targets, std = wg.make_regression_targets(y)
        cfg = wg.BoostConfig(max_iterations=600, seed=1)
        model, _ = wg.fit_with_early_stopping(X, targets, cfg, 0.2, standardization=std)
        lo, hi = wg.predictive_interval_normal(model.predict(X_test), std, level=0.95)
        coverage = float(np.mean((y_test >= lo) & (y_test <= hi)))
        assert 0.90 <= coverage <= 0.99, f"coverage {coverage}"
        assert time.perf_counter() - started < 300.0


def test_criterion_4_uci_regression():
    """Benchmark regression (5 seeds, 90/10, early stopping): mean NLL within
    0.5 and RMSE within 1.0 of the reference scores."""
    refs = {"boston": (2.47, 2.78), "energy": (0.53, 0.42), "yacht": (0.16, 0.48)}
    with criterion(4):
        missing = [name for name in refs if data_file(name) is None]
        for name, (nll_ref, rmse_ref) in refs.items():
            path = data_file(name)
            if path is None:
                continue
            started = time.perf_counter()
            X, labels, _ = read_table(path, "y")
            y = parse_regression_labels(labels, path)
            n = X.shape[0]
            nlls, rmses = [], []
            for seed in range(5):
                perm = np.random.default_rng(seed).permutation(n)
                n_test = int(round(0.1 * n))
                test, train = perm[:n_test], perm[n_test:]
                targets, std = wg.make_regression_targets(y[train])
                cfg = wg.task_config("regression", seed=seed)  # nu=0.1, M<=4000, depth 3, N=10
                model, _ = wg.fit_with_early_stopping(
                    X[train], targets, cfg, 0.2, standardization=std
                )
                preds = model.predict(X[test])
                nlls.append(wg.predictive_nll_normal(preds, y[test], std))
                rmses.append(wg.point_predict_rmse(preds, y[test], std))
            nll, rmse = float(np.mean(nlls)), float(np.mean(rmses))
            print(f"  {name}: NLL {nll:.3f} (ref {nll_ref}), RMSE {rmse:.3f} (ref {rmse_ref})")
            assert abs(nll - nll_ref) <= 0.5, f"{name} NLL {nll}"
            assert abs(rmse - rmse_ref) <= 1.0, f"{name} RMSE {rmse}"
            assert time.perf_counter() - started < 900.0
        if missing:
            pytest.skip(f"missing data files: {', '.join(sorted(missing))}")


def test_criterion_5_segment_ood():
    """Segment with its last class held out: accuracy >= 94%, OOD PR-AUC >= 95%."""
    with criterion(5):
        path = data_file("segment")
        if path is None:
            pytest.skip("missing data file: segment")
        started = time.perf_counter()
        X, labels, _ = read_table(path, "class")
        codes, values = encode_class_labels(labels)
        k = len(values)
        is_ood = codes == k
        X_in, y_in = X[~is_ood], codes[~is_ood]
        X_ood = X[is_ood]
        n = X_in.shape[0]
        perm = np.random.default_rng(0).permutation(n)
        n_test = int(round(0.2 * n))
        test, train = perm[:n_test], perm[n_test:]
        targets = wg.make_classification_targets(y_in[train], k - 1)
        cfg = wg.task_config("classification", seed=0)  # nu=0.4, M=4000
        model = wg.fit(X_in[train], targets, cfg)
        preds_test = model.predict(X_in[test])
        acc = wg.classification_accuracy(preds_test, y_in[test], k - 1)
        scores_test = wg.ood_score(preds_test, k - 1)
        scores_ood = wg.ood_score(model.predict(X_ood), k - 1)
        scores = np.concatenate([scores_test, scores_ood])
        positives = np.concatenate([np.ones(len(scores_test)), np.zeros(len(scores_ood))])
        auc = wg.pr_auc(scores, positives)
        print(f"  segment: accuracy {100 * acc:.2f}%, OOD PR-AUC {100 * auc:.2f}%")
        assert acc >= 0.94
        assert auc >= 0.95
        assert time.perf_counter() - started < 1200.0


def test_criterion_6_initializer_finds_posterior_mode():
    """5000 averaged update steps at rate 0.01 land within 1e-2 of the mode
    located independently by 1-d root finding."""
    with criterion(6):
        started = time.perf_counter()

        def mode_oracle(y):
            # stationarity in the location gives m*(s) = y / (1 + 0.01 e^{2s});
            # substituting into the scale gradient leaves one equation in s
            def m_star(s):
                return y / (1.0 + 0.01 * np.exp(2.0 * s))

            def phi(s):
                return (
                    (y - m_star(s)) ** 2 * np.exp(-2.0 * s)
                    - 1.01
                    + 0.01 * np.exp(-s)
                )

            s = brentq(phi, -10.0, 5.0, xtol=1e-14)
            return np.array([m_star(s), s])

        for y in (0.0, 1.0, -2.0):
            target = NormalLocationScaleTarget(y)
            cfg = wg.BoostConfig(n_particles=1, seed=3)  # init: rate 0.01, 5000 steps
            theta = init_particles(target, cfg)[0]
            err = float(np.max(np.abs(theta - mode_oracle(y))))
            assert err <= 1e-2, f"y={y}: off by {err}"
        assert time.perf_counter() - started < 60.0
