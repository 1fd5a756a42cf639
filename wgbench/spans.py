"""Spans around the names each wgboost layer is entered through.

The tracer swaps module attributes for timing wrappers while it is active and
puts the originals back when it closes; nothing under ``src/`` changes.  Each
wrapped call appends one span ``(layer, start, end, thread, n1, n2)`` to an
in-memory list (``list.append`` is atomic, so tree fits on the CLI's worker
threads record safely).  The per-layer figures are computed from the spans at
the end and the spans are written out as CSV.
"""

from __future__ import annotations

import csv
import os
import threading
import time

import wgboost.boosting
import wgboost.cli
import wgboost.dataio
from wgboost.boosting import WGBoostModel
from wgboost.tree import RegressionTree

#: Every per-layer metric and its unit, in report order.
LAYER_METRICS = {
    "directions.init_s": "s",
    "directions.init_calls": "count",
    "directions.boost_s": "s",
    "directions.boost_calls": "count",
    "directions.boost_rows": "count",
    "tree.fit_busy_s": "s",
    "tree.fit_wall_s": "s",
    "tree.fit_calls": "count",
    "tree.fit_rows": "count",
    "tree.nodes": "count",
    "tree.predict_s": "s",
    "tree.predict_calls": "count",
    "tree.predict_rows": "count",
    "boosting.loop_self_s": "s",
    "boosting.predict_s": "s",
    "boosting.predict_calls": "count",
    "boosting.predict_rows": "count",
    "boosting.save_s": "s",
    "boosting.save_bytes": "bytes",
    "boosting.load_s": "s",
    "boosting.load_bytes": "bytes",
    "evaluate.val_nll_s": "s",
    "evaluate.val_nll_calls": "count",
    "dataio.read_s": "s",
    "dataio.read_rows": "count",
    "dataio.write_s": "s",
    "dataio.write_rows": "count",
    "cli.self_s": "s",
    "trace.untraced_round_s": "s",
    "trace.overhead_s": "s",
}

# Layers whose time is subtracted from a boosting fit to leave its own loop time.
_FIT_CHILDREN = ("directions.init", "directions.boost", "tree.fit", "tree.predict", "evaluate.val_nll")


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a) if hasattr(a, "__len__") else 0
    return 1 if len(shape) < 2 else int(shape[0])


class Tracer:
    """Records spans while active (``with Tracer() as t:``)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._saved: list[tuple] = []

    def span(self, layer: str, start: float, end: float, n1: int = 0, n2: int = 0) -> None:
        self.spans.append((layer, start, end, threading.get_ident(), n1, n2))

    def _wrap(self, owner, attr: str, layer, counts) -> None:
        """Replace ``owner.attr`` by a wrapper recording ``layer`` per call.

        ``layer`` is a name or a function of the call's arguments giving one;
        ``counts(args, result)`` gives the span's two counts.
        """
        orig = owner.__dict__[attr]
        self._saved.append((owner, attr, orig))

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            t1 = time.perf_counter()
            name = layer(args) if callable(layer) else layer
            self.span(name, t0, t1, *counts(args, out))
            return out

        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        b, cli, dio = wgboost.boosting, wgboost.cli, wgboost.dataio
        # theta is (N, d) in the initializer and (D, N, d) in boosting
        self._wrap(
            b, "compute_direction",
            lambda a: "directions.init" if a[1].ndim == 2 else "directions.boost",
            lambda a, out: (_rows(a[1]) if a[1].ndim == 3 else 0, 0),
        )
        self._wrap(b, "fit_tree", "tree.fit", lambda a, out: (_rows(a[0]), out.n_nodes))
        for name in ("predictive_nll_normal", "predictive_nll_categorical"):
            self._wrap(b, name, "evaluate.val_nll", lambda a, out: (0, 0))
        self._wrap(RegressionTree, "predict", "tree.predict", lambda a, out: (_rows(a[1]), 0))
        self._wrap(WGBoostModel, "predict", "boosting.predict", lambda a, out: (_rows(a[1]), 0))
        for name in ("fit", "fit_with_early_stopping"):
            self._wrap(cli, name, "boosting.fit", lambda a, out: (0, 0))
        self._wrap(cli, "save_model", "boosting.save", lambda a, out: (os.path.getsize(a[1]), 0))
        for owner in (cli, b):
            self._wrap(owner, "load_model", "boosting.load", lambda a, out: (os.path.getsize(a[0]), 0))
        self._wrap(dio, "read_table", "dataio.read", lambda a, out: (_rows(out[0]), 0))
        self._wrap(dio, "write_csv", "dataio.write", lambda a, out: (_rows(a[2]), 0))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["layer", "start", "end", "thread", "n1", "n2"])
            w.writerows(self.spans)

    def layer_metrics(self) -> dict[str, float]:
        """Totals per layer, plus the self times of fits and CLI calls."""
        by: dict[str, list[tuple]] = {}
        for s in self.spans:
            by.setdefault(s[0], []).append(s)

        def total(layer):
            return sum(s[2] - s[1] for s in by.get(layer, ()))

        def count(layer, k=None):
            return sum(1 if k is None else s[k] for s in by.get(layer, ()))

        def self_time(parent, children):
            kids = [s for c in children for s in by.get(c, ())]
            return sum(
                (p[2] - p[1]) - _covered(p[1], p[2], kids) for p in by.get(parent, ())
            )

        fits = by.get("tree.fit", ())
        return {
            "directions.init_s": total("directions.init"),
            "directions.init_calls": count("directions.init"),
            "directions.boost_s": total("directions.boost"),
            "directions.boost_calls": count("directions.boost"),
            "directions.boost_rows": count("directions.boost", 4),
            "tree.fit_busy_s": total("tree.fit"),
            "tree.fit_wall_s": _covered(float("-inf"), float("inf"), fits),
            "tree.fit_calls": count("tree.fit"),
            "tree.fit_rows": count("tree.fit", 4),
            "tree.nodes": count("tree.fit", 5),
            "tree.predict_s": total("tree.predict"),
            "tree.predict_calls": count("tree.predict"),
            "tree.predict_rows": count("tree.predict", 4),
            "boosting.loop_self_s": self_time("boosting.fit", _FIT_CHILDREN),
            "boosting.predict_s": total("boosting.predict"),
            "boosting.predict_calls": count("boosting.predict"),
            "boosting.predict_rows": count("boosting.predict", 4),
            "boosting.save_s": total("boosting.save"),
            "boosting.save_bytes": count("boosting.save", 4),
            "boosting.load_s": total("boosting.load"),
            "boosting.load_bytes": count("boosting.load", 4),
            "evaluate.val_nll_s": total("evaluate.val_nll"),
            "evaluate.val_nll_calls": count("evaluate.val_nll"),
            "dataio.read_s": total("dataio.read"),
            "dataio.read_rows": count("dataio.read", 4),
            "dataio.write_s": total("dataio.write"),
            "dataio.write_rows": count("dataio.write", 4),
            "cli.self_s": self_time("cli", [k for k in by if k != "cli"]),
        }


def _covered(lo: float, hi: float, spans) -> float:
    """Length of [lo, hi] covered by the union of the spans' intervals."""
    cut = sorted((max(s[1], lo), min(s[2], hi)) for s in spans if s[2] > lo and s[1] < hi)
    covered, end = 0.0, float("-inf")
    for a, b in cut:
        if b > end:
            covered += b - max(a, end)
            end = b
    return covered
