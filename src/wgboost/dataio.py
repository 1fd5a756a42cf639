"""CSV reading and writing for the command-line interface.

Input tables are plain comma-separated UTF-8 with a header row.  Output CSVs
carry a header row and end with one metadata comment line holding the master
seed and the format version, so every artifact records how it was produced.
All writes go to a temp file first and are renamed into place.
"""

from __future__ import annotations

import contextlib
import csv
import os

import numpy as np

from .errors import DataError

#: The version written into every model file and CSV trailer.
FORMAT_VERSION = 1


def read_table(
    path: str | os.PathLike,
    label_column: str | None = None,
    feature_columns: list[str] | None = None,
):
    """Read features and (optionally) a raw label column.

    Returns (X, labels, feature_names) where labels is a list of raw strings
    (None when no label column is requested).  Feature values must parse as
    floats; a failure names the offending row and column.
    """
    path = os.fspath(path)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise DataError(f"cannot open {path}: {err}") from err
    with fh:
        reader = _csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        if label_column is not None and label_column not in header:
            raise DataError(f"{path} has no column named {label_column!r}")
        if feature_columns is None:
            feature_columns = [h for h in header if h != label_column]
        missing = [c for c in feature_columns if c not in header]
        if missing:
            raise DataError(f"{path} lacks feature columns {missing}")
        feat_idx = [header.index(c) for c in feature_columns]
        label_idx = header.index(label_column) if label_column is not None else None

        rows: list[list[float]] = []
        labels: list[str] | None = [] if label_column is not None else None
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # ignore blank lines
            if row and row[0].lstrip().startswith("#"):
                continue  # ignore comment/metadata lines
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([float(row[i]) for i in feat_idx])
            except ValueError:
                bad = next(i for i in feat_idx if not _is_float(row[i]))
                raise DataError(
                    f"{path}:{lineno}: non-numeric value {row[bad]!r} in column {header[bad]!r}"
                ) from None
            if labels is not None:
                labels.append(row[label_idx].strip())
    if not rows:
        raise DataError(f"{path} contains no data rows")
    X = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(X)):
        raise DataError(f"{path} contains non-finite feature values")
    return X, labels, feature_columns


def _csv_rows(fh, path: str):
    """The rows of ``csv.reader(fh)``, with undecodable bytes and csv faults as DataError."""
    try:
        yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as err:  # csv.Error: e.g. a field over csv's size limit
        raise DataError(f"{path} is not a readable UTF-8 CSV table: {err}") from None


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def parse_regression_labels(labels: list[str], path: str) -> np.ndarray:
    out = np.empty(len(labels))
    for i, s in enumerate(labels):
        try:
            out[i] = float(s)
        except ValueError:
            raise DataError(f"{path}: non-numeric response {s!r} on data row {i + 1}") from None
    if not np.all(np.isfinite(out)):
        raise DataError(f"{path}: responses contain non-finite values")
    return out


def encode_class_labels(labels: list[str]) -> tuple[np.ndarray, list[str]]:
    """Map raw labels to integers 1..k by sorted distinct value."""
    values = sorted(set(labels))
    if len(values) < 2:
        raise DataError(f"need at least two distinct class labels, found {values}")
    index = {v: i + 1 for i, v in enumerate(values)}
    return np.asarray([index[s] for s in labels], dtype=np.int64), values


def apply_class_labels(labels: list[str], values: list[str], path: str) -> np.ndarray:
    index = {v: i + 1 for i, v in enumerate(values)}
    out = np.empty(len(labels), dtype=np.int64)
    for i, s in enumerate(labels):
        if s not in index:
            raise DataError(f"{path}: unknown class label {s!r} on data row {i + 1}")
        out[i] = index[s]
    return out


@contextlib.contextmanager
def atomic_file(path: str | os.PathLike):
    """A text file to write ``path`` through: a temp file next to it, renamed
    into place when the block ends, and removed instead if the block fails."""
    path = os.fspath(path)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str | os.PathLike, header: list[str], rows, seed: int) -> None:
    """Write rows (arrays, sequences or dicts matching the header) plus the metadata trailer.

    ``csv.writer`` writes each cell's ``str`` (a float's repr, None as an empty cell) and quotes
    labels that hold a comma or a quote.  An array row goes as ``.tolist()``: Python numbers,
    exact even for float32, where a np.float32 cell would be written in float32's digits.
    """
    with atomic_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(row.tolist() if isinstance(row, np.ndarray) else
                         [row.get(h, "") for h in header] if isinstance(row, dict) else row
                         for row in rows)
        fh.write(f"# seed={seed} format_version={FORMAT_VERSION}\n")
