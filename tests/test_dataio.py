import numpy as np
import pytest

from wgboost.dataio import (
    apply_class_labels,
    encode_class_labels,
    parse_regression_labels,
    read_table,
    write_csv,
)
from wgboost.errors import DataError


def test_read_table_basic(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,y\n1,2,0.5\n3,4,1.5\n")
    X, labels, names = read_table(p, "y")
    assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
    assert labels == ["0.5", "1.5"]
    assert names == ["a", "b"]


def test_read_table_feature_subset_and_no_label(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,c\n1,2,3\n")
    X, labels, names = read_table(p, None, ["c", "a"])
    assert labels is None
    assert names == ["c", "a"]
    assert np.array_equal(X, [[3.0, 1.0]])


def test_read_table_skips_blanks_and_comments(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,y\n1,2\n\n# seed=0 format_version=1\n3,4\n")
    X, labels, _ = read_table(p, "y")
    assert np.array_equal(X, [[1.0], [3.0]])
    assert labels == ["2", "4"]


def test_read_table_errors_name_row_and_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n1\n")
    with pytest.raises(DataError, match=r"t\.csv:3"):
        read_table(p)
    p.write_text("a,b\n1,oops\n")
    with pytest.raises(DataError, match="'oops' in column 'b'"):
        read_table(p)
    p.write_text("a,b\n1,inf\n")
    with pytest.raises(DataError, match="non-finite"):
        read_table(p)
    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_table(p)
    p.write_text("a,b\n")
    with pytest.raises(DataError, match="no data rows"):
        read_table(p)
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="no column named 'z'"):
        read_table(p, "z")
    with pytest.raises(DataError, match="lacks feature columns"):
        read_table(p, None, ["q"])
    with pytest.raises(DataError, match="cannot open"):
        read_table(tmp_path / "nope.csv")


@pytest.mark.parametrize(
    "data, match",
    [(b"a,b\n1,2\n\xff,3\n", "codec can't decode"), (b"a,b\n1," + b"9" * 140_000 + b"\n", "field limit")],
    ids=["not-utf-8", "oversized-field"],
)
def test_unreadable_csv_is_a_data_error_naming_the_path(tmp_path, data, match):
    p = tmp_path / "t.csv"
    p.write_bytes(data)
    with pytest.raises(DataError, match=match) as err:
        read_table(p)
    assert str(p) in str(err.value)


def test_regression_label_parsing():
    assert np.allclose(parse_regression_labels(["1.5", "-2"], "f"), [1.5, -2.0])
    with pytest.raises(DataError, match="row 2"):
        parse_regression_labels(["1", "x"], "f")
    with pytest.raises(DataError, match="non-finite"):
        parse_regression_labels(["nan"], "f")


def test_class_label_encoding():
    codes, values = encode_class_labels(["b", "a", "b", "c"])
    assert values == ["a", "b", "c"]
    assert np.array_equal(codes, [2, 1, 2, 3])
    assert np.array_equal(apply_class_labels(["c", "a"], values, "f"), [3, 1])
    with pytest.raises(DataError, match="unknown class label 'z'"):
        apply_class_labels(["z"], values, "f")
    with pytest.raises(DataError, match="two distinct"):
        encode_class_labels(["a", "a"])


def test_write_csv_round_trips_floats(tmp_path):
    p = tmp_path / "out.csv"
    vals = [0.1 + 0.2, 1e-17, -3.5, np.float64(2.25)]
    write_csv(p, ["v"], [[v] for v in vals], seed=7)
    text = p.read_text()
    assert text.endswith("# seed=7 format_version=1\n")
    X, _, _ = read_table(p)
    assert np.array_equal(X[:, 0], np.asarray(vals, dtype=float))


def test_write_csv_dict_rows_fill_missing(tmp_path):
    p = tmp_path / "out.csv"
    write_csv(p, ["a", "b"], [{"a": 1}, {"a": 2, "b": True}], seed=0)
    lines = p.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,"
    assert lines[2] == "2,True"


#: Edge cells and the text write_csv gives each: floats as repr(float(v)),
#: ints and bools as str, None and "" empty, labels quoted where csv needs it.
EDGE_CELLS = [
    (-0.0, "-0.0"), (1e16, "1e+16"), (5e-324, "5e-324"), (float("inf"), "inf"),
    (float("-inf"), "-inf"), (float("nan"), "nan"), (0.1 + 0.2, "0.30000000000000004"),
    (np.float64(-0.0), "-0.0"), (np.float64(1e-5), "1e-05"), (7, "7"), (np.int64(-3), "-3"),
    (np.uint8(200), "200"), (np.True_, "True"), (np.False_, "False"), (True, "True"),
    (False, "False"), (None, ""), ("", ""), ("a,b", '"a,b"'), ('say "hi"', '"say ""hi"""'),
    ("plain", "plain"),
]
EDGE_ARRAYS = [
    (np.array([[-0.0, 1e16, 5e-324], [np.inf, -np.inf, np.nan]]),
     ["-0.0,1e+16,5e-324", "inf,-inf,nan"]),
    (np.array([[0.1, 1.5]], dtype=np.float32), ["0.10000000149011612,1.5"]),
    (np.array([[7, -3]]), ["7,-3"]),
    (np.array([[True, False]]), ["True,False"]),
]


def _csv_text(header, lines, seed):
    return "".join(f"{line}\r\n" for line in [header, *lines]) + f"# seed={seed} format_version=1\n"


@pytest.mark.parametrize("path_kind", ["list", "dict", "array"])
def test_write_csv_edge_cell_bytes(tmp_path, path_kind):
    p = tmp_path / "out.csv"
    if path_kind == "array":
        for rows, lines in EDGE_ARRAYS:
            write_csv(p, ["a", "b", "c"][:rows.shape[1]], rows, seed=4)
            header = ",".join(["a", "b", "c"][:rows.shape[1]])
            assert p.read_bytes() == _csv_text(header, lines, 4).encode()
        return
    header = [f"c{j}" for j in range(len(EDGE_CELLS))]
    cells = [v for v, _ in EDGE_CELLS]
    rows = [dict(zip(header, cells))] if path_kind == "dict" else [cells]
    write_csv(p, header, rows, seed=4)
    want = _csv_text(",".join(header), [",".join(text for _, text in EDGE_CELLS)], 4)
    assert p.read_bytes() == want.encode()


def test_write_csv_leaves_no_temp_on_failure(tmp_path):
    p = tmp_path / "out.csv"

    class Boom:
        def __str__(self):
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        write_csv(p, ["a"], [[Boom()]], seed=0)
    assert list(tmp_path.iterdir()) == []
