import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hte.data import (
    Dataset,
    column_moments,
    counter3d_truth,
    default_scale,
    fit_standardizer,
    gen_counter3d,
    gen_sin16,
    _parse_fast,
    _parse_rows,
    load_csv,
    read_matrix,
    sin16_truth,
)
from hte.errors import ConfigError, DataError
from hte.rng import philox_generator


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            Dataset(np.array([[np.inf]]), np.array([1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.zeros(2))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((0, 2)), np.zeros(0))

    def test_rejects_no_feature_columns(self):
        with pytest.raises(DataError, match="d >= 1"):
            Dataset(np.zeros((3, 0)), np.zeros(3))


class TestLoadCsv:
    def test_header_and_named_target(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("a,b,t\n1,2,3\n4,5,6\n-1,0.5,2e-1\n")
        ds = load_csv(path, target="t")
        assert (ds.n, ds.d) == (3, 2)
        np.testing.assert_allclose(ds.y, [3.0, 6.0, 0.2])
        np.testing.assert_allclose(ds.X[2], [-1.0, 0.5])
        assert ds.feature_names == ["a", "b"]

    def test_nan_cell_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,t\n1,2\nNaN,4\n")
        with pytest.raises(DataError, match=r"row 3, column 1"):
            load_csv(path, target="t")

    def test_text_cell_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,t\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"'oops' at row 3, column 2"):
            load_csv(path, target="t")

    def test_headerless_with_index_target(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,10,0.5\n2,20,0.25\n")
        ds = load_csv(path, target=1, has_header=False)
        np.testing.assert_array_equal(ds.y, [10.0, 20.0])
        np.testing.assert_array_equal(ds.X, [[1.0, 0.5], [2.0, 0.25]])
        assert ds.feature_names is None

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="'t' not found"):
            load_csv(path, target="t")

    def test_target_index_out_of_range(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2\n")
        with pytest.raises(DataError, match="out of range"):
            load_csv(path, target=5, has_header=False)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, target=0, has_header=False)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,t\n1,2\n3\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path, target="t")

    # a plain file takes np.loadtxt's path, a quoted cell the csv.reader loop
    @pytest.mark.parametrize("quote", ["", '"'])
    @pytest.mark.parametrize("header,named", [("x1,x2", "header width 2 != row width 3"),
                                              ("x1,x2,x3,y", "header width 4 != row width 3")])
    def test_header_of_another_width_is_a_data_error(self, tmp_path, quote, header, named):
        path = tmp_path / "data.csv"
        path.write_text(f"{header}\n{quote}1{quote},2,3\n4,5,6\n")
        for load in (lambda: read_matrix(path, has_header=True),
                     lambda: load_csv(path, target="x2")):
            with pytest.raises(DataError, match=named):
                load()
        assert _parse_fast(path.read_text(), has_header=True) is None

    def test_named_target_requires_header(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2\n")
        with pytest.raises(ConfigError):
            load_csv(path, target="t", has_header=False)


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.6e}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["+.5", "-0", "1E5", "-1.5e+3", "5e-324", "1e-310", "0.1"]),
)
# spellings that csv.reader, float() or np.loadtxt each treat in their own way
_ODD_CELLS = st.sampled_from([
    "nan", "NaN", "inf", "-inf", "Infinity", "1e400", "1_0", "#", "#1", "1#2", "", "x", "1 2",
    "\u0663", "0x10", "\ufeff1", "1\x0c2", "3\u20284", '"1"', '" 2.5 "', '"1,5"', '"a""b"', '1"',
])
# str.splitlines() breaks lines at the last three, csv.reader does not
_PADS = st.sampled_from(["", " ", "\t", "\xa0", "  ", "\x0c", "\x85", "\u2028"])


@st.composite
def _csv_texts(draw):
    """CSV text and whether it has a header; some cells and lines are odd."""
    width = draw(st.integers(1, 4))
    odd_share = draw(st.sampled_from([0, 0, 0, 1, 5]))  # tenths of the cells
    endings = draw(st.sampled_from([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]]))
    has_header = draw(st.booleans())
    lines = []
    if has_header != (draw(st.integers(0, 9)) == 0):  # a header line, or one in ten not
        lines.append(",".join(draw(st.sampled_from(["a", " b ", "#c", '"d"', "e,f"]))
                              for _ in range(width)))
    messy = draw(st.booleans())  # whitespace-only lines, ragged rows, trailing commas
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:  # blank, or whitespace-only
            lines.append(draw(st.sampled_from(["", " ", "\t"] if messy else [""])))
            continue
        ragged = messy and draw(st.integers(0, 9)) == 0
        cells = width + (draw(st.sampled_from([-1, 1])) if ragged else 0)
        row = []
        for _ in range(max(cells, 1)):
            odd = draw(st.integers(0, 9)) < odd_share
            row.append(draw(_PADS) + draw(_ODD_CELLS if odd else _NUMBERS) + draw(_PADS))
        lines.append(",".join(row) + ("," if messy and draw(st.integers(0, 9)) == 0 else ""))
    text = "".join(line + draw(st.sampled_from(endings)) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, has_header


def _outcome(parse):
    """Header, shape and value bytes of a parse, or its error message."""
    try:
        values, header = parse()
    except DataError as exc:
        return "error", str(exc)
    return header, values.shape, values.tobytes()


class TestReadMatrix:
    """read_matrix equals the csv.reader loop (_parse_rows) on every input."""

    @settings(max_examples=400, deadline=None)
    @given(case=_csv_texts())
    def test_equals_the_row_loop(self, tmp_path_factory, case):
        text, has_header = case
        path = tmp_path_factory.getbasetemp() / "generated.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(lambda: _parse_rows(path, text, has_header))
        assert _outcome(lambda: read_matrix(path, has_header)) == expected
        fast = _parse_fast(text, has_header)
        if fast is not None:
            assert _outcome(lambda: fast) == expected

    @pytest.mark.parametrize("text,has_header", [
        ("a,b\n1,2\n-3.5e-310,  4\t\n", True),
        ("a,b\r\n1,2\r\n\r\n3,4\r\n", True),
        ("1,2\r3,4\r", False),
        ("0.1\n\n2\n", False),
        ("#x\n1e5", True),
    ])
    def test_plain_files_take_the_loadtxt_path(self, text, has_header):
        fast = _parse_fast(text, has_header)
        assert fast is not None
        assert _outcome(lambda: fast) == _outcome(lambda: _parse_rows("f", text, has_header))

    @pytest.mark.parametrize("text", [
        'a,b\n"1",2\n',  # quoted
        "a,b\n1,2\n \n3,4\n",  # whitespace-only line
        "a,b\n1_0,2\n",  # float() reads it, loadtxt does not
        "a,b\n1,2#3\n",  # loadtxt would read a comment here without comments=None
        "a\n1\x0c2\n",  # one cell to csv.reader, two lines to str.splitlines()
        "a,b\n1,nan\n",  # non-finite
        "a,b\n1,2\n3\n",  # ragged
        "a,b\n",  # no data row: loadtxt would warn
        "",
    ])
    def test_odd_files_defer_to_the_row_loop(self, text):
        assert _parse_fast(text, has_header=True) is None

    def test_quoted_crlf_and_underscore_cells_still_parse(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_bytes(b'"a",b\r\n"1.5", 1_0\r\n2,"-3"\r\n')
        values, header = read_matrix(path, has_header=True)
        assert header == ["a", "b"]
        np.testing.assert_array_equal(values, [[1.5, 10.0], [2.0, -3.0]])

    def test_undecodable_text_is_a_data_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"x\n0.5\n\xff\n")
        with pytest.raises(DataError, match=r"latin1.csv: not UTF-8 text: .*0xff"):
            read_matrix(path, has_header=True)

    @pytest.mark.parametrize("quoted", [False, True])
    def test_cell_over_the_field_limit_is_a_data_error(self, tmp_path, quoted):
        path = tmp_path / "long.csv"
        cell = "0." + "0" * 131_072 + "1"
        path.write_text("x\n" + (f'"{cell}"' if quoted else cell) + "\n")
        with pytest.raises(DataError, match=r"line 2: field larger than field limit"):
            read_matrix(path, has_header=True)

    def test_cell_at_the_field_limit_parses(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("0." + "0" * 131_069 + "1\n")  # 131,072 characters
        values, _ = read_matrix(path, has_header=False)
        assert values.tolist() == [[0.0]]


def _standardizer(X, y=None):
    """``fit_standardizer`` on the features X, and on y when given."""
    return fit_standardizer(Dataset(X, np.zeros(len(X)) if y is None else y), True, y is not None)


class TestStandardizer:
    def test_columns_become_standard(self):
        X = philox_generator(1).normal(loc=3.0, scale=2.5, size=(200, 3))
        stz = _standardizer(X)
        Z = stz.transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0, ddof=1), 1.0, atol=1e-10)

    def test_already_standard_column_unchanged(self):
        x = philox_generator(2).normal(size=500)
        x = (x - x.mean()) / x.std(ddof=1)
        stz = _standardizer(x[:, None])
        np.testing.assert_allclose(stz.transform(x[:, None])[:, 0], x, atol=1e-10)

    def test_constant_column_passes_through(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        stz = _standardizer(X)
        Z = stz.transform(X)
        np.testing.assert_array_equal(Z[:, 0], np.zeros(10))
        assert stz.std[0] == 1.0

    def test_round_trip(self):
        # the stored statistics undo the transform
        X = philox_generator(3).normal(size=(100, 3)) * 40.0 + 5.0
        stz = _standardizer(X)
        back = stz.transform(X) * stz.std + stz.mean
        assert np.abs(back - X).max() <= 1e-12

    def test_single_row_keeps_std_one(self):
        stz = _standardizer(np.array([[2.0, -3.0]]), np.array([4.0]))
        assert stz.std.tolist() == [1.0, 1.0] and stz.target_std == 1.0
        assert stz.transform(np.array([[2.0, -3.0]])).tolist() == [[0.0, 0.0]]

    def test_target_round_trip(self):
        y = philox_generator(4).normal(size=50) * 3.0 - 1.0
        stz = _standardizer(np.zeros((50, 1)), y)
        np.testing.assert_allclose(stz.inverse_target(stz.transform_target(y)), y,
                                   atol=1e-12)

    def test_fit_standardizer_helper(self):
        ds = gen_sin16(50, seed=0)
        stz = fit_standardizer(ds, True, True)
        assert stz.scales_target
        assert not fit_standardizer(ds, True, False).scales_target

    @pytest.mark.parametrize("features", [False, True])
    @pytest.mark.parametrize("target", [False, True])
    def test_fit_standardizer_scales_what_its_flags_name(self, features, target):
        ds = gen_counter3d(200, seed=8)
        ds = Dataset(ds.X * 5.0 + 2.0, ds.y * 3.0 - 1.0)
        stz = fit_standardizer(ds, features, target)
        if features:
            assert stz.mean.tobytes() == ds.X.mean(axis=0).tobytes()
            assert stz.std.tobytes() == ds.X.std(axis=0, ddof=1).tobytes()
        else:  # mean 0 and std 1 pass the features through unchanged
            assert stz.mean.tolist() == [0.0] * 3 and stz.std.tolist() == [1.0] * 3
            assert stz.transform(ds.X).tobytes() == ds.X.tobytes()
        assert stz.scales_target == target
        if target:
            assert (stz.target_mean, stz.target_std) == (ds.y.mean(), ds.y.std(ddof=1))
        else:
            assert stz.target_mean is None and stz.target_std is None
            assert stz.transform_target(ds.y).tobytes() == ds.y.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 400), d=st.integers(1, 9), seed=st.integers(0, 2**16),
           constant=st.integers(-1, 8), scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e6, 1e150]),
           fortran=st.booleans(), value=st.sampled_from([7.0, -0.0]))
    @example(n=2, d=3, seed=0, constant=1, scale=1.0, fortran=False, value=7.0)
    @example(n=2, d=3, seed=0, constant=1, scale=1e150, fortran=True, value=7.0)
    # an all -0.0 column has mean +0.0, as numpy's reduce starts from +0.0
    @example(n=30, d=3, seed=0, constant=2, scale=1.0, fortran=False, value=-0.0)
    # rows wider than column_sums folds
    @example(n=300, d=6, seed=1, constant=-1, scale=1e-3, fortran=False, value=7.0)
    def test_feature_statistics_equal_numpy_bitwise(self, n, d, seed, constant, scale,
                                                    fortran, value):
        # the mean's column sums are taken once, with numpy's own operations
        X = philox_generator(seed).normal(loc=3.0, size=(n, d)) * scale
        if 0 <= constant < d:  # -1 draws no constant column
            X[:, constant] = value
        ds = Dataset(X, np.zeros(n))
        if fortran:  # Dataset stores C order; the statistics do not depend on it
            ds.X = np.asfortranarray(ds.X)
        stz = fit_standardizer(ds, True, False)
        assert stz.mean.tobytes() == ds.X.mean(axis=0).tobytes()
        if n > 1:
            std = ds.X.std(axis=0, ddof=1)
            assert stz.std.tobytes() == np.where(std == 0.0, 1.0, std).tobytes()
        else:
            assert stz.std.tolist() == [1.0] * d
        if 0 <= constant < d:
            assert stz.std[constant] == 1.0


class TestDefaultScale:
    def test_sigma_is_root_mean_variance(self):
        rng = philox_generator(5)
        X = rng.normal(size=(5000, 2))
        X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)  # per-column variance 1
        h_hat = default_scale(X)
        np.testing.assert_allclose(h_hat, 3.5 * 5000 ** (-0.25), rtol=1e-12)

    def test_hand_worked_value(self):
        # n=8, d=1, unit sample variance: h = 3.5 * 8**(-1/3) = 1.75
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        x = x / x.std(ddof=1)
        h_hat = default_scale(x[:, None])
        np.testing.assert_allclose(h_hat, 1.75, rtol=1e-12)

    def test_scale_equivariance(self):
        X = philox_generator(6).normal(size=(60, 3))
        h1 = default_scale(X)
        h2 = default_scale(10.0 * X)
        np.testing.assert_allclose(h2, 10.0 * h1, rtol=1e-12)

    @pytest.mark.parametrize("layout", ["C", "F", "one column"])
    def test_equals_the_numpy_variance_bitwise(self, layout):
        # magnitudes far apart: a pairwise sum and a row-by-row fold round differently
        rng = philox_generator(7)
        X = rng.normal(size=(3000, 3)) * 10.0 ** rng.integers(-6, 7, size=(3000, 3))
        X = {"C": X, "F": np.asfortranarray(X), "one column": X[:, :1].copy()}[layout]
        n, d = X.shape
        variance = X.var(axis=0, ddof=1)
        if layout == "F":  # the layout decides the sums' order, and so their bits
            assert variance.tobytes() != np.ascontiguousarray(X).var(axis=0, ddof=1).tobytes()
        mean, got = column_moments(X)
        assert mean.tobytes() == X.mean(axis=0).tobytes()
        assert got.tobytes() == variance.tobytes()
        assert default_scale(X) == 3.5 * math.sqrt(float(variance.mean())) * n ** (-1.0 / (2 + d))

    def test_identical_points_rejected(self):
        with pytest.raises(DataError):
            default_scale(np.ones((5, 2)))

    def test_single_point_rejected(self):
        with pytest.raises(DataError):
            default_scale(np.ones((1, 2)))


class TestGenerators:
    def test_sin16_truth_at_zero(self):
        assert sin16_truth(np.array([[0.0]]))[0] == 0.0

    def test_counter3d_truth_at_ones(self):
        value = counter3d_truth(np.array([[1.0, 1.0, 1.0]]))[0]
        np.testing.assert_allclose(value, 30.0 * math.sin(-1.0), rtol=1e-15)
        np.testing.assert_allclose(value, -25.2441, atol=1e-4)

    def test_seed_determinism(self):
        a = gen_sin16(100, seed=9)
        b = gen_sin16(100, seed=9)
        assert a.X.tobytes() == b.X.tobytes()
        assert a.y.tobytes() == b.y.tobytes()
        c = gen_counter3d(100, seed=9)
        d = gen_counter3d(100, seed=9)
        assert c.X.tobytes() == d.X.tobytes() and c.y.tobytes() == d.y.tobytes()

    def test_supports_and_noise_level(self):
        ds = gen_counter3d(20000, seed=1)
        assert ds.X.min() >= 0.0 and ds.X.max() < 1.0
        noise = ds.y - counter3d_truth(ds.X)
        assert abs(noise.std() - 0.1) < 0.005
        assert abs(noise.mean()) < 0.005
