import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hte.data import Standardizer
from hte.errors import ConfigError, DataError
from hte.rng import philox_generator
from hte.transform import (
    _FOLD_WIDTH,
    _ROW_WIDTH,
    HistogramTransform,
    apply_transform,
    bin_key,
    cell_volume,
    check_rotation,
    column_sums,
    rowwise,
    sample_rotation,
    sample_stretch,
    sample_transform,
)


def _identity_transform(d=1, b=None):
    return HistogramTransform(
        rotation=np.eye(d),
        scales=np.ones(d),
        translation=np.zeros(d) if b is None else np.asarray(b, dtype=float),
        h_lower=1.0,
        h_upper=1.0,
    )


class TestSampleRotation:
    def test_d1_is_the_only_so1_element(self):
        r = sample_rotation(1, philox_generator(0))
        assert r.shape == (1, 1)
        assert r[0, 0] == 1.0

    def test_orthonormal_unit_determinant(self):
        for seed in range(50):
            r = sample_rotation(3, philox_generator(seed))
            assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-10
            assert abs(np.linalg.det(r) - 1.0) <= 1e-10

    @pytest.mark.parametrize("d", range(1, 9))
    def test_all_dimensions(self, d):
        for seed in range(20):
            r = sample_rotation(d, philox_generator(seed, d))
            assert np.abs(r.T @ r - np.eye(d)).max() <= 1e-10
            assert abs(np.linalg.det(r) - 1.0) <= 1e-10

    def test_deterministic_for_fixed_seed(self):
        a = sample_rotation(2, philox_generator(42))
        b = sample_rotation(2, philox_generator(42))
        assert a.tobytes() == b.tobytes()

    def test_haar_moments(self):
        # first moment 0 and second moment 1/d per entry
        d = 3
        samples = np.stack(
            [sample_rotation(d, philox_generator(seed, 123)) for seed in range(2000)]
        )
        assert np.abs(samples.mean(axis=0)).max() <= 4.0 / math.sqrt(2000)
        assert np.abs((samples**2).mean(axis=0) - 1.0 / d).max() <= 0.05

    def test_rejects_bad_dimension(self):
        with pytest.raises(ConfigError):
            sample_rotation(0, philox_generator(0))


class TestCheckRotation:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_sampled_rotations_pass(self, d):
        check_rotation(sample_rotation(d, philox_generator(d)))

    @pytest.mark.parametrize("edit,problem", [
        (lambda r: r[:, :2], "not \\(d, d\\)"),
        (lambda r: r[:0, :0], "not \\(d, d\\)"),
        (lambda r: np.where(np.eye(3) > 0, np.nan, r), "outside"),
        (lambda r: np.where(np.eye(3) > 0, 1e200, r), "outside"),  # no overflow warning
        (lambda r: r + np.diag([0.0, 1e-6, 0.0]), "not orthonormal"),
        (lambda r: r * np.array([1.0, 1.0, -1.0]), "determinant"),  # a reflection
    ], ids=["not-square", "empty", "nan", "huge", "stretched", "reflection"])
    def test_rejects(self, edit, problem):
        with pytest.raises(ConfigError, match=problem):
            check_rotation(edit(sample_rotation(3, philox_generator(5))))

    def test_a_stack_fails_on_its_one_bad_rotation(self):
        stack = np.array([sample_rotation(3, philox_generator(seed)) for seed in range(4)])
        check_rotation(stack)
        stack[2, 0, 1] += 1e-6
        with pytest.raises(ConfigError, match="not orthonormal"):
            check_rotation(stack)


class TestSampleTransform:
    def test_degenerate_interval_gives_exact_scale(self):
        t = sample_transform(3, 0.5, 0.5, philox_generator(1))
        assert np.all(t.scales == 2.0)

    def test_widths_stay_inside_the_window(self):
        h_hat = 0.7
        for seed in range(200):
            t = sample_transform(2, h_hat / math.e, h_hat, philox_generator(seed))
            widths = 1.0 / t.scales
            assert np.all(widths >= h_hat / math.e * (1 - 1e-12))
            assert np.all(widths <= h_hat * (1 + 1e-12))

    def test_log_uniform_law_monte_carlo(self):
        # h in [0.1, 1.0] puts log(s) uniform on [0, log 10]
        rng = philox_generator(2024)
        draws = np.concatenate(
            [np.log(sample_stretch(2, 0.1, 1.0, rng)[0]) for _ in range(5000)]
        )
        expected_mean = math.log(10.0) / 2.0
        stderr = (math.log(10.0) / math.sqrt(12.0)) / math.sqrt(draws.size)
        assert abs(draws.mean() - expected_mean) <= 3.0 * stderr

    def test_translation_in_unit_interval(self):
        for seed in range(100):
            t = sample_transform(4, 0.2, 0.9, philox_generator(seed, 9))
            assert np.all(t.translation >= 0.0)
            assert np.all(t.translation < 1.0)

    def test_deterministic_for_fixed_seed(self):
        a = sample_transform(3, 0.1, 1.0, philox_generator(7))
        b = sample_transform(3, 0.1, 1.0, philox_generator(7))
        assert a.rotation.tobytes() == b.rotation.tobytes()
        assert a.scales.tobytes() == b.scales.tobytes()
        assert a.translation.tobytes() == b.translation.tobytes()

    def test_rejects_bad_width_bounds(self):
        with pytest.raises(ConfigError):
            sample_transform(2, 0.0, 1.0, philox_generator(0))
        with pytest.raises(ConfigError):
            sample_transform(2, 2.0, 1.0, philox_generator(0))


class TestValidation:
    def test_rejects_non_orthogonal_rotation(self):
        with pytest.raises(ConfigError):
            HistogramTransform(
                rotation=np.array([[1.0, 0.1], [0.0, 1.0]]),
                scales=np.ones(2),
                translation=np.zeros(2),
                h_lower=1.0,
                h_upper=1.0,
            )

    def test_rejects_reflection(self):
        with pytest.raises(ConfigError):
            HistogramTransform(
                rotation=np.diag([1.0, -1.0]),
                scales=np.ones(2),
                translation=np.zeros(2),
                h_lower=1.0,
                h_upper=1.0,
            )

    def test_rejects_translation_outside_unit_box(self):
        with pytest.raises(ConfigError):
            _identity_transform(b=[1.0])


class TestApply:
    def test_identity(self):
        t = HistogramTransform(np.eye(2), np.ones(2), np.zeros(2), 1.0, 1.0)
        np.testing.assert_array_equal(
            apply_transform(t, np.array([0.3, -0.7])), [0.3, -0.7]
        )

    def test_hand_worked_rotation_stretch_translation(self):
        # S x = (2, 0); R (S x) = (0, 2); + b = (0.5, 2.5)
        t = HistogramTransform(
            rotation=np.array([[0.0, -1.0], [1.0, 0.0]]),
            scales=np.array([2.0, 2.0]),
            translation=np.array([0.5, 0.5]),
            h_lower=0.5,
            h_upper=0.5,
        )
        np.testing.assert_allclose(
            apply_transform(t, np.array([1.0, 0.0])), [0.5, 2.5], rtol=0, atol=0
        )

    def test_pure_translation_1d(self):
        t = _identity_transform(b=[0.25])
        np.testing.assert_array_equal(apply_transform(t, np.array([0.0])), [0.25])

    def test_batch_matches_single_bitwise(self):
        t = sample_transform(3, 0.2, 0.8, philox_generator(5))
        X = philox_generator(6).normal(size=(40, 3))
        batch = apply_transform(t, X)
        for i in range(len(X)):
            assert apply_transform(t, X[i]).tobytes() == batch[i].tobytes()

    def test_dimension_mismatch(self):
        t = _identity_transform(d=2)
        with pytest.raises(ConfigError):
            apply_transform(t, np.array([1.0, 2.0, 3.0]))


class TestBinKey:
    def test_floor_of_transformed_point(self):
        t = HistogramTransform(
            rotation=np.array([[0.0, -1.0], [1.0, 0.0]]),
            scales=np.array([2.0, 2.0]),
            translation=np.array([0.5, 0.5]),
            h_lower=0.5,
            h_upper=0.5,
        )
        np.testing.assert_array_equal(bin_key(t, np.array([1.0, 0.0])), [0, 2])

    def test_image_that_overflows_is_a_data_error(self):
        t = HistogramTransform(np.eye(2), np.array([4.0, 4.0]), np.zeros(2), 0.25, 0.25)
        X = np.array([[1.0, 2.0], [1e300, 1e300], [1e308, 0.0]])
        with pytest.raises(DataError, match="row 2 overflows in the histogram transform"):
            bin_key(t, X)

    def test_floor_rounds_toward_minus_infinity(self):
        t = _identity_transform(b=[0.5])
        np.testing.assert_array_equal(bin_key(t, np.array([-0.7])), [-1])

    def test_same_unit_bin(self):
        t = _identity_transform(b=[0.1])
        assert bin_key(t, np.array([0.0]))[0] == bin_key(t, np.array([0.8]))[0] == 0

    def test_key_equality_matches_floor_equality(self):
        t = sample_transform(2, 0.3, 1.0, philox_generator(13))
        rng = philox_generator(14)
        X = rng.normal(size=(500, 2))
        Y = rng.normal(size=(500, 2))
        keys_x = bin_key(t, X)
        keys_y = bin_key(t, Y)
        floors_x = np.floor(apply_transform(t, X))
        floors_y = np.floor(apply_transform(t, Y))
        same_key = (keys_x == keys_y).all(axis=1)
        same_floor = (floors_x == floors_y).all(axis=1)
        np.testing.assert_array_equal(same_key, same_floor)


_SPECIALS = np.array([1e300, -1e300, np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324])


class TestRowwise:
    """The per-feature ops on widened rows keep the bits of numpy's broadcast."""

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(1, 40), n=st.one_of(st.none(), st.integers(0, 3000)),
           seed=st.integers(0, 2**32 - 1), specials=st.sampled_from([0.0, 0.01, 0.3]),
           op=st.sampled_from([np.subtract, np.divide, np.multiply, np.add]),
           in_place=st.booleans())
    # a batch of fewer rows than one wide row, and one with leftover rows, at d=3 and d=12
    @example(d=3, n=100, seed=1, specials=0.0, op=np.divide, in_place=False)
    @example(d=12, n=2 * (_ROW_WIDTH // 12) + 5, seed=2, specials=0.01, op=np.subtract,
             in_place=True)
    def test_equals_the_broadcast(self, d, n, seed, specials, op, in_place):
        """n=None draws one point of shape (d,)."""
        rng = philox_generator(seed)
        shape = (d,) if n is None else (n, d)
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 6, size=shape)
        v = rng.normal(size=d) * 10.0 ** rng.integers(-5, 6, size=d)
        for a in (x, v):  # a share of the entries become huge, infinite, NaN or zero
            hit = rng.random(a.shape) < specials
            a[hit] = rng.choice(_SPECIALS, size=int(hit.sum()))
        with np.errstate(all="ignore"):
            expected = op(x, v)
            got = rowwise(op, x, v, out=x if in_place else None)
        assert got.shape == expected.shape and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
        if in_place:
            assert got is x

    @pytest.mark.parametrize("d", [3, 12])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_every_layout_gets_the_c_ordered_bits(self, d, layout):
        """Standardizer.transform, apply_transform and bin_key on any layout
        equal the broadcast formulas on C-ordered rows, and return C rows."""
        rng = philox_generator(d, 5)
        n = 3 * (_ROW_WIDTH // d) + 7  # three wide rows and 7 left over
        big = rng.normal(size=(2 * n, 2 * d))
        view = {"C": np.ascontiguousarray(big[::2, ::2]),
                "F": np.asfortranarray(big[::2, ::2]), "strided": big[::2, ::2]}[layout]
        X = np.ascontiguousarray(view)
        t = sample_transform(d, 0.2, 0.8, philox_generator(d, 6))
        standardizer = Standardizer(rng.normal(size=d), rng.random(d) + 0.5)
        image = np.einsum("ij,...j->...i", t.rotation, X * t.scales)
        image += t.translation
        cases = [(standardizer.transform(view), (X - standardizer.mean) / standardizer.std),
                 (apply_transform(t, view), image),
                 (bin_key(t, view), np.floor(image).astype(np.int64))]
        for got, expected in cases:
            assert got.flags.c_contiguous and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


# signed zeros, subnormals and sums that overflow
_SUM_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e300, -1e300])


class TestColumnSums:
    """The axis-0 sums keep the bits of numpy's reduce on every shape and layout."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3000), lanes=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), specials=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           fortran=st.booleans(), zero_lane=st.booleans(),
           work=st.sampled_from([None, "new", "self"]))
    # a lane of -0.0 alone: numpy's reduce starts from +0.0, the accumulate from -0.0
    @example(data=None, n=5, lanes=3, seed=0, specials=0.0, fortran=False, zero_lane=True,
             work=None)
    # one value a row: numpy sums the contiguous column pairwise
    @example(data=None, n=3000, lanes=1, seed=1, specials=0.05, fortran=False,
             zero_lane=False, work="self")
    # no rows
    @example(data=None, n=0, lanes=3, seed=2, specials=0.0, fortran=False, zero_lane=False,
             work=None)
    def test_equal_numpy_reduce_bitwise(self, data, n, lanes, seed, specials, fortran,
                                        zero_lane, work):
        """data=None keeps the 2-d shape; otherwise it may draw a 3-d (n, d, g) stack."""
        rng = philox_generator(seed)
        a = rng.normal(size=(n, lanes)) * 10.0 ** rng.integers(-8, 9, size=(n, lanes))
        hit = rng.random(a.shape) < specials
        a[hit] = rng.choice(_SUM_SPECIALS, size=int(hit.sum()))
        if zero_lane:
            a[:, 0] = -0.0
        if data is not None and data.draw(st.booleans()):
            d = data.draw(st.sampled_from([k for k in range(1, lanes + 1) if lanes % k == 0]))
            a = a.reshape(n, d, lanes // d)
        if fortran:
            a = np.asfortranarray(a)
        with np.errstate(all="ignore"):
            expected = np.add.reduce(a, axis=0)
            buffer = {None: None, "new": np.empty(a.shape), "self": a}[work]
            got = column_sums(a, work=buffer)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_narrow_rows_take_the_fold_and_others_the_reduce(self):
        # the fold writes its running sums into work; the reduce leaves it alone
        for shape, order, folded in [((50, 2), "C", True), ((50, 2, 2), "C", True),
                                     ((50, _FOLD_WIDTH + 1), "C", False), ((50, 1), "C", False),
                                     ((50, 3), "F", False)]:
            a = np.ones(shape, order=order)
            work = np.zeros(shape)
            assert column_sums(a, work=work).tobytes() == np.full(shape[1:], 50.0).tobytes()
            assert (work[-1] == 50.0).all() == folded


class TestCellVolume:
    def test_product_formula(self):
        t = HistogramTransform(
            np.eye(2), np.array([2.0, 4.0]), np.zeros(2), 0.25, 0.5
        )
        assert cell_volume(t) == 0.125

    def test_identity_scaling(self):
        assert cell_volume(_identity_transform(d=4)) == 1.0

    def test_matches_determinant_oracle(self):
        for seed in range(30):
            t = sample_transform(3, 0.2, 0.9, philox_generator(seed, 77))
            det = np.linalg.det(t.rotation @ np.diag(t.scales))
            np.testing.assert_allclose(cell_volume(t), 1.0 / det, rtol=1e-12)
