import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majdet.errors import (
    EmptyVector,
    LengthMismatch,
    NonFinite,
    NonPositiveEntry,
    ZeroOrder,
)
from majdet.orders import (
    OrderKind,
    check_order,
    check_orders,
    geometric_mean,
    power_mean,
    sort_desc,
)

from oracles import majorization_pair

positive_vectors = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
).map(np.array)

real_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
).map(np.array)


class TestSortDesc:
    def test_basic(self):
        np.testing.assert_array_equal(sort_desc([1.0, 3.0, 2.0]), [3.0, 2.0, 1.0])

    def test_ties(self):
        np.testing.assert_array_equal(sort_desc([5.0, 5.0]), [5.0, 5.0])

    def test_two_entries(self):
        np.testing.assert_array_equal(sort_desc([0.2281, 1.3488]), [1.3488, 0.2281])

    def test_empty(self):
        with pytest.raises(EmptyVector):
            sort_desc([])


class TestCheckOrder:
    def test_weak_log_reference_failure_at_k2(self):
        # blockwise vs full product spectra of the embedded 4x4 example
        x = [1.3488, 0.2281, 4.8080, 0.4420]
        y = [4.8921, 1.0664, 0.3433, 0.1772]
        rep = check_order(OrderKind.WEAK_LOG_MAJORIZE, x, y)
        assert not rep.holds
        assert rep.fail_index == 2
        assert rep.verdict() == "fails-at-k=2"
        assert rep.margins[0] > 0  # first prefix fine

    def test_majorize_holds(self):
        rep = check_order(OrderKind.MAJORIZE, [1.0, 1.0], [2.0, 0.0])
        assert rep.holds
        assert rep.residual == pytest.approx(0.0, abs=1e-15)

    def test_majorize_total_mismatch_fails_at_n(self):
        rep = check_order(OrderKind.MAJORIZE, [1.0, 0.5], [2.0, 0.0])
        assert not rep.holds
        assert rep.fail_index == 2

    def test_weak_log_prefix_products(self):
        rep = check_order(OrderKind.WEAK_LOG_MAJORIZE, [2.0, 2.0], [4.0, 1.0])
        assert rep.holds
        # prefix products: 2 <= 4 and 4 <= 4
        assert rep.margins[0] == pytest.approx(math.log(2.0))
        assert rep.margins[1] == pytest.approx(0.0, abs=1e-12)

    def test_entrywise_padded_reference(self):
        x = [1.3488, 0.2281]
        y = [4.8921, 1.0664, 0.3433, 0.1772]
        rep = check_order(OrderKind.ENTRYWISE_LE, x, y, pad=True)
        assert rep.holds
        assert rep.n == 4

    def test_entrywise_unpadded_mismatch(self):
        with pytest.raises(LengthMismatch):
            check_order(OrderKind.ENTRYWISE_LE, [1.0], [1.0, 2.0])

    def test_log_kinds_need_positive(self):
        with pytest.raises(NonPositiveEntry):
            check_order(OrderKind.WEAK_LOG_MAJORIZE, [1.0, -1.0], [2.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            check_order(OrderKind.MAJORIZE, [1.0], [1.0, 2.0])

    @given(v=positive_vectors)
    @settings(max_examples=60, deadline=None)
    def test_reflexivity_all_kinds(self, v):
        for kind in OrderKind:
            rep = check_order(kind, v, v)
            assert rep.holds
            assert max(abs(m) for m in rep.margins) <= 1e-12 * max(
                1.0, float(np.max(np.abs(v)))
            ) * len(v)

    @given(v=real_vectors, st_data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_entrywise_implies_weak_majorize(self, v, st_data):
        bump = st_data.draw(st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=len(v), max_size=len(v)))
        x = sort_desc(v)
        y = x + np.array(bump)  # entrywise >= x, in any order after sorting
        assert check_order(OrderKind.ENTRYWISE_LE, x, y).holds
        assert check_order(OrderKind.WEAK_MAJORIZE, x, y).holds

    def test_majorize_implies_weak(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            x, y = majorization_pair(rng, n)
            assert check_order(OrderKind.MAJORIZE, x, y).holds
            assert check_order(OrderKind.WEAK_MAJORIZE, x, y).holds

    def test_log_implies_weak_log(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            # log-majorization pair: exponentiate a majorization pair of logs
            lx, ly = majorization_pair(rng, n)
            x, y = np.exp(lx), np.exp(ly)
            assert check_order(OrderKind.LOG_MAJORIZE, x, y).holds
            assert check_order(OrderKind.WEAK_LOG_MAJORIZE, x, y).holds

    def test_weak_log_implies_weak_majorize(self, rng):
        # classical fact for positive vectors; exercised numerically
        for _ in range(100):
            n = int(rng.integers(2, 9))
            x = rng.uniform(0.1, 5.0, size=n)
            y = rng.uniform(0.1, 5.0, size=n)
            if check_order(OrderKind.WEAK_LOG_MAJORIZE, x, y).holds:
                assert check_order(OrderKind.WEAK_MAJORIZE, x, y).holds

    def test_scale_invariance(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            x = rng.uniform(0.1, 5.0, size=n)
            y = rng.uniform(0.1, 5.0, size=n)
            c = float(rng.uniform(1e-3, 1e3))
            for kind in OrderKind:
                assert (check_order(kind, x, y).holds
                        == check_order(kind, c * x, c * y).holds)

    def test_convex_transform_square(self, rng):
        # x majorized by y implies x^2 weakly majorized by y^2
        for _ in range(50):
            n = int(rng.integers(2, 9))
            x, y = majorization_pair(rng, n)
            assert check_order(OrderKind.WEAK_MAJORIZE, x**2, y**2).holds

    def test_convex_transform_negative_powers(self, rng):
        # for positive majorization pairs, t -> t^-p is convex, so images
        # are weakly majorized
        for _ in range(50):
            n = int(rng.integers(2, 9))
            x, y = majorization_pair(rng, n, positive=True)
            for p in (0.5, 1.0, 2.0):
                assert check_order(OrderKind.WEAK_MAJORIZE, x**-p, y**-p).holds

    @pytest.mark.parametrize("kind", list(OrderKind))
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_entry_raises(self, kind, bad):
        with pytest.raises(NonFinite):
            check_order(kind, [bad, 1.0], [2.0, 1.0])
        with pytest.raises(NonFinite):
            check_order(kind, [2.0, 1.0], [2.0, bad])

    def test_overflowing_prefix_sum_raises(self):
        # no numpy warning first (the suite turns a RuntimeWarning into an error)
        big = np.array([1e308, 1e308])
        with pytest.raises(NonFinite, match=r"^order check with a prefix sum that overflows$"):
            check_order(OrderKind.WEAK_MAJORIZE, big, big)


class TestStackedOrders:
    """check_orders on (T, n) rows, each sorted nonincreasing by sort_desc,
    equals check_order (which sorts) on the unsorted rows, row by row,
    margins bit for bit: the prefix margins of a stack are taken in one
    pass, and each row's report is built from the arrays."""

    @pytest.mark.parametrize("kind", list(OrderKind))
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
    def test_rows_equal_loop(self, rng, kind, n):
        for size in (1, 2, 10):
            x = np.exp(rng.uniform(-20.0, 20.0, size=(size, n)))
            y = np.exp(rng.uniform(-20.0, 20.0, size=(size, n)))
            y[0] = x[0][::-1]  # a row that holds with equality
            checks = check_orders(kind, sort_desc(x), sort_desc(y))
            assert checks.holds.shape == (size,)
            for t in range(size):
                report = checks.report(t)
                want = check_order(kind, x[t], y[t])
                assert report == want
                assert (np.array(report.margins).tobytes()
                        == np.array(want.margins).tobytes())

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(list(OrderKind)), lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
           n=st.integers(1, 9), data=st.data())
    def test_stack_equals_rows_bit_for_bit(self, kind, lead, n, data):
        # x and y, sorted by sort_desc, are tested and logged as one stack;
        # each row's report, margins and residual have the bits of
        # check_order on that unsorted row, and those of prefix sums taken
        # one vector at a time
        log = kind in (OrderKind.LOG_MAJORIZE, OrderKind.WEAK_LOG_MAJORIZE)
        entries = (st.floats(-60.0, 60.0).map(math.exp) if log
                   else st.floats(-1e6, 1e6, allow_nan=False))
        shape = (*lead, n)
        x = np.array(data.draw(st.lists(entries, min_size=math.prod(shape),
                                        max_size=math.prod(shape)))).reshape(shape)
        y = x[..., ::-1].copy() if data.draw(st.booleans()) else np.array(data.draw(
            st.lists(entries, min_size=x.size, max_size=x.size))).reshape(shape)
        checks = check_orders(kind, sort_desc(x), sort_desc(y))
        rows_x, rows_y = x.reshape(-1, n), y.reshape(-1, n)
        for t in range(len(rows_x)):
            report, want = checks.report(t), check_order(kind, rows_x[t], rows_y[t])
            assert report == want
            assert (np.array(report.margins).tobytes()
                    == np.array(want.margins).tobytes())
            assert repr(report.residual) == repr(want.residual)
            xs, ys = sort_desc(rows_x[t]), sort_desc(rows_y[t])
            if kind is OrderKind.ENTRYWISE_LE:
                margins = ys - xs
            else:
                if log:
                    xs, ys = np.log(xs), np.log(ys)
                margins = np.cumsum(ys) - np.cumsum(xs)
            assert np.array(report.margins).tobytes() == margins.tobytes()

    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_errors_keep_their_order(self, kind):
        # a NaN is found before a length mismatch, an empty x before a NaN
        # y, and a NaN before a non-positive entry; check_orders, which
        # takes two arrays of one shape, raises check_order's NonFinite
        with pytest.raises(NonFinite, match=r"^order check on a non-finite"):
            check_order(kind, [math.nan, 1.0], [1.0, 2.0, 3.0])
        for check in (check_order, check_orders):
            with pytest.raises(NonFinite, match=r"^order check on a non-finite"):
                check(kind, [0.0, 1.0], [1.0, math.nan])
        with pytest.raises(EmptyVector):
            check_order(kind, [], [math.nan])
        with pytest.raises(LengthMismatch):
            check_order(kind, [0.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("kind", [OrderKind.LOG_MAJORIZE, OrderKind.WEAK_LOG_MAJORIZE])
    def test_zero_entry_under_a_log_kind(self, kind):
        message = r"^log orders need strictly positive entries$"
        with pytest.raises(NonPositiveEntry, match=message):
            check_order(kind, [1.0, 0.0], [1.0, 1.0])
        with pytest.raises(NonPositiveEntry, match=message):
            check_orders(kind, np.ones((3, 2)), np.array([[1.0, 1.0], [2.0, 0.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("kind", list(OrderKind))
    def test_overflowing_tolerance_raises(self, kind):
        # 1e308 times a prefix scale above 1 is inf: every prefix would hold
        x, y = [1.0, 2.0, 3.0], [6.0, 1e-3, 1e-3]
        message = r"^order check with a tolerance that overflows: tol = 1e\+308 times"
        with pytest.raises(NonFinite, match=message):
            check_order(kind, x, y, tol=1e308)
        with pytest.raises(NonFinite, match=message):
            check_orders(kind, np.array([x, x]), np.array([y, y]), tol=1e308)
        # a large tolerance whose scaled value is finite is applied
        assert check_order(kind, x, y, tol=1e300).holds

    def test_any_bad_row_raises(self):
        x = np.ones((3, 2))
        y = np.ones((3, 2))
        y[2, 1] = math.nan
        with pytest.raises(NonFinite):
            check_orders(OrderKind.MAJORIZE, x, y)


class TestMeans:
    def test_power_mean_arithmetic(self):
        assert power_mean([1.0, 4.0], 1.0) == pytest.approx(2.5)

    def test_power_mean_constant(self):
        for r in (-2.0, -0.5, 0.7, 3.0):
            assert power_mean([2.0, 2.0, 2.0], r) == pytest.approx(2.0)

    def test_power_mean_limit_is_geometric(self):
        a = [1.0, 4.0]
        assert abs(power_mean(a, 1e-6) - 2.0) <= 1e-5

    def test_zero_order(self):
        with pytest.raises(ZeroOrder):
            power_mean([1.0, 2.0], 0.0)

    @pytest.mark.parametrize("a, r, want", [
        # a_i^r under- or overflows unscaled; the mean of equal entries is
        # the entry itself, exactly
        ([1e-200, 1e-200], 2.0, 1e-200), ([1e200, 1e200], -2.0, 1e200),
        ([1e300, 1e300], 2.0, 1e300), ([1e-300, 2.0], -2.0, math.sqrt(2.0) * 1e-300),
        # a_i/max(a) underflows and a_i/min(a) overflows, so the ratio goes
        # through logarithms; the means to 17 digits, from 60 with decimal
        ([1e-300, 1e300], 1e-4, 22563316772.247870),
        ([1e-300, 1e300], -1e-4, 4.4319725246687436e-11),
    ])
    def test_extreme_entries_are_scaled(self, a, r, want):
        # under the suite's warning filter a RuntimeWarning would fail it
        assert power_mean(a, r) == pytest.approx(want, rel=1e-11)
        if len(set(a)) == 1:
            assert power_mean(a, r) == want

    def test_nan_order_raises_non_finite(self):
        with pytest.raises(NonFinite,
                           match=r"^power mean of order nan: .* is nan, the result nan$"):
            power_mean([1.0, 2.0], math.nan)

    def test_nonpositive(self):
        with pytest.raises(NonPositiveEntry):
            power_mean([1.0, 0.0], 1.0)
        with pytest.raises(NonPositiveEntry):
            geometric_mean([1.0, -2.0])

    def test_empty(self):
        with pytest.raises(EmptyVector, match="^empty vector$"):
            power_mean([], 1.0)
        with pytest.raises(EmptyVector, match="^empty vector$"):
            geometric_mean([])

    def test_geometric_mean_values(self):
        assert geometric_mean([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([5.0, 1.0]) == pytest.approx(math.sqrt(5.0))

    @given(a=positive_vectors)
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_order(self, a):
        grid = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
        values = [power_mean(a, r) for r in grid]
        for small, large in zip(values, values[1:]):
            assert small <= large * (1.0 + 1e-12)

    @given(a=positive_vectors)
    @settings(max_examples=80, deadline=None)
    def test_limit_property(self, a):
        gm = geometric_mean(a)
        assert abs(power_mean(a, 1e-7) - gm) <= 1e-5 * gm
