import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadcast.classical import (
    ClassicalModelError,
    DifferenceState,
    NearUnitRootWarning,
    SarimaxModel,
    SarimaxOrder,
    _css_residuals,
    _expand_poly,
    difference,
    integrate,
    nelder_mead,
    sarimax_fit,
    sarimax_forecast,
    sarimax_from_json,
    sarimax_to_json,
)
from loadcast.metrics import rmse
from loadcast.synth import regime_switching_series


def simulate_ar1(phi, n, sigma=1.0, seed=0, intercept=0.0):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = intercept / (1 - phi)
    for t in range(1, n):
        x[t] = intercept + phi * x[t - 1] + sigma * rng.standard_normal()
    return x


class TestDifference:
    def test_linear_ramp(self):
        z, _ = difference([0.0, 1.0, 2.0, 3.0], d=1, D=0, s=1)
        assert z.tolist() == [1.0, 1.0, 1.0]

    def test_seasonal_cancellation(self):
        series = np.tile(np.arange(24.0), 6)
        z, _ = difference(series, d=0, D=1, s=24)
        assert (z == 0.0).all()

    def test_round_trip_integer_valued_exact(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 5000, 2000).astype(float)
        z, state = difference(x, d=1, D=1, s=24)
        np.testing.assert_array_equal(integrate(z, state), x)

    def test_round_trip_continuous(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1000, 3000)
        z, state = difference(x, d=1, D=1, s=24)
        np.testing.assert_allclose(integrate(z, state), x, rtol=1e-9, atol=1e-9)

    def test_round_trip_deep_differencing(self):
        # each extra integration stage compounds float rounding drift
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1000, 3000)
        z, state = difference(x, d=2, D=1, s=24)
        np.testing.assert_allclose(integrate(z, state), x, rtol=1e-5)

    def test_too_short(self):
        with pytest.raises(ClassicalModelError):
            difference(np.ones(24), d=1, D=1, s=24)


class TestNelderMead:
    def test_quadratic_minimum(self):
        x, f, _, converged = nelder_mead(lambda v: float((v[0] - 3) ** 2 + (v[1] + 1) ** 2),
                                         np.zeros(2))
        assert converged
        np.testing.assert_allclose(x, [3.0, -1.0], atol=1e-3)

    def test_best_objective_non_increasing(self):
        seen = []

        def func(v):
            val = float((v[0] - 1) ** 2 + v[1] ** 2 + (v[2] + 2) ** 2)
            seen.append(val)
            return val

        _, f_best, _, _ = nelder_mead(func, np.zeros(3))
        running = np.minimum.accumulate(seen)
        assert (np.diff(running) <= 0).all()
        assert f_best == running[-1]

    def test_iteration_cap(self):
        _, _, iters, converged = nelder_mead(
            lambda v: float(np.sum(v**2)), np.full(8, 100.0), max_iter=3
        )
        assert iters == 3 and not converged


class TestSarimaxFit:
    def test_ar1_consistency(self):
        x = simulate_ar1(0.7, 5000, seed=0)
        order = SarimaxOrder(p=1, d=0, q=0, P=0, D=0, Q=0, s=1)
        model = sarimax_fit(x, order=order)
        assert 0.6 <= model.ar[0] <= 0.8
        assert model.sigma2 == pytest.approx(1.0, rel=0.1)

    def test_white_noise_intercept_is_mean(self):
        rng = np.random.default_rng(3)
        x = rng.normal(5.0, 1.0, 4000)
        order = SarimaxOrder(p=0, d=0, q=0, P=0, D=0, Q=0, s=1)
        model = sarimax_fit(x, order=order)
        assert model.intercept == pytest.approx(np.mean(x), abs=2.0 / np.sqrt(len(x)))

    def test_perfect_exog_regressor(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 10, 2000)
        order = SarimaxOrder(p=0, d=0, q=0, P=0, D=0, Q=0, s=1)
        model = sarimax_fit(x, exog=x.copy(), order=order)
        assert model.beta[0] == pytest.approx(1.0, abs=1e-3)
        assert model.sigma2 < 1e-4

    def test_ma1_recovery(self):
        rng = np.random.default_rng(5)
        eps = rng.standard_normal(6000)
        x = eps[1:] + 0.6 * eps[:-1]
        order = SarimaxOrder(p=0, d=0, q=1, P=0, D=0, Q=0, s=1)
        model = sarimax_fit(x, order=order)
        assert model.ma[0] == pytest.approx(0.6, abs=0.1)

    def test_too_short_after_differencing(self):
        order = SarimaxOrder(p=1, d=1, q=1, P=1, D=1, Q=0, s=24)
        with pytest.raises(ClassicalModelError, match="10 x"):
            sarimax_fit(np.ones(50), order=order)

    def test_near_unit_root_warning(self):
        x = np.cumsum(np.random.default_rng(6).standard_normal(3000))  # random walk
        order = SarimaxOrder(p=1, d=0, q=0, P=0, D=0, Q=0, s=1)
        with pytest.warns(NearUnitRootWarning):
            sarimax_fit(x, order=order)

    @pytest.mark.parametrize("k", [-10, 1, 10])
    def test_fit_does_not_depend_on_the_unit(self, k, caplog):
        series = regime_switching_series(720, noise=0.15, seed=11).channel(0)
        hours = np.arange(len(series))
        exog = np.column_stack([hours % 24, hours // 24 % 7]).astype(float)
        scale = 2.0 ** k
        # the default order, whose seasonal difference zeroes the hour column
        with caplog.at_level("INFO", logger="loadcast.classical"):
            base = sarimax_fit(series, exog, exog_names=("hour", "dayofweek"), max_iter=300)
        assert "['hour'] all zero after differencing, held at 0" in caplog.text
        scaled = sarimax_fit(series * scale, exog, exog_names=("hour", "dayofweek"),
                             max_iter=300)
        assert base.converged and scaled.n_iterations == base.n_iterations
        for name in ("ar", "ma", "sar", "sma"):
            assert getattr(scaled, name).tobytes() == getattr(base, name).tobytes(), name
        assert base.beta[0] == scaled.beta[0] == 0.0 and base.beta[1] != 0.0
        for name in ("beta", "w_tail", "eps_tail"):
            assert getattr(scaled, name).tobytes() == (getattr(base, name) * scale).tobytes()
        assert scaled.sigma2 == base.sigma2 * scale * scale
        # no differencing: the intercept is fitted, and scales too
        order = SarimaxOrder(p=1, d=0, q=1, P=0, D=0, Q=0, s=1)
        base, scaled = (sarimax_fit(y, order=order) for y in (series, series * scale))
        assert base.converged and scaled.n_iterations == base.n_iterations
        assert (scaled.ar[0], scaled.ma[0]) == (base.ar[0], base.ma[0])
        assert scaled.intercept == base.intercept * scale != 0.0

    def test_serialization_round_trip(self):
        x = simulate_ar1(0.5, 1500, seed=7)
        order = SarimaxOrder(p=1, d=1, q=1, P=0, D=0, Q=0, s=1)
        model = sarimax_fit(x, order=order)
        clone = sarimax_from_json(sarimax_to_json(model))
        np.testing.assert_array_equal(clone.ar, model.ar)
        np.testing.assert_array_equal(clone.w_tail, model.w_tail)
        fc_a = sarimax_forecast(model, 12)
        fc_b = sarimax_forecast(clone, 12)
        np.testing.assert_array_equal(fc_a, fc_b)

    @pytest.mark.parametrize("n_exog", [2, 0])
    def test_artifact_bytes_survive_a_round_trip(self, n_exog):
        # two regressors, and none: beta == [] and an exog_tail of shape (0, 0)
        rng = np.random.default_rng(3)
        x = simulate_ar1(0.5, 600, seed=3) + np.tile(np.arange(24.0), 25)
        exog = rng.normal(size=(600, n_exog))
        model = sarimax_fit(x, exog, SarimaxOrder(1, 1, 1, 1, 1, 0, 24), max_iter=60)
        assert model.beta.shape == (n_exog,)
        assert model.exog_tail.shape == ((25, 2) if n_exog else (0, 0))
        text = sarimax_to_json(model)
        assert sarimax_to_json(sarimax_from_json(text)) == text


def css_residuals_numpy_scalars(w, ar_table, ma_table, t0):
    """The MA recursion as it ran on numpy float64 scalars, lag-checked at
    every step: the reference ``_css_residuals`` must match bit for bit."""
    n = len(w)
    arr = w.copy()
    for lag, coef in ar_table.items():
        arr[lag:] += coef * w[:-lag]
    if not ma_table:
        return arr[t0:]
    eps = np.zeros(n)
    for t in range(t0, n):
        acc = arr[t]
        for lag, coef in ma_table.items():
            if t - lag >= t0:
                acc -= coef * eps[t - lag]
        eps[t] = acc
    return eps[t0:]


def assert_bitwise_equal(got, want):
    """Equal float64 arrays bit for bit, but for a NaN's sign bit, which
    never reaches an output."""
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


INF, NAN = float("inf"), float("nan")
css_coefs = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-3, 1)),
    st.sampled_from([INF, -INF, NAN, 0.0, -0.0, 1e308, -1e308]),
)
css_tables = st.dictionaries(st.integers(1, 29), css_coefs, max_size=3)


@st.composite
def seasonal_tables(draw):
    """AR and MA lag tables of a seasonal order, as ``sarimax_fit`` builds
    them: products of the two polynomials add the cross lags."""
    s = draw(st.integers(2, 12))
    ar, ma, sar, sma = (np.array(draw(st.lists(css_coefs, max_size=2))) for _ in range(4))
    with np.errstate(all="ignore"):
        return _expand_poly(ar, sar, s, sign=-1.0), _expand_poly(ma, sma, s, sign=1.0)


class TestCssResiduals:
    @settings(max_examples=300, deadline=None)
    @given(tables=st.one_of(st.tuples(css_tables, css_tables), seasonal_tables()),
           w=st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])),
                      max_size=80),
           t0_draw=st.integers(0, 100))
    @example(tables=({1: 0.5}, {}), w=[1.0, -2.0, 3.0, 0.5], t0_draw=1)  # empty MA table
    @example(tables=({}, {1: INF, 2: NAN, 3: -0.0}), w=[0.0, -0.0, 1.0, 2.0, -3.0, 4.0],
             t0_draw=0)
    @example(tables=({2: 0.3}, {24: 0.5}), w=[-0.0] * 10 + [1.0] * 10,
             t0_draw=3)  # n < t0 + MA lag: only the lag-checked steps run
    @example(tables=({}, {3: INF}), w=[0.0, -0.0, 1.0] * 4, t0_draw=1)  # single lag, inf
    @example(tables=({1: 0.2}, {1: 0.4}), w=[1.0, 2.0, 3.0], t0_draw=3)  # n == t0
    @example(tables=({1: -0.3, 24: -0.2, 25: 0.06}, {1: 0.4, 24: 0.7, 25: 0.28}),
             w=[float(i % 7) - 3.0 for i in range(80)], t0_draw=25)
    def test_bitwise_equal_to_numpy_scalar_loop(self, tables, w, t0_draw):
        ar_table, ma_table = tables
        w = np.array(w, dtype=float)
        t0 = t0_draw % (len(w) + 1)
        with np.errstate(all="ignore"):
            want = css_residuals_numpy_scalars(w, ar_table, ma_table, t0)
            got = _css_residuals(w, ar_table, ma_table, t0)
        assert_bitwise_equal(got, want)


def integrate_numpy_scalars(x, lags, prefixes):
    """integrate's running sums as they ran on numpy float64 scalars."""
    x = np.asarray(x, dtype=float)
    for lag, prefix in zip(reversed(lags), reversed(prefixes)):
        out = np.empty(len(x) + lag)
        out[:lag] = prefix
        for i in range(len(x)):
            out[lag + i] = x[i] + out[i]
        x = out
    return x


def forecast_numpy_scalars(model, steps, exog_future):
    """sarimax_forecast as it ran on numpy float64 scalars, with one
    ``zx_f[h] @ beta`` per step: the reference the forecast must match."""
    order = model.order
    n_exog = len(model.beta)
    if n_exog:
        ext = np.vstack([model.exog_tail, exog_future])
        zx_f = np.column_stack(
            [difference(ext[:, j], order.d, order.D, order.s)[0][-steps:] for j in range(n_exog)]
        )
    ar_table = _expand_poly(model.ar, model.sar, order.s, sign=-1.0)
    ma_table = _expand_poly(model.ma, model.sma, order.s, sign=1.0)
    w_hist = model.w_tail.tolist()
    eps_hist = model.eps_tail.tolist()
    z_pred = np.empty(steps)
    for h in range(steps):
        acc = 0.0
        for lag, coef in ar_table.items():
            if lag <= len(w_hist):
                acc -= coef * w_hist[-lag]
        for lag, coef in ma_table.items():
            if lag <= len(eps_hist):
                acc += coef * eps_hist[-lag]
        w_hist.append(acc)
        eps_hist.append(0.0)
        z_pred[h] = acc + model.intercept + (zx_f[h] @ model.beta if n_exog else 0.0)
    lags = (1,) * order.d + (order.s,) * order.D
    stages, x = [], model.endog_tail
    for lag in lags:
        stages.append(x)
        x = x[lag:] - x[:-lag]
    for lag, stage in zip(reversed(lags), reversed(stages)):
        z_pred = integrate_numpy_scalars(z_pred, (lag,), (tuple(stage[-lag:]),))[lag:]
    return z_pred


tail_values = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))


@st.composite
def forecast_cases(draw):
    """A model with drawn coefficients and state, its step count and its
    future exog: d and D up to 2, seasonal AR and MA tables with cross
    lags, 0 to 3 exog columns, 0 to 60 steps."""
    d, D = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    s = draw(st.integers(2, 6))
    # half the models draw finite coefficients only, so that their
    # forecasts are not NaN throughout
    coefs = css_coefs if draw(st.booleans()) else st.floats(-1.0, 1.0)
    ar, ma, sar, sma = (np.array(draw(st.lists(coefs, max_size=2)), dtype=float)
                        for _ in range(4))
    order = SarimaxOrder(len(ar), d, len(ma), len(sar), D, len(sma), s)
    n_exog = draw(st.integers(0, 3))
    raw_tail = max(d + D * s, 1)

    def values(shape):
        return np.array(draw(st.lists(tail_values, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape)))),
                        dtype=float).reshape(shape)

    model = SarimaxModel(
        order=order, ar=ar, ma=ma, sar=sar, sma=sma,
        beta=np.array(draw(st.lists(coefs, min_size=n_exog, max_size=n_exog)), dtype=float),
        intercept=draw(coefs), sigma2=1.0, exog_names=tuple(f"x{j}" for j in range(n_exog)),
        # tails shorter than the longest lag skip that lag's term
        w_tail=values((draw(st.integers(1, order.max_ar_lag + 2)),)),
        eps_tail=values((draw(st.integers(1, order.max_ma_lag + 2)),)),
        endog_tail=values((raw_tail,)),
        exog_tail=values((raw_tail, n_exog)) if n_exog else np.empty((0, 0)),
    )
    # zero steps with exog on a differenced order has its own test below
    steps = draw(st.integers(1 if n_exog and d + D else 0, 60))
    return model, steps, values((steps, n_exog)) if n_exog else None


class TestPythonFloatRecursions:
    @settings(max_examples=300, deadline=None)
    @given(case=forecast_cases())
    @example(case=(SarimaxModel(  # the pipeline's default order, at season 4
        order=SarimaxOrder(1, 1, 1, 1, 1, 0, 4), ar=np.array([0.3]), ma=np.array([-0.2]),
        sar=np.array([0.5]), sma=np.empty(0), beta=np.array([2.0, -0.5]), intercept=0.0,
        sigma2=1.0, exog_names=("hour", "dayofweek"), w_tail=np.arange(5.0) - 2.0,
        eps_tail=np.array([0.1, -0.0]), endog_tail=np.arange(5.0) ** 2,
        exog_tail=np.arange(10.0).reshape(5, 2)), 9, np.arange(18.0).reshape(9, 2) % 7))
    def test_forecast_bitwise_equal_to_numpy_scalar_loop(self, case):
        model, steps, exog_future = case
        with np.errstate(all="ignore"):
            want = forecast_numpy_scalars(model, steps, exog_future)
            got = sarimax_forecast(model, steps, exog_future)
        assert_bitwise_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(st.one_of(tail_values, css_coefs), max_size=60),
           stages=st.lists(st.integers(1, 12).flatmap(
               lambda lag: st.tuples(st.just(lag), st.lists(st.one_of(tail_values, css_coefs),
                                                            min_size=lag, max_size=lag))),
               max_size=3))
    def test_integrate_bitwise_equal_to_numpy_scalar_loop(self, x, stages):
        state = DifferenceState(tuple(lag for lag, _ in stages),
                                tuple(tuple(prefix) for _, prefix in stages))
        with np.errstate(all="ignore"):
            want = integrate_numpy_scalars(x, state.lags, state.prefixes)
            got = integrate(x, state)
        assert_bitwise_equal(got, want)


def ar1_model(phi, last_value):
    order = SarimaxOrder(p=1, d=0, q=0, P=0, D=0, Q=0, s=1)
    return SarimaxModel(
        order=order, ar=np.array([phi]), ma=np.empty(0), sar=np.empty(0), sma=np.empty(0),
        beta=np.empty(0), intercept=0.0, sigma2=1.0, exog_names=(),
        w_tail=np.array([last_value]), eps_tail=np.array([0.0]),
        endog_tail=np.array([last_value]), exog_tail=np.empty((0, 0)),
    )


class TestSarimaxForecast:
    def test_pure_ar1_closed_form(self):
        model = ar1_model(0.5, 8.0)
        np.testing.assert_allclose(sarimax_forecast(model, 3), [4.0, 2.0, 1.0])

    def test_all_zero_coefficients_constant_intercept(self):
        order = SarimaxOrder(p=0, d=0, q=0, P=0, D=0, Q=0, s=1)
        model = SarimaxModel(
            order=order, ar=np.empty(0), ma=np.empty(0), sar=np.empty(0), sma=np.empty(0),
            beta=np.empty(0), intercept=7.5, sigma2=1.0, exog_names=(),
            w_tail=np.array([0.0]), eps_tail=np.array([0.0]),
            endog_tail=np.array([3.0]), exog_tail=np.empty((0, 0)),
        )
        np.testing.assert_array_equal(sarimax_forecast(model, 4), np.full(4, 7.5))

    def test_flat_continuation_under_d1(self):
        order = SarimaxOrder(p=0, d=1, q=0, P=0, D=0, Q=0, s=1)
        model = SarimaxModel(
            order=order, ar=np.empty(0), ma=np.empty(0), sar=np.empty(0), sma=np.empty(0),
            beta=np.empty(0), intercept=0.0, sigma2=1.0, exog_names=(),
            w_tail=np.array([0.0]), eps_tail=np.array([0.0]),
            endog_tail=np.array([42.0]), exog_tail=np.empty((0, 0)),
        )
        np.testing.assert_array_equal(sarimax_forecast(model, 5), np.full(5, 42.0))

    @pytest.mark.parametrize("steps, expected", [(0, []), (3, [6.0, 3.0, 7.0])])
    def test_seasonal_and_first_difference_continue_raw_tail(self, steps, expected):
        # zero coefficients: y[t] = y[t-1] + y[t-2] - y[t-3] from the raw tail
        order = SarimaxOrder(p=0, d=1, q=0, P=0, D=1, Q=0, s=2)
        model = SarimaxModel(
            order=order, ar=np.empty(0), ma=np.empty(0), sar=np.empty(0), sma=np.empty(0),
            beta=np.empty(0), intercept=0.0, sigma2=1.0, exog_names=(),
            w_tail=np.array([0.0]), eps_tail=np.array([0.0]),
            endog_tail=np.array([1.0, 5.0, 2.0]), exog_tail=np.empty((0, 0)),
        )
        np.testing.assert_array_equal(sarimax_forecast(model, steps), expected)

    def test_missing_exog_future_errors(self):
        order = SarimaxOrder(p=0, d=0, q=0, P=0, D=0, Q=0, s=1)
        model = SarimaxModel(
            order=order, ar=np.empty(0), ma=np.empty(0), sar=np.empty(0), sma=np.empty(0),
            beta=np.array([2.0]), intercept=0.0, sigma2=1.0, exog_names=("hour",),
            w_tail=np.array([0.0]), eps_tail=np.array([0.0]),
            endog_tail=np.array([1.0]), exog_tail=np.zeros((1, 1)),
        )
        with pytest.raises(ClassicalModelError, match="exog_future"):
            sarimax_forecast(model, 2)

    def test_negative_steps_rejected(self):
        with pytest.raises(ClassicalModelError, match="steps must be >= 0, got -1"):
            sarimax_forecast(ar1_model(0.5, 8.0), -1)

    @pytest.mark.parametrize("d, future, expected", [
        (0, [2.0, 4.0, 7.0], [4.0, 8.0, 14.0]),
        (1, [2.0, 4.0, 7.0], [12.0, 16.0, 22.0]),  # 10 + 2 * cumsum of [1, 2, 3]
        (0, [], []), (1, [], []),
    ])
    def test_future_exog_rows_start_after_the_tail(self, d, future, expected):
        # zero steps keep no exog row: the rows are cut from an explicit
        # start, where ``[-steps:]`` would keep all of them
        order = SarimaxOrder(p=0, d=d, q=0, P=0, D=0, Q=0, s=1)
        model = SarimaxModel(
            order=order, ar=np.empty(0), ma=np.empty(0), sar=np.empty(0), sma=np.empty(0),
            beta=np.array([2.0]), intercept=0.0, sigma2=1.0, exog_names=("x",),
            w_tail=np.array([0.0]), eps_tail=np.array([0.0]),
            endog_tail=np.array([10.0]), exog_tail=np.array([[1.0]]),
        )
        got = sarimax_forecast(model, len(future), np.array(future).reshape(-1, 1))
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)

    def test_exog_tail_shorter_than_differencing_rejected(self):
        order = SarimaxOrder(p=0, d=1, q=0, P=0, D=1, Q=0, s=2)
        model = SarimaxModel(
            order=order, ar=np.empty(0), ma=np.empty(0), sar=np.empty(0), sma=np.empty(0),
            beta=np.array([2.0]), intercept=0.0, sigma2=1.0, exog_names=("x",),
            w_tail=np.array([0.0]), eps_tail=np.array([0.0]),
            endog_tail=np.array([1.0, 5.0, 2.0]), exog_tail=np.ones((2, 1)),
        )
        with pytest.raises(ClassicalModelError, match="exog_tail has 2 rows, differencing needs 3"):
            sarimax_forecast(model, 4, np.ones((4, 1)))

    def test_forecast_fit_round_trip_on_seasonal_series(self):
        series = np.tile(np.arange(24.0) * 10, 40) + 100
        order = SarimaxOrder(p=1, d=0, q=0, P=0, D=1, Q=0, s=24)
        model = sarimax_fit(series, order=order)
        forecast = sarimax_forecast(model, 48)
        # a perfectly periodic series forecasts its own next cycles
        np.testing.assert_allclose(forecast, np.concatenate([series[:24], series[:24]]), atol=1e-6)


class TestQualitativeOrdering:
    def test_sarimax_worse_than_seasonal_naive_on_regime_switch(self):
        series = regime_switching_series(8 * 168, noise=0.0)
        values = series.channel(0)
        n_train = int(len(values) * 0.8)
        train, test = values[:n_train], values[n_train:]

        naive = np.concatenate([train[-24:], test])[: len(test)]
        naive_rmse = rmse(test, naive)

        order = SarimaxOrder(p=1, d=1, q=1, P=1, D=1, Q=0, s=24)
        model = sarimax_fit(train[-720:], order=order)
        sarimax_pred = sarimax_forecast(model, len(test))
        assert rmse(test, sarimax_pred) > naive_rmse
