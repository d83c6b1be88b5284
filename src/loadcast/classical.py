"""Classical baselines: seasonal naive and a SARIMAX-lite estimator.

The SARIMAX-lite fits multiplicative seasonal ARMA coefficients plus linear
exogenous effects by minimising the conditional sum of squared one-step
residuals on the differenced series, using a derivative-free simplex
search. This trades the usual state-space likelihood for something small,
deterministic and directly testable; forecasting is the standard recursion
with future shocks at zero followed by inverse differencing.
"""

from __future__ import annotations

import json
import logging
import math
import warnings
from dataclasses import astuple, dataclass

import numpy as np

logger = logging.getLogger(__name__)


class ClassicalModelError(ValueError):
    """Raised on invalid orders, short series or missing forecast inputs."""


class NearUnitRootWarning(UserWarning):
    """An estimated AR root sits within 1e-3 of the unit circle."""


# ---------------------------------------------------------------------------
# Differencing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DifferenceState:
    """Prefix values dropped by each differencing stage, in application order."""

    lags: tuple[int, ...]
    prefixes: tuple[tuple[float, ...], ...]


def difference(series, d: int, D: int, s: int) -> tuple[np.ndarray, DifferenceState]:
    """Apply (1-B)^d then (1-B^s)^D along the first axis, so a matrix's
    columns are differenced at once; for a 1-D series the returned state
    makes integrate exact."""
    x = np.asarray(series, dtype=float)
    if len(x) <= d + D * s:
        raise ClassicalModelError(
            f"series of length {len(x)} too short for d={d}, D={D}, s={s}"
        )
    lags = (1,) * d + (s,) * D
    prefixes = []
    for lag in lags:
        prefixes.append(tuple(x[:lag]))
        x = x[lag:] - x[:-lag]
    return x, DifferenceState(lags, tuple(prefixes))


def integrate(differenced, state: DifferenceState) -> np.ndarray:
    """Invert difference(); integrate(difference(x)) reproduces x."""
    x = np.asarray(differenced, dtype=float).tolist()
    for lag, prefix in zip(reversed(state.lags), reversed(state.prefixes)):
        x = _undifference(x, lag, prefix)
    return np.array(x, dtype=float)


def _undifference(x: list[float], lag: int, prefix) -> list[float]:
    """One stage of integrate: ``prefix`` then each value plus the one
    ``lag`` before it. The running sum is on Python floats: the same IEEE
    additions in the same order as on numpy scalars, so bit for bit the same."""
    if len(prefix) != lag:
        raise ClassicalModelError(f"integration prefix has {len(prefix)} values, lag is {lag}")
    out = [float(v) for v in prefix]
    for i, value in enumerate(x):
        out.append(value + out[i])
    return out


# ---------------------------------------------------------------------------
# SARIMAX-lite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SarimaxOrder:
    p: int = 1
    d: int = 1
    q: int = 1
    P: int = 1
    D: int = 1
    Q: int = 0
    s: int = 24

    def __post_init__(self) -> None:
        if min(self.p, self.d, self.q, self.P, self.D, self.Q) < 0:
            raise ClassicalModelError("order terms must be non-negative")
        if self.s < 1:
            raise ClassicalModelError("season length must be >= 1")
        if self.P + self.D + self.Q > 0 and self.s <= 1:
            raise ClassicalModelError("seasonal terms require season length > 1")

    @property
    def with_intercept(self) -> bool:
        return self.d + self.D == 0

    @property
    def max_ar_lag(self) -> int:
        return self.p + self.P * self.s

    @property
    def max_ma_lag(self) -> int:
        return self.q + self.Q * self.s


@dataclass(frozen=True)
class SarimaxModel:
    order: SarimaxOrder
    ar: np.ndarray
    ma: np.ndarray
    sar: np.ndarray
    sma: np.ndarray
    beta: np.ndarray
    intercept: float
    sigma2: float
    exog_names: tuple[str, ...]
    # state needed to forecast from the end of the training sample
    w_tail: np.ndarray       # regression-adjusted differenced values
    eps_tail: np.ndarray     # last residuals
    endog_tail: np.ndarray   # raw endog values for inverse differencing
    exog_tail: np.ndarray    # raw exog rows for differencing future exog
    converged: bool = True
    n_iterations: int = 0


def _expand_poly(coefs: np.ndarray, seasonal: np.ndarray, s: int, sign: float) -> dict[int, float]:
    """Lag->coefficient table of (1 + sign*sum c_i B^i)(1 + sign*sum C_j B^js),
    excluding lag 0. sign=-1 builds AR polynomials, +1 MA polynomials."""
    table: dict[int, float] = {}
    for i, c in enumerate(coefs, start=1):
        table[i] = table.get(i, 0.0) + sign * c
    for j, Cj in enumerate(seasonal, start=1):
        table[j * s] = table.get(j * s, 0.0) + sign * Cj
        for i, c in enumerate(coefs, start=1):
            table[j * s + i] = table.get(j * s + i, 0.0) + c * Cj
    return table


def _lag_tables(ar, ma, sar, sma, s: int) -> tuple[dict[int, float], dict[int, float]]:
    """The AR and MA lag->coefficient tables of the multiplicative seasonal
    polynomials, which the fit's and the forecast's recursions run on."""
    return _expand_poly(ar, sar, s, sign=-1.0), _expand_poly(ma, sma, s, sign=1.0)


def _css_residuals(w: np.ndarray, ar_table: dict[int, float], ma_table: dict[int, float],
                   t0: int) -> np.ndarray:
    """One-step residuals of the ARMA recursion from index t0, pre-sample
    residuals fixed at zero (conditional sum of squares convention).

    The MA recursion runs on Python floats, not numpy scalars: both are IEEE
    doubles and the operations keep their order, so the residuals are
    bitwise the same (but for a NaN's sign, which no output shows), ~2.4x
    faster. A pre-sample term is skipped, not subtracted as ``coef * 0.0``
    (which is NaN for an infinite coefficient and can flip a zero's sign).
    With a single MA lag, as in the default order, only the first ``lag``
    steps check it; every later step has its term.
    """
    n = len(w)
    # AR side is a fixed linear combination of lagged w: vectorise it
    arr = w.copy()
    for lag, coef in ar_table.items():
        arr[lag:] += coef * w[:-lag]
    if not ma_table:
        return arr[t0:]
    a = arr.tolist()
    eps: list[float] = []  # eps[j] is the residual at t0 + j
    ma_items = [(lag, float(coef)) for lag, coef in ma_table.items()]
    head = min(n, t0 + ma_items[0][0]) if len(ma_items) == 1 else n
    for t in range(t0, head):
        acc = a[t]
        for lag, coef in ma_items:
            if t - lag >= t0:
                acc -= coef * eps[t - lag - t0]
        eps.append(acc)
    if head < n:
        (lag, coef), = ma_items
        append = eps.append
        for x in a[head:]:
            append(x - coef * eps[-lag])
    return np.fromiter(eps, dtype=float, count=len(eps))


def _unpack(params: np.ndarray, order: SarimaxOrder, n_exog: int):
    p, q, P, Q = order.p, order.q, order.P, order.Q
    i = 0
    ar = params[i : i + p]; i += p
    ma = params[i : i + q]; i += q
    sar = params[i : i + P]; i += P
    sma = params[i : i + Q]; i += Q
    beta = params[i : i + n_exog]; i += n_exog
    intercept = params[i] if order.with_intercept else 0.0
    return ar, ma, sar, sma, beta, intercept


def sarimax_fit(
    endog,
    exog: np.ndarray | None = None,
    order: SarimaxOrder = SarimaxOrder(),
    exog_names: tuple[str, ...] = (),
    max_iter: int = 500,
) -> SarimaxModel:
    """Estimate coefficients by conditional sum of squares.

    The fit runs in units of the differenced series' spread: the series is
    divided by S, the power of two nearest its standard deviation (S = 1 if
    that is 0 or not finite), and ``beta``, ``intercept``, ``w_tail`` and
    ``eps_tail`` are multiplied back by S and ``sigma2`` by S^2. So the fit
    does not depend on the unit of the readings: readings scaled by a power
    of two give the same coefficients and scaled artifacts, bit for bit.
    An exogenous column that is all zero after differencing (``hour`` at
    s = 24) is held at coefficient 0, outside the search, and logged.

    The simplex search (``nelder_mead``) starts from all-zero coefficients
    with an initial step of 0.1 and stops when the objective spread falls
    below the fixed tolerance 1e-8, in units of S^2 and so relative to the
    data's spread, or after ``max_iter`` iterations; non-convergence keeps
    the best coefficients found and flips the ``converged`` flag. Warns
    when an AR root is within 1e-3 of the unit circle.
    """
    endog = np.asarray(endog, dtype=float)
    if exog is None:
        exog = np.empty((len(endog), 0))
    exog = np.asarray(exog, dtype=float)
    if exog.ndim == 1:
        exog = exog[:, None]
    if len(exog) != len(endog):
        raise ClassicalModelError("endog and exog lengths differ")
    n_exog = exog.shape[1]
    if exog_names and len(exog_names) != n_exog:
        raise ClassicalModelError("exog_names length does not match exog columns")
    exog_names = tuple(exog_names) if exog_names else tuple(f"x{j}" for j in range(n_exog))

    z, _ = difference(endog, order.d, order.D, order.s)
    zx, _ = difference(exog, order.d, order.D, order.s)
    free = np.any(zx != 0.0, axis=0)
    if not free.all():
        held = [name for name, keep in zip(exog_names, free) if not keep]
        logger.info("sarimax_fit: exog %s all zero after differencing, held at 0", held)
    zx = zx[:, free]
    n_free = int(free.sum())
    scale = _unit_scale(z)
    z = z / scale

    n_params = order.p + order.q + order.P + order.Q + n_free + (1 if order.with_intercept else 0)
    t0 = order.max_ar_lag
    n_effective = len(z) - t0
    if n_params > 0 and len(z) <= 10 * n_params:
        raise ClassicalModelError(
            f"{len(z)} differenced observations <= 10 x {n_params} free parameters"
        )

    def residuals(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The regression-adjusted differenced series w and its CSS residuals."""
        ar, ma, sar, sma, beta, intercept = _unpack(params, order, n_free)
        w = z - intercept - zx @ beta
        return w, _css_residuals(w, *_lag_tables(ar, ma, sar, sma, order.s), t0)

    def objective(params: np.ndarray) -> float:
        # non-invertible MA regions blow the recursion up; an inf objective
        # simply steers the simplex away
        with np.errstate(over="ignore", invalid="ignore"):
            eps = residuals(params)[1]
            sse = float(eps @ eps)
        return sse if np.isfinite(sse) else np.inf

    if n_params == 0:
        best, converged, n_iter = np.empty(0), True, 0
    else:
        best, _, n_iter, converged = nelder_mead(
            objective, np.zeros(n_params), max_iter=max_iter
        )
    if not converged:
        logger.warning("sarimax_fit: simplex search did not converge in %d iterations", n_iter)

    ar, ma, sar, sma, beta_free, intercept = _unpack(best, order, n_free)
    w, eps = residuals(best)
    sigma2 = max(float(eps @ eps) / max(n_effective, 1) * (scale * scale),
                 np.finfo(float).tiny)
    beta = np.zeros(n_exog)
    beta[free] = beta_free * scale

    _warn_near_unit_root(ar, "ar")
    _warn_near_unit_root(sar, "seasonal ar")

    tail_len = max(order.max_ar_lag, 1)
    eps_full = np.zeros(len(w))
    eps_full[t0:] = eps
    raw_tail = order.d + order.D * order.s
    model = SarimaxModel(
        order=order,
        ar=np.array(ar), ma=np.array(ma), sar=np.array(sar), sma=np.array(sma),
        beta=beta, intercept=float(intercept) * scale, sigma2=sigma2,
        exog_names=exog_names,
        w_tail=w[-tail_len:] * scale,
        eps_tail=eps_full[-max(order.max_ma_lag, 1):] * scale,
        endog_tail=endog[-max(raw_tail, 1):].copy(),
        exog_tail=exog[-max(raw_tail, 1):].copy() if n_exog else np.empty((0, 0)),
        converged=converged,
        n_iterations=n_iter,
    )
    logger.info(
        "sarimax_fit order=(%d,%d,%d)(%d,%d,%d,%d) sse/n=%.6g converged=%s iters=%d",
        order.p, order.d, order.q, order.P, order.D, order.Q, order.s,
        sigma2, converged, n_iter,
    )
    return model


def _unit_scale(z: np.ndarray) -> float:
    """The power of two nearest the standard deviation of ``z`` (rounded in
    log2), or 1.0 when that is 0 or not finite. Taken from the float's
    mantissa and exponent, so ``z * 2**k`` gives exactly ``2**k`` times it."""
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(np.std(z))
    if std == 0.0 or not np.isfinite(std):
        return 1.0
    mantissa, exponent = math.frexp(std)  # std = mantissa * 2**exponent, mantissa in [0.5, 1)
    return math.ldexp(1.0, exponent - (mantissa < math.sqrt(0.5)))


def _warn_near_unit_root(coefs: np.ndarray, label: str) -> None:
    if len(coefs) == 0 or not np.any(coefs):
        return
    # roots of 1 - c1*x - ... - cp*x^p
    poly = np.concatenate([[-c for c in coefs[::-1]], [1.0]])
    roots = np.roots(poly)
    if any(abs(abs(r) - 1.0) < 1e-3 for r in roots):
        warnings.warn(f"{label} root within 1e-3 of the unit circle", NearUnitRootWarning)


def sarimax_forecast(model: SarimaxModel, steps: int, exog_future: np.ndarray | None = None) -> np.ndarray:
    """Iterate the one-step recursion with future shocks at zero, then invert
    the differencing back to the original scale.

    The recursion runs on Python floats, as ``_css_residuals`` does, so it
    is bit for bit the same recursion on numpy scalars. Every step's
    exogenous term is computed up front by one batched ``np.matmul`` of
    (1, k) rows by a (k, 1) column: that takes numpy's vector dot, as a
    per-row ``zx_f[h] @ beta`` does, where ``zx_f @ beta`` rounds some rows
    differently.
    """
    if steps < 0:
        raise ClassicalModelError(f"steps must be >= 0, got {steps}")
    order = model.order
    lags = (1,) * order.d + (order.s,) * order.D
    n_exog = len(model.beta)
    if n_exog:
        if exog_future is None:
            raise ClassicalModelError("model has exogenous coefficients; exog_future required")
        exog_future = np.asarray(exog_future, dtype=float)
        if exog_future.ndim == 1:
            exog_future = exog_future[:, None]
        if exog_future.shape != (steps, n_exog):
            raise ClassicalModelError(
                f"exog_future must be ({steps}, {n_exog}), got {exog_future.shape}"
            )
        if len(model.exog_tail) < sum(lags):
            raise ClassicalModelError(f"exog_tail has {len(model.exog_tail)} rows, "
                                      f"differencing needs {sum(lags)}")
        # difference future exog against the stored raw tail, as difference()
        # does, and keep the rows exog_future adds
        zx_f = np.vstack([model.exog_tail, exog_future])
        for lag in lags:
            zx_f = zx_f[lag:] - zx_f[:-lag]
        zx_f = zx_f[len(zx_f) - steps:]
        exog_terms = np.matmul(zx_f[:, None, :], model.beta[:, None]).ravel().tolist()
    else:
        exog_terms = [0.0] * steps

    ar_table, ma_table = _lag_tables(model.ar, model.ma, model.sar, model.sma, order.s)
    ar_items = [(lag, float(coef)) for lag, coef in ar_table.items()]
    ma_items = [(lag, float(coef)) for lag, coef in ma_table.items()]

    w_hist = model.w_tail.tolist()
    eps_hist = model.eps_tail.tolist()
    intercept = float(model.intercept)
    z_pred = []
    for exog_term in exog_terms:
        acc = 0.0
        for lag, coef in ar_items:
            if lag <= len(w_hist):
                acc -= coef * w_hist[-lag]
        for lag, coef in ma_items:
            if lag <= len(eps_hist):
                acc += coef * eps_hist[-lag]
        w_hist.append(acc)
        eps_hist.append(0.0)  # future shocks are zero
        z_pred.append(acc + intercept + exog_term)

    # invert the differencing stage by stage, last first, each from its last
    # ``lag`` raw-tail values: one integrate over the whole tail would re-add
    # rounded differences of known values and move the forecast's last bits
    stages, x = [], model.endog_tail
    for lag in lags:
        stages.append(x)
        x = x[lag:] - x[:-lag]
    for lag, stage in zip(reversed(lags), reversed(stages)):
        z_pred = _undifference(z_pred, lag, stage[-lag:])[lag:]
    return np.array(z_pred, dtype=float)


# ---------------------------------------------------------------------------
# Simplex search
# ---------------------------------------------------------------------------


def nelder_mead(
    func,
    x0: np.ndarray,
    max_iter: int = 500,
) -> tuple[np.ndarray, float, int, bool]:
    """Minimise func by Nelder-Mead reflection/expansion/contraction/shrink.

    Deterministic: the initial simplex is x0 plus a step of 0.1 along each
    axis and ties resolve by index order. Converged when the objective
    spread across the simplex drops below the fixed tolerance 1e-8;
    returns (best_x, best_f, iterations, converged).
    """
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    step, tol = 0.1, 1e-8
    x0 = np.asarray(x0, dtype=float)
    dim = len(x0)
    simplex = [x0.copy()]
    for i in range(dim):
        x = x0.copy()
        x[i] += step
        simplex.append(x)
    fvals = np.array([func(x) for x in simplex])

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        order = np.argsort(fvals, kind="stable")
        simplex = [simplex[i] for i in order]
        fvals = fvals[order]
        if fvals[-1] - fvals[0] < tol:
            converged = True
            break

        centroid = np.add.reduce(simplex[:-1], axis=0) / dim  # np.mean's sum and divide
        reflected = centroid + alpha * (centroid - simplex[-1])
        f_ref = func(reflected)
        if fvals[0] <= f_ref < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_ref
            continue
        if f_ref < fvals[0]:
            expanded = centroid + gamma * (centroid - simplex[-1])
            f_exp = func(expanded)
            if f_exp < f_ref:
                simplex[-1], fvals[-1] = expanded, f_exp
            else:
                simplex[-1], fvals[-1] = reflected, f_ref
            continue
        contracted = centroid + rho * (simplex[-1] - centroid)
        f_con = func(contracted)
        if f_con < fvals[-1]:
            simplex[-1], fvals[-1] = contracted, f_con
            continue
        best = simplex[0]
        simplex = [best] + [best + sigma * (x - best) for x in simplex[1:]]
        fvals = np.array([fvals[0]] + [func(x) for x in simplex[1:]])

    best_idx = int(np.argmin(fvals))
    return simplex[best_idx], float(fvals[best_idx]), it, converged


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# SarimaxModel's array fields, each stored as a JSON list
_ARRAY_FIELDS = ("ar", "ma", "sar", "sma", "beta", "w_tail", "eps_tail", "endog_tail", "exog_tail")


def sarimax_to_json(model: SarimaxModel) -> str:
    doc = {name: getattr(model, name).tolist() for name in _ARRAY_FIELDS}
    doc.update(order=astuple(model.order), intercept=model.intercept, sigma2=model.sigma2,
               exog_names=model.exog_names, converged=model.converged,
               n_iterations=model.n_iterations)
    return json.dumps(doc, sort_keys=True, indent=1)


def sarimax_from_json(text: str) -> SarimaxModel:
    doc = json.loads(text)
    arrays = {name: np.asarray(doc[name], dtype=float) for name in _ARRAY_FIELDS}
    arrays["exog_tail"] = arrays["exog_tail"].reshape(len(doc["exog_tail"]), len(doc["beta"]))
    return SarimaxModel(
        order=SarimaxOrder(*doc["order"]), intercept=float(doc["intercept"]),
        sigma2=float(doc["sigma2"]), exog_names=tuple(doc["exog_names"]),
        converged=bool(doc["converged"]), n_iterations=int(doc["n_iterations"]), **arrays,
    )
