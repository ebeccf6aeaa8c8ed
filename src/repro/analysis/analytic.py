"""Closed-form per-iteration runtime estimates behind the analytic backend.

The discrete-event simulator *measures* iteration times; this module
*predicts* them without simulating a single arrival, which is what makes the
:class:`~repro.api.backends.AnalyticBackend` O(1) in the iteration count.
Every estimator reduces an iteration to the same decomposition the simulator
uses — per-worker completion times fed to the scheme's stopping rule — and
evaluates the expectation of the stopping time in closed form (order
statistics of shift-exponential arrivals, coupon-collector stopping indices,
group-wise maxima) or, for the heterogeneous coverage rules, by deterministic
quadrature of an exact product-of-CDFs survival function.

Modelling assumptions (the "tractable regime")
----------------------------------------------
* Worker completion times are shift-exponential
  (:class:`~repro.stragglers.models.ShiftedExponentialDelay`, the paper's
  Eq. 15 family) or deterministic. Other delay models raise
  :class:`~repro.exceptions.AnalyticIntractableError`.
* Transfer times are linear-plus-exponential-jitter
  (:class:`~repro.stragglers.communication.LinearCommunicationModel`) or zero.
* A worker's arrival time ``compute + transfer`` is a deterministic part plus
  the *sum* of two exponentials; the estimators approximate that
  hypoexponential tail by a single exponential matched by its mean — the same
  documented ~15 % approximation :mod:`repro.analysis.runtime_prediction`
  uses, exact whenever one of the two tails vanishes.
* With a serialised master link the expected ``k``-th arrival is estimated by
  the mean-field recurrence ``A_k = max(E[C_(k)], A_{k-1}) + E[X]`` over the
  compute order statistics — a lower-biased (Jensen) but tight approximation
  in the communication-dominated regimes of the paper.

Quantiles are derived from the order-statistic CDF (a binomial tail of the
underlying arrival CDF) or the quadrature survival function, so they carry
the same approximations as the means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.coupon import harmonic_number
from repro.exceptions import AnalyticIntractableError, ConfigurationError
from repro.stragglers.base import DelayModel
from repro.stragglers.communication import (
    CommunicationModel,
    LinearCommunicationModel,
    ZeroCommunicationModel,
)
from repro.stragglers.models import DeterministicDelay, ShiftedExponentialDelay

__all__ = [
    "DEFAULT_QUANTILES",
    "AnalyticIteration",
    "worker_compute_parameters",
    "homogeneous_compute_parameters",
    "transfer_parameters",
    "normal_quantile",
    "coupon_threshold_pmf",
    "randomized_threshold_pmf",
    "expected_arrivals_until_group_complete",
    "order_statistic_runtime",
    "fractional_group_runtime",
    "maximum_runtime",
    "coverage_runtime",
]

#: Quantile levels reported by default (median, and the straggler tail).
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

# numpy renamed trapz -> trapezoid in 2.0; support both.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz

#: Largest ``num_types * num_workers`` for which the exact stopping-index
#: distribution is evaluated (an O(N * n) dynamic program); bigger problems
#: fall back to the point-mass-at-the-mean approximation, which concentrates
#: anyway.
_EXACT_PMF_MAX_STATES = 20_000_000


@dataclass(frozen=True)
class AnalyticIteration:
    """Closed-form timing estimate of one distributed-GD iteration.

    The fields mirror :class:`~repro.simulation.iteration.IterationOutcome`
    so analytic results tabulate next to simulated ones, but every quantity
    is an *expectation* (and therefore a float even where the simulator
    reports integers).

    Attributes
    ----------
    scheme:
        Name of the scheme the estimate describes.
    total_time:
        Expected wall-clock time of one iteration.
    computation_time:
        Expected slowest computation among the workers the master hears.
    communication_time:
        ``total_time - computation_time`` (the paper's accounting), clipped
        at zero.
    recovery_threshold:
        Expected number of workers the master waits for.
    communication_load:
        Expected total size (gradient units) of the messages received.
    workers_finished_compute:
        Expected number of workers that finished computing by ``total_time``.
    variance:
        Approximate variance of the per-iteration time (used for the
        normal-approximation total-runtime quantiles).
    quantiles:
        Mapping quantile level -> per-iteration time.
    mode:
        ``"parallel"`` or ``"serialized"`` master link.
    details:
        Scheme-specific intermediate numbers surfaced for inspection.
    """

    scheme: str
    total_time: float
    computation_time: float
    communication_time: float
    recovery_threshold: float
    communication_load: float
    workers_finished_compute: float
    variance: float
    quantiles: Mapping[float, float]
    mode: str
    details: Mapping[str, float] = field(default_factory=dict)

    def total_runtime_mean(self, num_iterations: int) -> float:
        """Expected total running time of ``num_iterations`` iterations."""
        return self.total_time * int(num_iterations)

    def total_runtime_quantiles(self, num_iterations: int) -> Dict[float, float]:
        """Normal-approximation quantiles of the ``num_iterations``-sum.

        Iterations are i.i.d., so the total is asymptotically normal with
        mean ``k * E[T]`` and variance ``k * Var[T]``; for a single iteration
        the per-iteration quantiles are returned unchanged.
        """
        k = int(num_iterations)
        if k <= 1:
            return dict(self.quantiles)
        sigma = math.sqrt(max(self.variance, 0.0) * k)
        return {
            q: k * self.total_time + normal_quantile(q) * sigma
            for q in self.quantiles
        }


# --------------------------------------------------------------------------- #
# Model-parameter extraction (the tractability gate)
# --------------------------------------------------------------------------- #
def worker_compute_parameters(model: DelayModel) -> Tuple[float, float]:
    """Per-*example* ``(deterministic, exponential-tail-mean)`` of a delay model.

    A task over ``e`` examples then takes ``deterministic * e`` seconds plus
    an exponential tail of mean ``tail * e`` — exactly how the two supported
    families scale.

    Raises
    ------
    AnalyticIntractableError
        For delay models outside the shift-exponential / deterministic
        families, or subclasses that override :meth:`sample` (their
        distribution is unknown to the closed forms).
    """
    if isinstance(model, ShiftedExponentialDelay):
        if type(model).sample is not ShiftedExponentialDelay.sample:
            raise AnalyticIntractableError(
                f"{type(model).__name__} overrides sample(); its distribution "
                "is unknown to the closed-form analysis"
            )
        return float(model.shift), 1.0 / float(model.straggling)
    if isinstance(model, DeterministicDelay):
        if type(model).sample is not DeterministicDelay.sample:
            raise AnalyticIntractableError(
                f"{type(model).__name__} overrides sample(); its distribution "
                "is unknown to the closed-form analysis"
            )
        return float(model.seconds_per_example), 0.0
    raise AnalyticIntractableError(
        f"no closed-form runtime model covers {type(model).__name__} workers; "
        "the analytic backend supports shift-exponential and deterministic "
        "delay models (use a simulation backend for anything else)"
    )


def homogeneous_compute_parameters(cluster) -> Tuple[float, float]:
    """Shared per-example compute parameters of a homogeneous cluster.

    Raises :class:`AnalyticIntractableError` when workers differ — the
    order-statistic formulas need exchangeable workers; heterogeneous schemes
    go through :func:`maximum_runtime` / :func:`coverage_runtime` instead.
    """
    params = [worker_compute_parameters(model) for model in cluster.delay_models()]
    first = params[0]
    if any(p != first for p in params[1:]):
        raise AnalyticIntractableError(
            "this scheme's closed form needs a homogeneous cluster "
            "(identical delay models on every worker)"
        )
    return first


def transfer_parameters(
    communication: CommunicationModel, message_size: float
) -> Tuple[float, float]:
    """``(fixed, jitter-mean)`` seconds to transfer one ``message_size`` message.

    Raises :class:`AnalyticIntractableError` for communication models outside
    the linear / zero families.
    """
    if isinstance(communication, ZeroCommunicationModel):
        if type(communication).sample is ZeroCommunicationModel.sample:
            return 0.0, 0.0
    if isinstance(communication, LinearCommunicationModel):
        if type(communication).sample is LinearCommunicationModel.sample:
            fixed = communication.latency + communication.seconds_per_unit * float(
                message_size
            )
            return float(fixed), float(communication.jitter)
    raise AnalyticIntractableError(
        f"no closed-form transfer model covers {type(communication).__name__}; "
        "the analytic backend supports LinearCommunicationModel and "
        "ZeroCommunicationModel"
    )


# --------------------------------------------------------------------------- #
# Scalar probability helpers
# --------------------------------------------------------------------------- #
def normal_quantile(q: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation, ~1e-9)."""
    if not 0.0 < q < 1.0:
        raise ConfigurationError(f"quantile level must lie in (0, 1), got {q}")
    # Coefficients of Peter Acklam's approximation.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if q < p_low:
        t = math.sqrt(-2.0 * math.log(q))
        return (((((c[0] * t + c[1]) * t + c[2]) * t + c[3]) * t + c[4]) * t + c[5]) / (
            (((d[0] * t + d[1]) * t + d[2]) * t + d[3]) * t + 1.0
        )
    if q > p_high:
        t = math.sqrt(-2.0 * math.log(1.0 - q))
        return -(((((c[0] * t + c[1]) * t + c[2]) * t + c[3]) * t + c[4]) * t + c[5]) / (
            (((d[0] * t + d[1]) * t + d[2]) * t + d[3]) * t + 1.0
        )
    t = q - 0.5
    r = t * t
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * t / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def _sum_in_order(values: Iterable[float]) -> float:
    """The left-to-right float sum that built-in ``sum()`` gave before 3.12.

    Python 3.12 compensates float ``sum()``, so a built-in sum would make
    these results depend on the interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


_HARMONIC_CACHE: Dict[int, np.ndarray] = {}


def _harmonic_array(n: int) -> np.ndarray:
    """``[H_0, H_1, ..., H_n]`` as one cached prefix-sum array."""
    cached = _HARMONIC_CACHE.get(n)
    if cached is None:
        cached = np.concatenate(
            [[0.0], np.cumsum(1.0 / np.arange(1, n + 1, dtype=float))]
        )
        if len(_HARMONIC_CACHE) > 64:
            _HARMONIC_CACHE.clear()
        _HARMONIC_CACHE[n] = cached
    return cached


_LOG_COMB_CACHE: Dict[int, np.ndarray] = {}


def _log_binomials(n: int) -> np.ndarray:
    """``log C(n, j)`` for ``j = 0..n``, cached per ``n``."""
    cached = _LOG_COMB_CACHE.get(n)
    if cached is None:
        lgamma = np.vectorize(math.lgamma)
        j = np.arange(n + 1, dtype=float)
        cached = math.lgamma(n + 1) - lgamma(j + 1) - lgamma(n - j + 1)
        if len(_LOG_COMB_CACHE) > 64:
            _LOG_COMB_CACHE.clear()
        _LOG_COMB_CACHE[n] = cached
    return cached


def _binomial_tail(n: int, k: int, p: float) -> float:
    """``P(Binomial(n, p) >= k)`` evaluated stably in log space."""
    if k <= 0:
        return 1.0
    if k > n or p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    j = np.arange(k, n + 1, dtype=float)
    log_terms = _log_binomials(n)[k:] + j * math.log(p) + (n - j) * math.log1p(-p)
    peak = float(log_terms.max())
    total = float(np.exp(log_terms - peak).sum())
    return float(min(max(math.exp(peak) * total, 0.0), 1.0))


def _partial_harmonic(n: int, k: float) -> float:
    """``H_n - H_{n-k}`` with linear interpolation for fractional ``k``."""
    harmonic = _harmonic_array(n)
    k = min(max(float(k), 0.0), float(n))
    lower = int(math.floor(k))
    h_low = harmonic[n] - harmonic[n - lower]
    if lower == k or lower >= n:
        return float(h_low)
    h_high = harmonic[n] - harmonic[n - lower - 1]
    return float(h_low + (k - lower) * (h_high - h_low))


def _order_stat_tail_variance(n: int, k: int, tail_mean: float) -> float:
    """Variance of the ``k``-th order statistic of ``n`` i.i.d. exponentials."""
    if tail_mean <= 0.0 or k <= 0:
        return 0.0
    k = min(int(k), n)
    indices = np.arange(n - k + 1, n + 1, dtype=float)
    return float(tail_mean**2 * np.sum(1.0 / indices**2))


def _bisect_quantile(
    cdf: Callable[[float], float], q: float, lower: float, upper_hint: float
) -> float:
    """Solve ``cdf(t) = q`` for a monotone CDF by doubling + bisection."""
    hi = max(upper_hint, lower + 1e-12)
    for _ in range(200):
        if cdf(hi) >= q:
            break
        hi = lower + 2.0 * (hi - lower)
    lo = lower
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def _exp_cdf(t: float, deterministic: float, tail_mean: float) -> float:
    """CDF of ``deterministic + Exp(mean=tail_mean)`` (a step when the tail is 0)."""
    if t < deterministic:
        return 0.0
    if tail_mean <= 0.0:
        return 1.0
    return 1.0 - math.exp(-(t - deterministic) / tail_mean)


# --------------------------------------------------------------------------- #
# Stopping-index distributions
# --------------------------------------------------------------------------- #
def coupon_threshold_pmf(
    num_types: int, num_workers: int
) -> Optional[Dict[int, float]]:
    """Distribution of the coupon-collector stopping index, truncated at ``n``.

    Returns ``P(K = d | K <= n)`` for ``d = N .. n`` — the recovery-threshold
    distribution of the BCC stopping rule conditioned on the job being
    feasible with ``n`` workers (the simulator re-draws infeasible placements,
    which conditions on the same event). Returns ``None`` when the O(N * n)
    dynamic program would be too large; callers then fall back to the
    unconditional mean ``N * H_N`` capped at ``n``.
    """
    n_types = int(num_types)
    n = int(num_workers)
    if n_types * n > _EXACT_PMF_MAX_STATES:
        return None
    if n_types > n:
        raise AnalyticIntractableError(
            f"coverage of {n_types} batches is impossible with {n} workers"
        )
    # Collected-types Markov chain: after each draw the count stays with
    # probability j/N or advances with probability (N - j)/N. All terms are
    # nonnegative, so the float evaluation is stable (unlike the alternating
    # inclusion-exclusion sum, which needs rational arithmetic).
    state = np.zeros(n_types + 1)
    state[0] = 1.0
    ratios = np.arange(n_types + 1) / n_types
    pmf: Dict[int, float] = {}
    for draws in range(1, n + 1):
        advanced = np.empty_like(state)
        advanced[0] = 0.0
        advanced[1:] = state[1:] * ratios[1:] + state[:-1] * (1.0 - ratios[:-1])
        mass = advanced[n_types] - state[n_types]
        state = advanced
        if mass > 0.0:
            pmf[draws] = float(mass)
    total = _sum_in_order(pmf.values())
    if total <= 0.0:
        return None
    return {k: v / total for k, v in pmf.items()}


def randomized_threshold_pmf(
    num_units: int, load: int, num_workers: int
) -> Optional[Dict[int, float]]:
    """Stopping-index distribution of the simple randomized coverage rule.

    Each arriving worker reveals a uniform ``load``-subset of the ``m``
    units; the master stops at full coverage. The covered-units count is a
    Markov chain with hypergeometric increments, evaluated as a stable
    all-positive dynamic program and conditioned on coverage within ``n``
    workers (the feasibility event the simulator's placement re-draws
    enforce). Returns ``None`` when the O(m * n * r) program would be too
    large; callers then fall back to the unconditional mean capped at ``n``.
    """
    m = int(num_units)
    r = int(load)
    n = int(num_workers)
    if m * n * (r + 1) > _EXACT_PMF_MAX_STATES:
        return None
    # bands[i, j]: probability a worker adds i new units when j are already
    # covered — hypergeometric C(m-j, i) C(j, r-i) / C(m, r). The chain only
    # moves 0..r states forward, so the step is a banded (O(m r)) update, not
    # a dense matrix product — matching the size guard above.
    log_fact = np.cumsum(
        np.concatenate([[0.0], np.log(np.arange(1, m + 1, dtype=float))])
    )

    def log_binom(a: int, b: int) -> float:
        return float(log_fact[a] - log_fact[b] - log_fact[a - b])

    log_total = log_binom(m, r)
    bands = np.zeros((r + 1, m + 1))
    for j in range(m + 1):
        for i in range(max(r - j, 0), min(r, m - j) + 1):
            log_p = log_binom(m - j, i) + log_binom(j, r - i) - log_total
            bands[i, j] = math.exp(log_p)
    bands[0, m] = 1.0  # coverage is absorbing
    state = np.zeros(m + 1)
    state[0] = 1.0
    pmf: Dict[int, float] = {}
    for draws in range(1, n + 1):
        covered_before = state[m]
        advanced = state * bands[0]
        for i in range(1, r + 1):
            advanced[i:] += (state * bands[i])[: m + 1 - i]
        state = advanced
        mass = state[m] - covered_before
        if mass > 0.0:
            pmf[draws] = float(mass)
    total = _sum_in_order(pmf.values())
    if total <= 0.0:
        return None
    return {k: v / total for k, v in pmf.items()}


def expected_arrivals_until_group_complete(num_groups: int, group_size: int) -> float:
    """Expected draws (without replacement) until some group is fully drawn.

    Workers are partitioned into ``num_groups`` groups of ``group_size``; the
    draw order is a uniform random permutation of all ``n = groups * size``
    workers. This is the fractional-repetition scheme's stopping index: the
    master decodes as soon as one replication group has fully reported.
    ``E[K] = sum_t P(K > t)`` with the survival evaluated by
    inclusion–exclusion over which groups are complete after ``t`` draws.
    """
    groups = int(num_groups)
    size = int(group_size)
    n = groups * size
    expectation = 0.0
    for drawn in range(0, n):
        total_subsets = math.comb(n, drawn)
        survival = 0.0
        for complete in range(0, min(groups, drawn // size) + 1):
            ways = (
                math.comb(groups, complete)
                * math.comb(n - complete * size, drawn - complete * size)
            )
            term = ways / total_subsets
            survival += term if complete % 2 == 0 else -term
        expectation += max(survival, 0.0)
    return float(expectation)


# --------------------------------------------------------------------------- #
# The i.i.d. order-statistic engine (homogeneous schemes)
# --------------------------------------------------------------------------- #
def _serialized_arrival_means(
    num_workers: int,
    max_k: int,
    compute_deterministic: float,
    compute_tail_mean: float,
    transfer_mean: float,
) -> List[float]:
    """Mean-field ``E[A_k]`` for ``k = 1 .. max_k`` under a serialised link.

    The master's single link serialises the transfers, so the ``k``-th
    arrival obeys ``A_k = max(C_(k), A_{k-1}) + X_k``; the recurrence below
    propagates expectations (a Jensen lower bound on the true mean).
    """
    harmonic = _harmonic_array(num_workers)
    h_n = harmonic[num_workers]
    arrivals: List[float] = []
    link_free = 0.0
    for j in range(1, max_k + 1):
        compute_j = compute_deterministic + compute_tail_mean * (
            h_n - harmonic[num_workers - j]
        )
        link_free = max(compute_j, link_free) + transfer_mean
        arrivals.append(link_free)
    return arrivals


def order_statistic_runtime(
    *,
    scheme: str,
    num_workers: int,
    threshold,
    compute_deterministic: float,
    compute_tail_mean: float,
    transfer_fixed: float,
    transfer_jitter_mean: float,
    message_size: float,
    serialize_master_link: bool,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    details: Optional[Mapping[str, float]] = None,
) -> AnalyticIteration:
    """Estimate for schemes that stop at the ``K``-th arrival of i.i.d. workers.

    Parameters
    ----------
    threshold:
        The stopping index ``K``: a number (possibly fractional — the
        expectation of a random threshold) or an exact pmf mapping integer
        arrival counts to probabilities (e.g. from
        :func:`coupon_threshold_pmf`), in which case the mean is the exact
        mixture over the order statistics.
    compute_deterministic, compute_tail_mean:
        Per-*task* seconds: the deterministic compute part and the mean of
        its exponential tail (already scaled by the worker's example count).
    transfer_fixed, transfer_jitter_mean:
        Per-message transfer seconds (deterministic part, exponential-jitter
        mean) for this scheme's ``message_size``.
    serialize_master_link:
        Whether master-side receptions are serialised over one link.
    """
    n = int(num_workers)
    if isinstance(threshold, Mapping):
        pmf: Optional[Dict[int, float]] = {
            int(k): float(p) for k, p in threshold.items()
        }
        mean_k = float(_sum_in_order(k * p for k, p in pmf.items()))
    else:
        pmf = None
        mean_k = float(min(max(float(threshold), 1.0), n))
    k_round = int(min(max(round(mean_k), 1), n))
    levels = tuple(quantiles)

    if serialize_master_link:
        transfer_mean = transfer_fixed + transfer_jitter_mean
        max_k = max(pmf.keys()) if pmf else int(math.ceil(mean_k))
        arrivals = _serialized_arrival_means(
            n, min(max_k, n), compute_deterministic, compute_tail_mean, transfer_mean
        )

        def arrival_at(k: float) -> float:
            lower = int(min(max(math.floor(k), 1), len(arrivals)))
            upper = int(min(lower + 1, len(arrivals)))
            frac = min(max(k - lower, 0.0), 1.0)
            return arrivals[lower - 1] + frac * (
                arrivals[upper - 1] - arrivals[lower - 1]
            )

        if pmf:
            mean_total = _sum_in_order(p * arrivals[min(k, n) - 1] for k, p in pmf.items())
        else:
            mean_total = arrival_at(mean_k)
        computation = compute_deterministic + compute_tail_mean * _partial_harmonic(
            n, mean_k
        )
        # Spread approximation: the compute order statistic's dispersion plus
        # the last transfer's jitter.
        variance = (
            _order_stat_tail_variance(n, k_round, compute_tail_mean)
            + transfer_jitter_mean**2
        )
        if pmf:
            variance += _sum_in_order(
                p * (arrivals[min(k, n) - 1] - mean_total) ** 2 for k, p in pmf.items()
            )
        compute_kth_mean = computation
        sigma = math.sqrt(max(variance, 0.0))
        quantile_map = {}
        for q in levels:
            if sigma == 0.0:
                quantile_map[q] = mean_total
            else:
                quantile_map[q] = max(
                    mean_total + normal_quantile(q) * sigma, transfer_mean
                )
        mode = "serialized"
    else:
        deterministic = compute_deterministic + transfer_fixed
        tail_mean = compute_tail_mean + transfer_jitter_mean

        def mixture_mean(partial: Callable[[float], float]) -> float:
            if pmf:
                return _sum_in_order(p * partial(min(k, n)) for k, p in pmf.items())
            return partial(mean_k)

        mean_total = mixture_mean(
            lambda k: deterministic + tail_mean * _partial_harmonic(n, k)
        )
        computation = compute_deterministic + compute_tail_mean * _partial_harmonic(
            n, mean_k
        )
        variance = _order_stat_tail_variance(n, k_round, tail_mean)
        if pmf:
            variance += _sum_in_order(
                p
                * (
                    deterministic
                    + tail_mean * _partial_harmonic(n, min(k, n))
                    - mean_total
                )
                ** 2
                for k, p in pmf.items()
            )

        def order_stat_cdf(t: float) -> float:
            return _binomial_tail(n, k_round, _exp_cdf(t, deterministic, tail_mean))

        quantile_map = {}
        for q in levels:
            if tail_mean <= 0.0:
                quantile_map[q] = deterministic
            else:
                quantile_map[q] = _bisect_quantile(
                    order_stat_cdf, q, deterministic, mean_total + tail_mean
                )
        mode = "parallel"

    finished = n * _exp_cdf(mean_total, compute_deterministic, compute_tail_mean)
    extra = dict(details or {})
    extra.setdefault("expected_stopping_index", mean_k)
    return AnalyticIteration(
        scheme=scheme,
        total_time=float(mean_total),
        computation_time=float(computation),
        communication_time=float(max(mean_total - computation, 0.0)),
        recovery_threshold=mean_k,
        communication_load=mean_k * float(message_size),
        workers_finished_compute=float(finished),
        variance=float(max(variance, 0.0)),
        quantiles=quantile_map,
        mode=mode,
        details=extra,
    )


# --------------------------------------------------------------------------- #
# Fractional repetition: min over groups of group maxima
# --------------------------------------------------------------------------- #
def fractional_group_runtime(
    *,
    scheme: str,
    num_groups: int,
    group_size: int,
    compute_deterministic: float,
    compute_tail_mean: float,
    transfer_fixed: float,
    transfer_jitter_mean: float,
    message_size: float,
    serialize_master_link: bool,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
) -> AnalyticIteration:
    """Estimate for the fractional-repetition stopping rule.

    The master decodes when the first replication group has fully reported,
    so the iteration time is the minimum over ``num_groups`` i.i.d. group
    maxima. For i.i.d. exponential tails the expectation has the closed form

    .. math::

        E[T] = D + \\tau \\sum_{j=1}^{G} (-1)^{j+1} \\binom{G}{j} H_{gj},

    obtained by binomial expansion of the survival function
    ``(1 - F(t)^g)^G``. With a serialised link the expected stopping *index*
    (draws without replacement until a full group,
    :func:`expected_arrivals_until_group_complete`) feeds the serialised
    order-statistic recurrence instead.
    """
    groups = int(num_groups)
    size = int(group_size)
    n = groups * size
    expected_k = expected_arrivals_until_group_complete(groups, size)
    if serialize_master_link:
        estimate = order_statistic_runtime(
            scheme=scheme,
            num_workers=n,
            threshold=expected_k,
            compute_deterministic=compute_deterministic,
            compute_tail_mean=compute_tail_mean,
            transfer_fixed=transfer_fixed,
            transfer_jitter_mean=transfer_jitter_mean,
            message_size=message_size,
            serialize_master_link=True,
            quantiles=quantiles,
            details={"num_groups": float(groups), "group_size": float(size)},
        )
        return estimate

    deterministic = compute_deterministic + transfer_fixed
    tail_mean = compute_tail_mean + transfer_jitter_mean
    if tail_mean <= 0.0:
        mean_total = deterministic
        variance = 0.0
        quantile_map = {q: deterministic for q in quantiles}
    else:
        # Alternating-binomial harmonic sum; fsum keeps the cancellation tame.
        terms = [
            (-1.0) ** (j + 1) * math.comb(groups, j) * harmonic_number(size * j)
            for j in range(1, groups + 1)
        ]
        mean_total = deterministic + tail_mean * math.fsum(terms)

        def min_of_maxima_cdf(t: float) -> float:
            base = _exp_cdf(t, deterministic, tail_mean)
            return 1.0 - (1.0 - base**size) ** groups

        second_terms = [
            (-1.0) ** (j + 1)
            * math.comb(groups, j)
            * _squared_maximum_moment(size * j)
            for j in range(1, groups + 1)
        ]
        second_moment_tail = math.fsum(second_terms)  # E[(T - D)^2] / tail^2
        variance = max(
            tail_mean**2 * (second_moment_tail - math.fsum(terms) ** 2), 0.0
        )
        quantile_map = {
            q: _bisect_quantile(
                min_of_maxima_cdf, q, deterministic, mean_total + tail_mean
            )
            for q in quantiles
        }

    computation = compute_deterministic + (
        (mean_total - deterministic)
        * (compute_tail_mean / tail_mean if tail_mean > 0 else 0.0)
    )
    finished = n * _exp_cdf(mean_total, compute_deterministic, compute_tail_mean)
    return AnalyticIteration(
        scheme=scheme,
        total_time=float(mean_total),
        computation_time=float(computation),
        communication_time=float(max(mean_total - computation, 0.0)),
        recovery_threshold=float(expected_k),
        communication_load=float(expected_k) * float(message_size),
        workers_finished_compute=float(finished),
        variance=float(variance),
        quantiles=quantile_map,
        mode="parallel",
        details={
            "num_groups": float(groups),
            "group_size": float(size),
            "expected_stopping_index": float(expected_k),
        },
    )


def _squared_maximum_moment(a: int) -> float:
    """``E[max(E_1..E_a)^2]`` for unit-mean exponentials: ``H_a^2 + H_a^(2)``."""
    if a <= 0:
        return 0.0
    indices = np.arange(1, a + 1, dtype=float)
    h1 = float(np.sum(1.0 / indices))
    h2 = float(np.sum(1.0 / indices**2))
    return h1 * h1 + h2


# --------------------------------------------------------------------------- #
# Quadrature engines (heterogeneous schemes, parallel link)
# --------------------------------------------------------------------------- #
def _survival_moments(
    survival: Callable[[np.ndarray], np.ndarray],
    *,
    start: float,
    scale_hint: float,
    grid_points: int = 4097,
) -> Tuple[float, float, np.ndarray, np.ndarray]:
    """Mean and variance of a nonnegative rv from its survival function.

    Uses ``E[T] = ∫ S(t) dt`` and ``E[T^2] = 2 ∫ t S(t) dt`` on a trapezoid
    grid whose upper end is doubled until the survival is negligible.
    """
    upper = max(start + 8.0 * max(scale_hint, 1e-12), start * 1.5 + 1e-9)
    for _ in range(80):
        if float(survival(np.array([upper]))[0]) < 1e-12:
            break
        upper = start + 2.0 * (upper - start)
    grid = np.linspace(0.0, upper, int(grid_points))
    values = np.clip(survival(grid), 0.0, 1.0)
    mean = float(_trapezoid(values, grid))
    second = float(_trapezoid(2.0 * grid * values, grid))
    variance = max(second - mean * mean, 0.0)
    return mean, variance, grid, values


def _vector_exp_cdf(
    t: np.ndarray, deterministic: np.ndarray, tail_mean: np.ndarray
) -> np.ndarray:
    """Vectorised arrival CDF grid: shape ``(len(t), len(deterministic))``."""
    shifted = t[:, None] - deterministic[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.where(tail_mean > 0.0, 1.0 / np.maximum(tail_mean, 1e-300), np.inf)
    cdf = np.where(
        shifted >= 0.0,
        np.where(
            np.isinf(rates)[None, :],
            1.0,
            -np.expm1(-np.maximum(shifted, 0.0) * rates[None, :]),
        ),
        0.0,
    )
    return cdf


def maximum_runtime(
    *,
    scheme: str,
    arrival_parameters: Sequence[Tuple[float, float]],
    compute_parameters: Sequence[Tuple[float, float]],
    communication_load: float,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    details: Optional[Mapping[str, float]] = None,
) -> AnalyticIteration:
    """Estimate for wait-for-every-active-worker stopping rules.

    ``arrival_parameters`` holds one ``(deterministic, tail-mean)`` pair per
    *active* worker (idle workers excluded); the iteration ends at the
    maximum of the independent arrivals, whose survival function
    ``1 - prod_i F_i(t)`` is integrated exactly (group-wise identical workers
    simply contribute a power of their shared CDF).
    """
    det = np.array([p[0] for p in arrival_parameters], dtype=float)
    tail = np.array([p[1] for p in arrival_parameters], dtype=float)
    det_c = np.array([p[0] for p in compute_parameters], dtype=float)
    tail_c = np.array([p[1] for p in compute_parameters], dtype=float)

    def survival(t: np.ndarray) -> np.ndarray:
        return 1.0 - np.prod(_vector_exp_cdf(t, det, tail), axis=1)

    start = float(det.max(initial=0.0))
    scale = float(np.sum(tail) + 1.0e-12)
    mean, variance, _grid, _values = _survival_moments(
        survival, start=start, scale_hint=scale
    )

    def compute_survival(t: np.ndarray) -> np.ndarray:
        return 1.0 - np.prod(_vector_exp_cdf(t, det_c, tail_c), axis=1)

    computation, _cvar, _g, _v = _survival_moments(
        compute_survival, start=float(det_c.max(initial=0.0)), scale_hint=scale
    )

    def cdf(t: float) -> float:
        return float(np.prod(_vector_exp_cdf(np.array([t]), det, tail), axis=1)[0])

    quantile_map = {
        q: _bisect_quantile(cdf, q, start, mean + scale) for q in quantiles
    }
    finished = float(
        np.sum(_vector_exp_cdf(np.array([mean]), det_c, tail_c), axis=1)[0]
    )
    return AnalyticIteration(
        scheme=scheme,
        total_time=float(mean),
        computation_time=float(min(computation, mean)),
        communication_time=float(max(mean - computation, 0.0)),
        recovery_threshold=float(len(arrival_parameters)),
        communication_load=float(communication_load),
        workers_finished_compute=finished,
        variance=float(variance),
        quantiles=quantile_map,
        mode="parallel",
        details=dict(details or {}),
    )


def coverage_runtime(
    *,
    scheme: str,
    num_units: int,
    worker_loads: Sequence[int],
    arrival_parameters: Sequence[Tuple[float, float]],
    compute_parameters: Sequence[Tuple[float, float]],
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    details: Optional[Mapping[str, float]] = None,
) -> AnalyticIteration:
    """Estimate for heterogeneous random-coverage stopping rules.

    Worker ``i`` holds ``worker_loads[i]`` units drawn uniformly at random;
    the master stops at coverage of all ``m`` units. A unit is uncovered at
    time ``t`` with probability ``rho(t) = prod_i (1 - (l_i / m) F_i(t))``;
    treating units as independent (the Poissonisation the paper's Theorem 2
    analysis also leans on) gives completion CDF ``(1 - rho(t))^m``. A random
    placement covers every unit only with probability ``(1 - rho(inf))^m``,
    and the simulator re-draws placements until coverage is achievable
    (:meth:`~repro.schemes.base.Scheme.build_feasible_plan`), so the CDF is
    conditioned on that event before the quadrature. Entries with zero load
    contribute nothing.
    """
    m = int(num_units)
    loads = np.asarray(worker_loads, dtype=float)
    det = np.array([p[0] for p in arrival_parameters], dtype=float)
    tail = np.array([p[1] for p in arrival_parameters], dtype=float)
    det_c = np.array([p[0] for p in compute_parameters], dtype=float)
    tail_c = np.array([p[1] for p in compute_parameters], dtype=float)
    active = loads > 0
    if not np.any(active) or float(loads.sum()) < m:
        raise AnalyticIntractableError(
            "the workers jointly hold fewer unit selections than there are "
            "units; coverage can never complete"
        )
    fractions = loads[active] / float(m)
    # Probability the placement covers everything once every worker reported;
    # the simulator conditions on this event by re-drawing placements.
    rho_infinity = float(np.prod(1.0 - fractions))
    feasible = (1.0 - rho_infinity) ** m
    if feasible < 1e-6:
        raise AnalyticIntractableError(
            "a random placement with these loads almost never covers all "
            f"{m} units (coverage probability {feasible:.2e}); increase the "
            "loads or use a simulation backend"
        )

    def completion_cdf_grid(t: np.ndarray) -> np.ndarray:
        arrived = _vector_exp_cdf(t, det[active], tail[active])
        rho = np.prod(1.0 - fractions[None, :] * arrived, axis=1)
        return np.minimum((1.0 - rho) ** m / feasible, 1.0)

    def survival(t: np.ndarray) -> np.ndarray:
        return 1.0 - completion_cdf_grid(t)

    start = float(det[active].min(initial=0.0))
    scale = float(np.max(tail[active], initial=0.0) * (1.0 + math.log(max(m, 2))))
    mean, variance, _grid, _values = _survival_moments(
        survival, start=start, scale_hint=max(scale, 1e-12)
    )

    def compute_completion(t: np.ndarray) -> np.ndarray:
        arrived = _vector_exp_cdf(t, det_c[active], tail_c[active])
        rho = np.prod(1.0 - fractions[None, :] * arrived, axis=1)
        return np.minimum((1.0 - rho) ** m / feasible, 1.0)

    computation, _cv, _g, _v = _survival_moments(
        lambda t: 1.0 - compute_completion(t),
        start=float(det_c[active].min(initial=0.0)),
        scale_hint=max(scale, 1e-12),
    )

    quantile_map = {
        q: _bisect_quantile(
            lambda t: float(completion_cdf_grid(np.array([t]))[0]),
            q,
            start,
            mean + max(scale, 1e-12),
        )
        for q in quantiles
    }
    arrived_at_mean = _vector_exp_cdf(np.array([mean]), det, tail)[0]
    expected_heard = float(np.sum(arrived_at_mean[active]))
    expected_load = float(np.sum(loads[active] * arrived_at_mean[active]))
    finished = float(np.sum(_vector_exp_cdf(np.array([mean]), det_c, tail_c)[0]))
    return AnalyticIteration(
        scheme=scheme,
        total_time=float(mean),
        computation_time=float(min(computation, mean)),
        communication_time=float(max(mean - computation, 0.0)),
        recovery_threshold=expected_heard,
        communication_load=expected_load,
        workers_finished_compute=finished,
        variance=float(variance),
        quantiles=quantile_map,
        mode="parallel",
        details=dict(details or {}),
    )
