"""Vectorized batch timing engine.

:func:`simulate_job_vectorized` produces the *same* :class:`JobResult` as the
per-iteration loop engine (:func:`repro.simulation.job.simulate_job`) but
simulates all iterations of a job in NumPy: one ``(iterations, workers)``
matrix of computation-time draws, a vectorized serialized-master-link
recurrence, and per-scheme completion kernels that locate each iteration's
finishing arrival without instantiating an aggregator. On cluster-scale jobs
(thousands of workers x thousands of iterations) this is one to two orders of
magnitude faster than the loop.

The RNG draw-order contract
---------------------------
The loop engine consumes the job's random stream in this order:

1. per iteration, one computation-time draw per *active* worker (load > 0),
   in worker-index order;
2. then, still inside the iteration, one transfer-time draw per active worker
   in computation-completion order (stable sort).

The vectorized engine is bit-identical to the loop at a fixed seed because it
consumes exactly that stream, in one of three draw schedules picked from the
models alone:

* A **deterministic** communication model (``is_deterministic`` true, e.g.
  jitter-free :class:`~repro.stragglers.communication.LinearCommunicationModel`
  or :class:`~repro.stragglers.communication.ZeroCommunicationModel`) draws
  nothing in either engine, so the stream holds nothing but compute draws,
  iteration-major. One :meth:`~repro.stragglers.base.DelayModel.sample_grid`
  call draws the whole compute matrix: its contract is a row-major
  (iteration-major, worker-minor) fill that consumes the stream like the
  scalar loop, and NumPy's broadcast samplers fill C-order element by
  element.
* **The block draw.** When the communication model is stochastic and both
  the delay models and the link have an exponential form (the
  ``exponential_form`` hooks of :mod:`repro.stragglers.base`: every draw is
  ``offset + scale * E`` for one standard exponential ``E``), the stream
  of a trial is a flat sequence of standard exponentials: per iteration,
  ``n`` compute draws in worker order, then ``n`` transfer draws in
  completion order. The engine draws one ``(iterations, 2n)`` block of
  ``standard_exponential`` per trial and applies the affine maps itself —
  the same float operations the samplers perform, so the values and the
  generator's end state are bit-identical. On a dynamic cluster a row with
  ``u`` up workers holds ``2u`` draws (vacant slots draw nothing) and the
  rows sit at cumulative offsets of one flat block. The shift-exponential
  workers of the paper with a jittered link take this path.
* **The per-iteration interleave.** Any other stochastic combination —
  Pareto, trace or bimodal delays, mixed-class groups, subclasses that
  override ``sample`` — replays the loop's schedule: one ``sample_grid``
  row, then one batched transfer draw in completion order, per iteration.

Under a stochastic model both schedules already rank each row by
completion time to order the transfer draws; that ranking is handed to the
serialized-link recurrence, so compute is argsorted once per row. On the
serialized link that one sort is also the arrival ranking: the recurrence
``a_k = max(c_k, a_{k-1}) + t_k`` never decreases along completion order,
so its input and output are the ranked compute and arrival times. Only the
rows where two equal arrivals sit with the larger worker index first are
argsorted again, because the loop breaks arrival ties by worker index (so
would rows whose arrivals decrease, which only a negative transfer time
could cause). On the parallel link the arrivals ``c + t`` are argsorted
once. The
serialized-link recurrence and all completion kernels are pure computation:
they consume no randomness and reproduce the loop's floating-point
operation order (``max`` then ``+``, metric reductions over identically
ordered gathers), so the resulting summaries match byte for byte — the
property the equivalence suite pins down.

The engine returns its outcomes as columns, one array per
:class:`~repro.simulation.iteration.IterationOutcome` field with the heard
workers as a CSR index, wrapped in a
:class:`~repro.simulation.job.ColumnarOutcomeLog`; no outcome object is
built unless one is read. Each iteration's communication load comes from
one ``np.sum(..., axis=1)`` per distinct heard count, which adds every row's
message sizes in the order of the loop's ``np.sum(message_sizes[heard])``.

Completion kernels exist for every built-in aggregator: fixed worker set
(uncoded, load-balanced), arrival count (ignore-stragglers), batch
coupon-collector coverage (BCC), unit coverage (randomized,
generalized-BCC), replication-group completion (fractional repetition), and
a prefix-decodability walk replicating :class:`CodedAggregator`'s
``check_every`` cadence (cyclic repetition, Reed-Solomon). Schemes with a
custom aggregator fall back to a scalar completion scan that feeds the
plan's own aggregator — draws and arrival times stay vectorized, so the
fallback is still far faster than the loop engine.

Trial batching
--------------
:func:`simulate_job_batch` adds a third axis: it simulates ``T`` independent
Monte-Carlo *trials* of the same job in one engine entry. The plan is
resolved once, the draws are made (one ``(trials x iterations x workers)``
tensor through :meth:`~repro.stragglers.base.DelayModel.sample_trials` under a
deterministic link, one draw schedule per trial otherwise), and the arrival
recurrence + completion kernels run over the stacked
``(trials * iterations, workers)`` row matrix — rows are independent, so the
per-row machinery of :func:`_complete_batch` applies unchanged. The **RNG
contract** extends the solo engine's:

* ``seeds[t]`` drives trial ``t`` and only trial ``t``. When a
  :class:`~repro.schemes.base.Scheme` (not a plan) is passed, the plan is
  resolved from ``seeds[0]``'s generator first — exactly where a solo run at
  ``seeds[0]`` would resolve it — and then *shared* by every trial.
* Consequently trial ``0`` is bit-identical to
  ``simulate_job_vectorized(scheme, ..., rng=seeds[0])`` and every trial
  ``t`` is bit-identical to ``simulate_job_vectorized(plan, ...,
  rng=seeds[t])`` with the shared plan passed in (plan resolution consumes
  no randomness then). For schemes whose placement is deterministic the two
  statements coincide: every trial matches a solo *scheme* run at its seed.

Memory stays bounded: trials are processed in chunks so the stacked row
matrices never exceed ``_BATCH_CELL_BUDGET`` cells, whatever the trial
count.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.dynamic import DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.coding.fractional import FractionalRepetitionCode
from repro.coding.linear_code import LinearGradientCode
from repro.exceptions import ConfigurationError, SimulationError
from repro.schemes.approximate import PartialSumAggregator
from repro.schemes.base import (
    BatchCoverageAggregator,
    CodedAggregator,
    CountAggregator,
    ExecutionPlan,
    Scheme,
    UnitCoverageAggregator,
)
from repro.simulation.iteration import incomplete_iteration_error
from repro.simulation.job import ColumnarOutcomeLog, JobResult, _resolve_plan
from repro.simulation.kernels import KernelSuite, get_suite
from repro.stragglers.base import DelayModel
from repro.stragglers.dynamics import UnavailableDelay, memoize_by_id
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "ENGINES",
    "resolve_engine",
    "simulate_job_batch",
    "simulate_job_vectorized",
    "validate_engine",
]

#: Recognised engine names for the ``engine=`` knobs across the stack.
ENGINES = ("loop", "vectorized", "auto")

#: ``auto`` picks the vectorized engine once the job is at least this many
#: (trial, iteration, worker) cells; below it the loop's lower setup cost
#: wins. Measured with an uncoded job on a shift-exponential cluster: the
#: loop is faster at 8 cells (~0.31 vs ~0.44 ms), the vectorized engine at
#: 16 (~0.46 vs ~0.55 ms). The two engines produce identical results either
#: way, so the constant only moves the speed crossover, never a result.
_AUTO_THRESHOLD = 16

#: A completion kernel maps (positions, arrival order) matrices to the
#: 0-based arrival position that completes each iteration; the sentinel
#: value ``n_active`` means "never completes".
_Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Trial-batched runs chunk the trial axis so the stacked
#: ``(trials * iterations, workers)`` row matrices stay below this many
#: cells (~128 MiB of float64 per matrix at the default): a sweep cell with
#: thousands of trials streams through in bounded memory. Chunk boundaries
#: fall between whole trials and rows are independent, so chunking cannot
#: change any result.
_BATCH_CELL_BUDGET = 1 << 24


def validate_engine(engine: str) -> str:
    """Validate an ``engine`` knob value, returning it unchanged.

    The single source of the unknown-engine error for every knob
    (``simulate_job``, ``TimingSimBackend``, the CLI's argparse choices).
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {list(ENGINES)}"
        )
    return engine


def resolve_engine(
    engine: str, *, num_iterations: int, num_workers: int, num_trials: int = 1
) -> str:
    """Resolve an ``engine`` knob value to ``"loop"`` or ``"vectorized"``.

    ``num_trials`` sizes the cutover for trial-batched execution: a batched
    cell amortises the vectorized engine's setup over every trial, so
    ``auto`` decides on the full ``trials x iterations x workers`` volume,
    not the solo job size.
    """
    validate_engine(engine)
    if engine == "auto":
        if num_iterations * num_workers * max(int(num_trials), 1) >= _AUTO_THRESHOLD:
            return "vectorized"
        return "loop"
    return engine


def simulate_job_vectorized(
    scheme_or_plan: Scheme | ExecutionPlan,
    cluster: ClusterSpec,
    num_units: int,
    num_iterations: int,
    rng: RandomState = None,
    *,
    unit_size: int = 1,
    serialize_master_link: bool = True,
) -> JobResult:
    """Batch-simulate ``num_iterations`` timing-only iterations in NumPy.

    Drop-in replacement for :func:`repro.simulation.job.simulate_job` with
    ``engine="loop"``: same signature, same random-stream consumption, and a
    bit-identical :class:`JobResult` at a fixed seed (see the module
    docstring for the draw-order contract the guarantee rests on).
    """
    check_positive_int(num_iterations, "num_iterations")
    suite = get_suite("numpy")
    generator = as_generator(rng)
    plan = _resolve_plan(scheme_or_plan, num_units, cluster.num_workers, generator)
    if isinstance(cluster, DynamicClusterSpec):
        columns = _simulate_dynamic_batch(
            plan,
            cluster,
            generator,
            num_iterations=num_iterations,
            unit_size=unit_size,
            serialize_master_link=serialize_master_link,
            suite=suite,
        )
    else:
        columns = _simulate_plan_batch(
            plan,
            cluster,
            generator,
            num_iterations=num_iterations,
            unit_size=unit_size,
            serialize_master_link=serialize_master_link,
            suite=suite,
        )
    return JobResult(
        scheme_name=plan.scheme_name, iterations=ColumnarOutcomeLog(*columns)
    )


def simulate_job_batch(
    scheme_or_plan: Scheme | ExecutionPlan,
    cluster: ClusterSpec,
    num_units: int,
    num_iterations: int,
    seeds: Sequence[RandomState],
    *,
    unit_size: int = 1,
    serialize_master_link: bool = True,
) -> List[JobResult]:
    """Simulate ``len(seeds)`` independent Monte-Carlo trials of one job.

    The trial-batched engine entry point (see the module docstring's "Trial
    batching" section): the plan is resolved **once** — from ``seeds[0]``'s
    generator, exactly where a solo run at ``seeds[0]`` would resolve it —
    and shared by every trial; each trial ``t`` then consumes its own
    ``seeds[t]`` stream precisely like :func:`simulate_job_vectorized` with
    the shared plan passed in, which makes every returned
    :class:`~repro.simulation.job.JobResult` bit-identical to the
    corresponding solo run. The arrival recurrence and completion kernels
    run once over the stacked ``(trials * iterations, workers)`` rows (in
    memory-bounded trial chunks), so per-trial Python and planning overhead
    — the cost that dominates short Monte-Carlo replications — is paid once
    per *cell* instead of once per trial.

    Note the shared-plan semantics: a scheme with a *random* placement
    (e.g. BCC) freezes one placement for all trials here, whereas a loop of
    solo scheme runs would re-draw it per trial. Callers that need to
    average over placements (not just over completion-time draws) should
    keep per-trial runs; :func:`repro.api.sweep.run_sweep`'s ``"auto"``
    trial-batching mode makes exactly that distinction.

    Parameters
    ----------
    seeds:
        One seed-like value (int, ``SeedSequence``, ``Generator``) per
        trial. An empty sequence is a configuration error.

    Raises
    ------
    SimulationError
        If *any* trial contains an iteration that cannot complete; the whole
        batch fails, like the failing solo run would.
    """
    check_positive_int(num_iterations, "num_iterations")
    if len(seeds) == 0:
        raise ConfigurationError("simulate_job_batch needs at least one trial seed")
    suite = get_suite("numpy")
    generators = [as_generator(seed) for seed in seeds]
    plan = _resolve_plan(
        scheme_or_plan, num_units, cluster.num_workers, generators[0]
    )
    active, active_loads, message_sizes, active_sizes = _active_arrays(
        plan, cluster, unit_size
    )
    dynamic = isinstance(cluster, DynamicClusterSpec)
    if not dynamic:
        models = cluster.delay_models()
        active_models = [models[int(worker)] for worker in active]
    communication = cluster.communication
    n_active = int(active.size)

    # Chunk the trial axis so the stacked row matrices stay memory-bounded;
    # chunk boundaries fall between whole trials and every row is
    # independent, so the chunking is invisible in the results.
    trials_per_chunk = max(1, _BATCH_CELL_BUDGET // max(num_iterations * n_active, 1))
    results: List[JobResult] = []
    for start in range(0, len(generators), trials_per_chunk):
        chunk = generators[start : start + trials_per_chunk]
        order = None
        if not dynamic and communication.is_deterministic:
            # The 3-D fast path: one tensor through sample_trials (trial-
            # major, so the C-order reshape keeps each trial's rows intact).
            compute = type(active_models[0]).sample_trials(
                active_models, active_loads, chunk, num_iterations
            ).reshape(len(chunk) * num_iterations, n_active)
            transfer = np.broadcast_to(
                communication.sample_batch(active_sizes), compute.shape
            )
        else:
            compute = np.empty((len(chunk) * num_iterations, n_active), dtype=float)
            transfer = np.empty_like(compute)
            if serialize_master_link and not communication.is_deterministic:
                order = np.empty(compute.shape, dtype=np.intp)
            for t, generator in enumerate(chunk):
                rows = slice(t * num_iterations, (t + 1) * num_iterations)
                if dynamic:
                    draws = _draw_dynamic_matrices(
                        cluster,
                        plan,
                        active,
                        active_loads,
                        active_sizes,
                        generator,
                        num_iterations,
                    )
                else:
                    draws = _draw_stationary_matrices(
                        active_models,
                        active_loads,
                        active_sizes,
                        communication,
                        generator,
                        num_iterations,
                    )
                compute[rows], transfer[rows], ranked = _for_link(
                    draws, serialize_master_link
                )
                if order is not None:
                    order[rows] = ranked
        totals, computations, communications, counts, loads, finished, heard = (
            _complete_batch(
                plan, active, message_sizes, compute, transfer,
                serialize_master_link, suite, order,
            )
        )
        # Each trial's log views its rows of the columns and its span of
        # the heard index (row r's heard workers end at heard_ends[r + 1]).
        heard_ends = np.concatenate(([0], np.cumsum(counts)))
        for t in range(len(chunk)):
            rows = slice(t * num_iterations, (t + 1) * num_iterations)
            log = ColumnarOutcomeLog(
                totals[rows],
                computations[rows],
                communications[rows],
                counts[rows],
                loads[rows],
                finished[rows],
                heard[heard_ends[rows.start] : heard_ends[rows.stop]],
            )
            results.append(JobResult(scheme_name=plan.scheme_name, iterations=log))
    return results


# --------------------------------------------------------------------------- #
# Engine core
# --------------------------------------------------------------------------- #
def _active_arrays(plan: ExecutionPlan, cluster, unit_size: int):
    """Per-plan invariants shared by every iteration (and every trial).

    Returns ``(active, active_loads, message_sizes, active_sizes)`` where
    ``active`` indexes the workers with a positive example load; raises when
    the plan/cluster sizes disagree or no worker computes anything.
    """
    if cluster.num_workers != plan.num_workers:
        raise SimulationError(
            f"the plan has {plan.num_workers} workers but the cluster has "
            f"{cluster.num_workers}"
        )
    check_positive_int(unit_size, "unit_size")
    loads_examples = plan.unit_assignment.loads * unit_size
    active = np.flatnonzero(loads_examples > 0)
    if active.size == 0:
        raise _infeasible(plan)
    message_sizes = np.asarray(plan.message_sizes, dtype=float)
    return active, loads_examples[active], message_sizes, message_sizes[active]


def _draw_stationary_matrices(
    active_models: List[DelayModel],
    active_loads: np.ndarray,
    active_sizes: np.ndarray,
    communication,
    generator: np.random.Generator,
    num_iterations: int,
) -> tuple:
    """One trial's ``(compute, transfer, order)`` draws.

    The single shared implementation of the stationary draw schedule (see
    the module docstring). Each matrix is ``(num_iterations, n_active)``.
    Under a deterministic communication model ``order`` is ``None`` and
    ``transfer`` is in worker order. Under a stochastic one ``order`` is
    each row's stable completion order and ``transfer`` is laid out in it.
    """
    if communication.is_deterministic:
        compute = _draw_compute_grid(
            active_models, active_loads, generator, num_iterations
        )
        transfer = np.broadcast_to(
            communication.sample_batch(active_sizes), compute.shape
        )
        return compute, transfer, None
    fused = _draw_grid_block(
        active_models, active_loads, active_sizes, communication, generator,
        num_iterations,
    )
    if fused is not None:
        return fused
    # Any other sampler: replay the loop's per-iteration interleave.
    n_active = int(active_loads.size)
    compute = np.empty((num_iterations, n_active), dtype=float)
    transfer = np.empty((num_iterations, n_active), dtype=float)
    order = np.empty((num_iterations, n_active), dtype=np.intp)
    for i in range(num_iterations):
        compute[i] = _draw_compute_grid(active_models, active_loads, generator, 1)[0]
        order[i] = np.argsort(compute[i], kind="stable")
        transfer[i] = communication.sample_batch(active_sizes[order[i]], generator)
    return compute, transfer, order


def _draw_dynamic_matrices(
    cluster: DynamicClusterSpec,
    plan: ExecutionPlan,
    active: np.ndarray,
    active_loads: np.ndarray,
    active_sizes: np.ndarray,
    generator: np.random.Generator,
    num_iterations: int,
) -> tuple:
    """One trial's ``(compute, transfer, order)`` draws on a dynamic cluster.

    The draw schedule mirrors the loop engine's exactly: the timeline is
    materialised first (one draw when the spec derives its dynamics seed
    from the job stream), then each iteration draws compute times for its
    *available* workers in worker order — vacant slots consume nothing —
    followed, for stochastic communication models, by that iteration's
    transfer draws in completion order over the workers that finished.
    The return layout is :func:`_draw_stationary_matrices`'; a vacant
    slot's compute time is ``inf`` and its transfer time ``0``.
    """
    timeline = cluster.materialize(num_iterations, generator)
    communication = cluster.communication
    n_active = int(active.size)

    if n_active == plan.num_workers:
        model_rows = timeline.models  # every worker active: no reshaping
        up = timeline.availability
    else:
        model_rows = [
            [timeline.models[t][int(worker)] for worker in active]
            for t in range(num_iterations)
        ]
        up = timeline.availability[:, active]
    if communication.is_deterministic:
        compute = _draw_timeline_compute(model_rows, active_loads, generator)
        transfer = np.broadcast_to(
            communication.sample_batch(active_sizes), compute.shape
        )
        return compute, transfer, None
    fused = _draw_timeline_block(
        model_rows, up, active_loads, active_sizes, communication, generator
    )
    if fused is not None:
        return fused
    # Any other sampler: replay the loop's per-iteration interleave. Finite
    # compute times sort first, so the workers that finished are a prefix
    # of the completion order.
    compute = np.empty((num_iterations, n_active), dtype=float)
    transfer = np.zeros((num_iterations, n_active), dtype=float)
    order = np.empty((num_iterations, n_active), dtype=np.intp)
    is_down = memoize_by_id(_is_vacant)
    for i in range(num_iterations):
        compute[i] = _draw_timeline_row(model_rows[i], active_loads, generator, is_down)
        order[i] = np.argsort(compute[i], kind="stable")
        finished = int(np.count_nonzero(np.isfinite(compute[i])))
        if finished:
            transfer[i, :finished] = communication.sample_batch(
                active_sizes[order[i, :finished]], generator
            )
    return compute, transfer, order


def _for_link(draws: tuple, serialize_master_link: bool) -> tuple:
    """The ``(compute, transfer, order)`` draws as :func:`_complete_batch`
    takes them.

    Only the serialized link uses the completion order; for the parallel
    link the transfers go back to worker order and ``order`` is dropped, so
    a trial-batched cell does not stack a rank matrix it never reads.
    """
    compute, transfer, order = draws
    if order is None or serialize_master_link:
        return draws
    unranked = np.empty_like(transfer)
    np.put_along_axis(unranked, order, transfer, axis=1)
    return compute, unranked, None


def _draw_grid_block(
    models: List[DelayModel],
    loads: np.ndarray,
    sizes: np.ndarray,
    communication,
    generator: np.random.Generator,
    num_iterations: int,
) -> Optional[tuple]:
    """The block draw over a stationary cluster, or ``None`` when a model
    has no exponential form.

    Row ``i`` of one ``(num_iterations, 2n)`` standard-exponential block
    holds iteration ``i``'s ``n`` compute draws in worker order, then its
    ``n`` transfer draws in completion order.
    """
    transfer_form = communication.exponential_form(sizes)
    if transfer_form is None:
        return None
    compute_form = type(models[0]).exponential_form(models, loads)
    if compute_form is None:
        return None
    n = len(models)
    block = generator.standard_exponential((num_iterations, 2 * n))
    compute = compute_form[0] + compute_form[1] * block[:, :n]
    order = np.argsort(compute, axis=1, kind="stable")
    transfer = transfer_form[0][order] + transfer_form[1][order] * block[:, n:]
    return compute, transfer, order


def _draw_timeline_block(
    model_rows: Sequence[Sequence[DelayModel]],
    up: np.ndarray,
    loads: np.ndarray,
    sizes: np.ndarray,
    communication,
    generator: np.random.Generator,
) -> Optional[tuple]:
    """The block draw over a timeline, or ``None`` when a model has no
    exponential form.

    Row ``i`` with ``u`` up workers owns ``2u`` consecutive draws of one
    standard-exponential block: ``u`` compute draws in worker order, then
    ``u`` transfer draws in completion order. Vacant slots draw nothing.
    ``up`` is the timeline's availability matrix, which marks vacant exactly
    the slots :meth:`~repro.cluster.dynamic.DynamicClusterSpec.materialize`
    filled with a vacant model; every other slot goes through the
    exponential-form hook, which refuses a vacant model a process reported
    as available.
    """
    transfer_form = communication.exponential_form(sizes)
    if transfer_form is None:
        return None
    cells = list(
        itertools.compress(
            itertools.chain.from_iterable(model_rows), up.ravel().tolist()
        )
    )
    if not cells:
        return None
    compute_form = type(cells[0]).exponential_form(
        cells, np.broadcast_to(loads, up.shape)[up]
    )
    if compute_form is None:
        return None
    counts = np.count_nonzero(up, axis=1)
    starts = np.cumsum(2 * counts) - 2 * counts
    block = generator.standard_exponential(2 * int(counts.sum()))
    compute = np.full(up.shape, np.inf)
    slots = starts[:, None] + np.cumsum(up, axis=1) - 1
    compute[up] = compute_form[0] + compute_form[1] * block[slots[up]]
    order = np.argsort(compute, axis=1, kind="stable")
    finished = np.arange(up.shape[1]) < counts[:, None]
    workers = order[finished]
    slots = (starts + counts)[:, None] + np.arange(up.shape[1])
    transfer = np.zeros(up.shape)
    transfer[finished] = (
        transfer_form[0][workers] + transfer_form[1][workers] * block[slots[finished]]
    )
    return compute, transfer, order


def _simulate_plan_batch(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    rng: RandomState,
    *,
    num_iterations: int,
    unit_size: int,
    serialize_master_link: bool,
    suite: KernelSuite,
) -> Tuple[np.ndarray, ...]:
    generator = as_generator(rng)
    active, active_loads, message_sizes, active_sizes = _active_arrays(
        plan, cluster, unit_size
    )
    models = cluster.delay_models()
    active_models = [models[int(worker)] for worker in active]
    draws = _draw_stationary_matrices(
        active_models,
        active_loads,
        active_sizes,
        cluster.communication,
        generator,
        num_iterations,
    )
    compute, transfer, order = _for_link(draws, serialize_master_link)
    return _complete_batch(
        plan, active, message_sizes, compute, transfer, serialize_master_link, suite,
        order,
    )


def _simulate_dynamic_batch(
    plan: ExecutionPlan,
    cluster: DynamicClusterSpec,
    rng: RandomState,
    *,
    num_iterations: int,
    unit_size: int,
    serialize_master_link: bool,
    suite: KernelSuite,
) -> Tuple[np.ndarray, ...]:
    """Batch-simulate a job on a :class:`DynamicClusterSpec`.

    Everything downstream of the draws (arrival recurrence, completion
    kernels, metric assembly) is the same batched code the stationary path
    runs, so the bit-identity guarantee carries over; see
    :func:`_draw_dynamic_matrices` for the draw schedule.
    """
    generator = as_generator(rng)
    active, active_loads, message_sizes, active_sizes = _active_arrays(
        plan, cluster, unit_size
    )
    draws = _draw_dynamic_matrices(
        cluster, plan, active, active_loads, active_sizes, generator, num_iterations
    )
    compute, transfer, order = _for_link(draws, serialize_master_link)
    return _complete_batch(
        plan, active, message_sizes, compute, transfer, serialize_master_link, suite,
        order,
    )


def _complete_batch(
    plan: ExecutionPlan,
    active: np.ndarray,
    message_sizes: np.ndarray,
    compute: np.ndarray,
    transfer: np.ndarray,
    serialize_master_link: bool,
    suite: KernelSuite,
    order: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, ...]:
    """Completion search + metric assembly over drawn timing matrices.

    Shared tail of the stationary and dynamic paths. ``compute`` may hold
    ``inf`` for workers that are vacant in an iteration (dynamic clusters):
    infinite entries sort after every finite arrival, the serialized-link
    recurrence propagates them unchanged, and an iteration whose completing
    arrival is infinite is infeasible — exactly the loop engine's behaviour.
    The arrival recurrence and per-scheme completion searches run on
    ``suite``'s kernels (:mod:`repro.simulation.kernels`).

    ``order``, given only on a serialized link (see :func:`_for_link`), is
    ``compute``'s stable per-row argsort that the draws already computed;
    ``transfer`` is then laid out in that completion order instead of worker
    order. It is reused (and rewritten in place) as the arrival ranking.

    Returns one array per :class:`~repro.simulation.iteration.IterationOutcome`
    field, one entry per row, in field order — the
    :class:`~repro.simulation.job.ColumnarOutcomeLog` layout, whose last
    array is the flat heard index.
    """
    num_rows, n_active = compute.shape

    # 2. Arrival times at the master, ranked. On the serialized link the
    #    recurrence a_k = max(c_k, a_{k-1}) + t_k runs over completion-sorted
    #    columns in the loop engine's exact per-row float-op order (a
    #    cumsum/running-max rewrite would be algebraically equal but rounded
    #    differently). With t_k >= 0 its output never decreases, so the
    #    completion order already ranks the arrivals, and the recurrence's
    #    input and output are the ranked compute and arrival times.
    if serialize_master_link:
        if order is None:
            order = np.argsort(compute, axis=1, kind="stable")
            transfer = np.take_along_axis(transfer, order, axis=1)
        compute_ranked = np.take_along_axis(compute, order, axis=1)
        arrival_ranked = suite.link_recurrence(compute_ranked, transfer)
        arrival_order = order
        # The loop ranks arrivals with a stable argsort in worker order, so
        # equal arrivals go smallest worker first. Re-sort the rows where
        # the completion order breaks that (or, were a transfer time
        # negative, where the arrivals decrease).
        earlier, later = arrival_ranked[:, :-1], arrival_ranked[:, 1:]
        unordered = later <= earlier
        if unordered.any():
            misranked = np.flatnonzero(
                np.any(
                    unordered & ((later < earlier) | (order[:, 1:] < order[:, :-1])),
                    axis=1,
                )
            )
            arrivals = np.empty((misranked.size, n_active))
            np.put_along_axis(
                arrivals, order[misranked], arrival_ranked[misranked], axis=1
            )
            resorted = np.argsort(arrivals, axis=1, kind="stable")
            arrival_order[misranked] = resorted
            arrival_ranked[misranked] = np.take_along_axis(arrivals, resorted, axis=1)
            compute_ranked[misranked] = np.take_along_axis(
                compute[misranked], resorted, axis=1
            )
    else:
        arrivals = compute + transfer
        arrival_order = np.argsort(arrivals, axis=1, kind="stable")
        arrival_ranked = np.take_along_axis(arrivals, arrival_order, axis=1)
        compute_ranked = np.take_along_axis(compute, arrival_order, axis=1)

    # 3. Per-iteration completion position (rank of the finishing arrival).
    positions = np.empty_like(arrival_order)
    np.put_along_axis(
        positions,
        arrival_order,
        np.broadcast_to(np.arange(n_active), arrival_order.shape),
        axis=1,
    )
    kernel = _build_kernel(plan, active, suite)
    if kernel is None:
        completing = _fallback_positions(plan, active, arrival_order)
    else:
        completing = kernel(positions, arrival_order)
    if np.any(completing >= n_active):
        raise _infeasible(plan)

    # 4. Assemble the columns. Every batched reduction below is order-exact
    #    (max is a selection, counting sums are integer), so the metrics
    #    carry the same floats as the loop engine's expressions.
    rows = np.arange(num_rows)
    total_times = arrival_ranked[rows, completing]
    if not np.all(np.isfinite(total_times)):
        # The completing arrival is a vacant slot's: the aggregator can only
        # finish on workers that left/were preempted, i.e. coverage is lost
        # for that iteration (dynamic clusters only). Report the first
        # failing iteration's vacancy count, like the loop engine would.
        first_bad = int(np.argmin(np.isfinite(total_times)))
        raise _infeasible(plan, int(np.sum(~np.isfinite(compute[first_bad]))))
    computation_times = np.maximum.accumulate(compute_ranked, axis=1)[rows, completing]
    workers_finished = np.count_nonzero(compute <= total_times[:, None], axis=1)
    counts = completing + 1
    heard = active[arrival_order[np.arange(n_active) < counts[:, None]]]
    # The loop sums each iteration's heard message sizes with one np.sum
    # over its arrival-ordered gather; np.sum(..., axis=1) over the rows
    # that heard equally many workers adds each row in that same order.
    ranked_sizes = message_sizes[active][arrival_order]
    by_count = np.argsort(counts, kind="stable")
    sorted_counts = counts[by_count]
    changes = np.flatnonzero(sorted_counts[1:] != sorted_counts[:-1]) + 1
    bounds = [0, *changes.tolist(), num_rows]
    loads = np.empty(num_rows)
    for start, stop in zip(bounds, bounds[1:]):
        same = by_count[start:stop]
        loads[same] = np.sum(ranked_sizes[same, : sorted_counts[start]], axis=1)
    return (
        total_times,
        computation_times,
        np.maximum(total_times - computation_times, 0.0),
        counts,
        loads,
        workers_finished,
        heard.astype(np.int32),
    )


def _is_vacant(model: DelayModel) -> bool:
    return isinstance(model, UnavailableDelay)


def _draw_timeline_row(
    row: Sequence[DelayModel],
    loads: np.ndarray,
    rng: RandomState,
    is_down: Optional[Callable[[DelayModel], bool]] = None,
) -> np.ndarray:
    """One iteration's compute draws over a time-varying model row.

    Vacant slots (:class:`~repro.stragglers.dynamics.UnavailableDelay`) get
    ``inf`` without touching the generator; the available workers draw in
    worker-index order through their most specific :meth:`sample_grid` —
    the loop engine's exact consumption order for that iteration.
    ``is_down`` (a :func:`~repro.stragglers.dynamics.memoize_by_id`-wrapped
    vacancy check shared across a job's rows) avoids re-classifying the few
    distinct model instances a timeline repeats.
    """
    if is_down is None:
        is_down = _is_vacant
    up = [j for j, model in enumerate(row) if not is_down(model)]
    out = np.full(len(row), np.inf, dtype=float)
    if up:
        models = [row[j] for j in up]
        up_loads = [int(loads[j]) for j in up]
        out[up] = type(models[0]).sample_grid(models, up_loads, rng, 1)[0]
    return out


def _draw_timeline_compute(
    model_rows: List[List[DelayModel]], loads: np.ndarray, rng: RandomState
) -> np.ndarray:
    """All iterations' compute draws over a time-varying model grid.

    Contiguous runs of iterations whose rows are *all native* under the run's
    leading model class are drawn with one :meth:`sample_timeline` call (for
    shift-exponential timelines — the Markov/drift regimes — that is a single
    batched NumPy draw); rows containing vacant slots or mixed classes fall
    back to :func:`_draw_timeline_row`. Either way the stream is consumed
    iteration-major, worker-minor, matching the loop engine.
    """
    generator = as_generator(rng)
    num_rows = len(model_rows)
    out = np.empty((num_rows, len(loads)), dtype=float)
    # Timelines repeat few distinct model objects, so the per-cell
    # native-sampler and vacancy checks are memoized on object identity
    # (one memo per lead class) — block detection costs O(cells) dict hits
    # instead of O(cells) abc instance checks.
    native_memos: dict = {}
    is_down = memoize_by_id(_is_vacant)

    def row_native(lead: type, row: Sequence[DelayModel]) -> bool:
        memo = native_memos.get(lead)
        if memo is None:
            memo = memoize_by_id(
                lambda model: isinstance(model, lead)
                and type(model).sample is lead.sample
            )
            native_memos[lead] = memo
        return all(memo(model) for model in row)

    start = 0
    while start < num_rows:
        lead = type(model_rows[start][0])
        end = start
        while end < num_rows and row_native(lead, model_rows[end]):
            end += 1
        if end > start:
            out[start:end] = lead.sample_timeline(
                model_rows[start:end], loads, generator
            )
            start = end
        else:
            out[start] = _draw_timeline_row(
                model_rows[start], loads, generator, is_down
            )
            start += 1
    return out


def _infeasible(plan: ExecutionPlan, vacant_workers: int = 0) -> SimulationError:
    return incomplete_iteration_error(plan.scheme_name, vacant_workers)


def _draw_compute_grid(
    models: Sequence, loads: np.ndarray, rng: RandomState, num_draws: int
) -> np.ndarray:
    """Dispatch the grid draw to the models' most specific ``sample_grid``."""
    return type(models[0]).sample_grid(models, loads, rng, num_draws)


# --------------------------------------------------------------------------- #
# Completion kernels
# --------------------------------------------------------------------------- #
def _build_kernel(
    plan: ExecutionPlan, active: np.ndarray, suite: KernelSuite
) -> Optional[_Kernel]:
    """Vectorized completion kernel for the plan's aggregator, or ``None``.

    Dispatch is on the *exact* aggregator type produced by a probe
    instantiation — subclasses may change the stopping rule, so they take
    the scalar fallback. The aggregator-specific preprocessing (index
    translation, feasibility screens, segment layout) happens here, once per
    batch; the per-row searches run on ``suite``'s kernels.
    """
    probe = plan.new_aggregator()
    n_active = int(active.size)
    position_of_worker = np.full(plan.num_workers, -1, dtype=int)
    position_of_worker[active] = np.arange(n_active)

    if type(probe) is CountAggregator:
        required = position_of_worker[np.asarray(probe.required_workers, dtype=int)]
        if np.any(required < 0):
            # A required worker never computes, so no iteration completes.
            return lambda positions, order: np.full(
                positions.shape[0], n_active, dtype=int
            )
        return lambda positions, order: suite.count_completion(positions, required)

    if type(probe) is PartialSumAggregator:
        eligible = position_of_worker[np.flatnonzero(probe.example_counts > 0)]
        eligible = eligible[eligible >= 0]
        needed = probe.required_count
        if needed > eligible.size:
            return lambda positions, order: np.full(
                positions.shape[0], n_active, dtype=int
            )
        return lambda positions, order: suite.partial_sum_completion(
            positions, eligible, needed
        )

    if type(probe) is BatchCoverageAggregator:
        batches = np.asarray(probe.worker_batches, dtype=int)[active]
        return _coverage_kernel(
            batches, np.arange(n_active), probe.num_batches, suite
        )

    if type(probe) is UnitCoverageAggregator:
        assignment = probe.assignment
        units = [assignment.assignments[worker] for worker in active.tolist()]
        return _coverage_kernel(
            np.concatenate(units),
            np.repeat(np.arange(n_active), assignment.loads[active]),
            probe.num_units,
            suite,
        )

    if type(probe) is CodedAggregator:
        return _coded_kernel(probe, active, position_of_worker, suite)

    return None


def _coverage_kernel(
    items: np.ndarray,
    owner_positions: np.ndarray,
    num_items: int,
    suite: KernelSuite,
) -> _Kernel:
    """Coupon-collector completion: last item to be covered for the first time.

    ``items[p]`` is covered whenever the active worker at column
    ``owner_positions[p]`` arrives; an iteration completes at the maximum
    over items of the earliest covering arrival. The (item, owner) pairs are
    sorted by item once here; each row then reduces to a segment minimum
    followed by a row maximum on the suite's coverage kernel.
    """
    if items.size == 0 or np.unique(items).size < num_items:
        # Some item has no owner: no amount of waiting covers it.
        return lambda positions, order: np.full(
            positions.shape[0], positions.shape[1], dtype=int
        )
    by_item = np.argsort(items, kind="stable")
    owners_sorted = owner_positions[by_item]
    segment_starts = np.flatnonzero(
        np.concatenate(([True], np.diff(items[by_item]) > 0))
    )
    return lambda positions, order: suite.coverage_completion(
        positions, owners_sorted, segment_starts
    )


def _coded_kernel(
    probe: CodedAggregator,
    active: np.ndarray,
    position_of_worker: np.ndarray,
    suite: KernelSuite,
) -> _Kernel:
    code = probe.code
    n_active = int(active.size)

    opportunistic_fractional = (
        isinstance(code, FractionalRepetitionCode)
        and type(code).is_decodable is FractionalRepetitionCode.is_decodable
    )
    if opportunistic_fractional:
        # Decodable exactly when one replication group has fully reported,
        # checked on every arrival: completion is the earliest group's last
        # member. Groups containing a worker that never computes are out.
        member_positions = [
            position_of_worker[np.asarray(group, dtype=int)] for group in code.groups
        ]
        viable = [members for members in member_positions if np.all(members >= 0)]
        if not viable:
            return lambda positions, order: np.full(
                positions.shape[0], n_active, dtype=int
            )
        members = np.concatenate(viable)
        group_starts = np.cumsum([0] + [m.size for m in viable[:-1]])
        return lambda positions, order: suite.group_completion(
            positions, members, group_starts
        )

    # Generic linear code: find each iteration's first decodable arrival
    # prefix among the checkpoints of CodedAggregator's decodability-check
    # cadence (first plausible completion at the worst-case threshold, then
    # every ``check_every`` arrivals, unconditionally on the last worker;
    # opportunistic codes are checked on every arrival). The cadence
    # parameters are read off the probe aggregator so the two code paths
    # cannot drift apart.
    check_every = probe.check_every
    opportunistic = probe.opportunistic
    minimum_needed = probe.minimum_needed

    def due_ranks() -> List[int]:
        ranks = []
        for rank in range(n_active):
            count = rank + 1
            if opportunistic:
                due = True
            elif count < minimum_needed:
                due = False
            else:
                due = (
                    (count - minimum_needed) % check_every == 0
                    or count >= code.num_workers
                )
            if due:
                ranks.append(rank)
        return ranks

    if type(code).is_decodable is LinearGradientCode.is_decodable:
        # For an unmodified linear code, decodability is monotone in the
        # worker set (appending rows can only grow the row space), so the
        # first decodable checkpoint can be bisected instead of walked:
        # O(log checkpoints) decodability tests per iteration instead of
        # O(checkpoints). Subclasses overriding ``is_decodable`` may break
        # monotonicity and keep the sequential walk below.
        checkpoints = due_ranks()

        def bisect_kernel(positions: np.ndarray, order: np.ndarray) -> np.ndarray:
            completing = np.full(positions.shape[0], n_active, dtype=int)
            for i in range(positions.shape[0]):
                row_workers = active[order[i]]
                lo, hi = 0, len(checkpoints)
                while lo < hi:
                    mid = (lo + hi) // 2
                    prefix = row_workers[: checkpoints[mid] + 1]
                    if code.is_decodable(prefix.tolist()):
                        hi = mid
                    else:
                        lo = mid + 1
                if lo < len(checkpoints):
                    completing[i] = checkpoints[lo]
            return completing

        return bisect_kernel

    def walk_kernel(positions: np.ndarray, order: np.ndarray) -> np.ndarray:
        completing = np.full(positions.shape[0], n_active, dtype=int)
        for i in range(positions.shape[0]):
            workers: List[int] = []
            for rank in range(n_active):
                workers.append(int(active[order[i, rank]]))
                count = rank + 1
                if opportunistic:
                    due = True
                elif count < minimum_needed:
                    due = False
                else:
                    due = (
                        (count - minimum_needed) % check_every == 0
                        or count >= code.num_workers
                    )
                if due and code.is_decodable(workers):
                    completing[i] = rank
                    break
        return completing

    return walk_kernel


def _fallback_positions(
    plan: ExecutionPlan, active: np.ndarray, arrival_order: np.ndarray
) -> np.ndarray:
    """Scalar completion scan for schemes without a vectorized kernel.

    Feeds each iteration's arrival sequence to a fresh instance of the
    plan's own aggregator — exactly what the loop engine does — so custom
    aggregators behave identically; only the timing draws stay vectorized.
    """
    num_rows, n_active = arrival_order.shape
    completing = np.full(num_rows, n_active, dtype=int)
    for i in range(num_rows):
        aggregator = plan.new_aggregator()
        for rank in range(n_active):
            if aggregator.receive(int(active[arrival_order[i, rank]]), None):
                completing[i] = rank
                break
    return completing
