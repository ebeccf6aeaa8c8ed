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
consumes exactly that stream, one trial at a time, in one of three draw
schedules picked from the models alone:

* **The block draw.** When every delay model has an exponential form (the
  ``exponential_form`` hooks of :mod:`repro.stragglers.base`: every draw is
  ``offset + scale * E`` for one standard exponential ``E``) and the link
  either draws nothing (``is_deterministic``: a jitter-free
  :class:`~repro.stragglers.communication.LinearCommunicationModel` or
  :class:`~repro.stragglers.communication.ZeroCommunicationModel`) or has
  an exponential form too (a jittered one), the stream of a trial is a flat
  sequence of standard exponentials. A row with ``u`` up workers owns
  ``u`` of them on a deterministic link, its compute draws in worker
  order, and ``2u`` on a jittered one, its transfer draws following in
  completion order. The engine draws one ``standard_exponential`` block per
  trial and applies the affine maps itself — the same float operations the
  samplers perform, so the values and the generator's end state are
  bit-identical. On a stationary cluster every row has ``u = n``; on a
  dynamic one vacant slots draw nothing and the rows sit at cumulative
  offsets of the block, and the hook reads the base models scaled by the
  timeline's delay factors, so no per-cell model object is built. The
  paper's shift-exponential workers take this path behind either link.
* **The grid draw.** Any other model on a stationary cluster behind a
  deterministic link draws the whole compute matrix with one
  :meth:`~repro.stragglers.base.DelayModel.sample_grid` call per trial: its
  contract is a row-major (iteration-major, worker-minor) fill that
  consumes the stream like the scalar loop, and NumPy's broadcast samplers
  fill C-order element by element.
* **Row by row.** Everything else — Pareto, trace, bimodal or mixed-class
  workers on a timeline or behind a stochastic link, and any model or link
  that overrides ``sample`` — replays the loop's schedule: per iteration,
  one ``sample_grid`` row over the up workers, then, on a stochastic link,
  one batched transfer draw in completion order.

Within a chunk of trials (see "Trial batching"), a stationary cluster's
compute form is resolved once while consecutive trials' loads agree, and a
deterministic link's transfer times are evaluated once.

Every ranking the engine makes is the loop's stable argsort, computed
cheaply by :func:`_rank_rows`: NumPy's default sort ranks each row, and
only the rows whose ranked values fail to increase strictly — a tie, which
the stable sort breaks by worker index, or a NaN — are sorted again,
stably. A row of distinct values has one sorting permutation, so nothing
else can differ. (The row-by-row schedule keeps one stable sort per row.)
On a stochastic link the block and row-by-row schedules already rank each
row by completion time to order the transfer draws; that ranking, the
order and the compute times gathered in it, is handed to the
serialized-link recurrence, so compute is ranked and gathered once per row.
On the serialized link that one ranking is also the arrival ranking: the
recurrence ``a_k = max(c_k, a_{k-1}) + t_k`` never decreases along
completion order, so its input and output are the ranked compute and
arrival times. Only the rows where two equal arrivals sit with the larger
worker index first are argsorted again, because the loop breaks arrival
ties by worker index (so would rows whose arrivals decrease, which only a
negative transfer time could cause). On the parallel link the arrivals
``c + t`` are ranked once. The serialized-link recurrence and all
completion kernels are pure computation: they consume no randomness and
reproduce the loop's floating-point operation order (``max`` then ``+``,
metric reductions over identically ordered gathers), so the resulting
summaries match byte for byte — the property the equivalence suite pins
down.

The engine returns its outcomes as columns, one array per
:class:`~repro.simulation.iteration.IterationOutcome` field with the heard
workers as a CSR index, wrapped in a
:class:`~repro.simulation.job.ColumnarOutcomeLog`; no outcome object is
built unless one is read. Each iteration's communication load equals the
loop's ``np.sum(message_sizes[heard])``. When every active message size is
integer-valued and their magnitudes total under ``2**53`` (so for every
built-in scheme), every partial sum is exact and any order gives that
float, so one row-wise ``cumsum`` is read at the completing rank (or, when
all sizes are equal, the heard count times the size).
Otherwise one ``np.sum(..., axis=1)`` per distinct heard count adds every
row's message sizes in the loop's order.

Completion kernels exist for every built-in completion rule, read off the
plan: fixed worker set (uncoded, load-balanced), arrival count
(ignore-stragglers), batch coupon-collector coverage (BCC), unit coverage
(randomized, generalized-BCC), replication-group completion (fractional
repetition), and a prefix-decodability walk over a
:class:`~repro.schemes.base.CodedRule`'s checkpoints (cyclic repetition,
Reed-Solomon), where one stacked
:func:`~repro.coding.linear_code.decodability_verdicts` certificate per
checkpoint decides most rows without ``lstsq``. Any other rule (a
:class:`~repro.schemes.base.CustomRule`, a subclass) falls back to a scalar
completion scan that feeds the plan's own aggregator — draws and arrival
times stay vectorized, so the fallback is still far faster than the loop.

Trial batching
--------------
:func:`simulate_job_batch` adds a third axis: it simulates ``T`` independent
Monte-Carlo *trials* of the same job in one engine entry. Each trial's plan
is resolved, each trial draws from its own generator through its draw
schedule, and the arrival recurrence + completion kernels run over the
stacked ``(trials * iterations, workers)`` row matrix — rows are
independent, so the per-row machinery of :func:`_complete_batch` applies
unchanged. The **RNG contract** extends the solo engine's:

* ``seeds[t]`` drives trial ``t`` and only trial ``t``. When a
  :class:`~repro.schemes.base.Scheme` (not a plan) is passed, trial ``t``
  builds its own plan from its own generator — exactly where a solo run at
  ``seeds[t]`` would build it — and then draws. A random placement (BCC,
  randomized, generalized BCC, cyclic-repetition's coefficients) is re-drawn
  per trial, and every trial ``t`` is bit-identical to
  ``simulate_job_vectorized(scheme, ..., rng=seeds[t])``.
* When building trial 0's plan leaves its generator's state unchanged, the
  placement cannot depend on the seed, and that one plan serves every
  trial. A passed :class:`~repro.schemes.base.ExecutionPlan` is shared by
  every trial; trial ``t`` then matches a solo run of that plan at
  ``seeds[t]``.
* The per-trial plans stack: compute draws use each trial's own loads (BCC
  loads vary with the placement when ``r`` does not divide ``m``), and one
  coverage-kernel call per chunk takes each trial's dense ``(items,
  holders)`` layout, stacked and padded to the chunk's largest holder
  count. A chunk never mixes trials whose active workers or message sizes
  differ; other per-trial rules run their own kernel over their trial's
  rows.

Memory stays bounded: trials are processed in chunks so the stacked row
matrices never exceed ``_BATCH_CELL_BUDGET`` cells, whatever the trial
count.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.dynamic import DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.coding.fractional import FractionalRepetitionCode
from repro.coding.linear_code import (
    DECODABLE,
    UNDECIDED,
    LinearGradientCode,
    decodability_verdicts,
)
from repro.exceptions import ConfigurationError, SimulationError
from repro.schemes.approximate import PartialSumRule
from repro.schemes.base import CodedRule, CountRule, CoverageRule, ExecutionPlan, Scheme
from repro.simulation.iteration import incomplete_iteration_error
from repro.simulation.job import ColumnarOutcomeLog, JobResult, _resolve_plan
from repro.simulation.kernels import KernelSuite, get_suite, rank_dtype
from repro.stragglers.base import DelayModel
from repro.stragglers.communication import CommunicationModel
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

#: A completion kernel maps (positions, arrival order) matrices to the
#: 0-based arrival position that completes each iteration; the sentinel
#: value ``n_active`` means "never completes".
_Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Trial-batched runs chunk the trial axis so the stacked
#: ``(trials * iterations, workers)`` row matrices stay below this many
#: cells (always at least one trial). A short job (fig. 2: one iteration on
#: 100 workers) stacks 163 trials per chunk; a long one (fig. 4: 200
#: iterations) runs one trial per chunk. Sized from the end-to-end
#: benchmark's fig4-serial peak RSS with every cell batched: 76 MB at 2^14
#: cells, 80 MB at 2^16 and 119 MB at 2^24, against 80 MB with per-trial
#: tasks (2-vCPU Xeon, NumPy 2.4.6). Chunk boundaries fall between whole
#: trials and rows are independent, so chunking cannot change any result.
_BATCH_CELL_BUDGET = 1 << 14


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


def resolve_engine(engine: str) -> str:
    """Resolve an ``engine`` knob value to ``"loop"`` or ``"vectorized"``.

    ``"auto"`` is the vectorized engine at every job size. ``"loop"`` stays
    selectable as the reference oracle; both engines produce identical
    results.
    """
    validate_engine(engine)
    return "vectorized" if engine == "auto" else engine


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
    docstring for the draw-order contract the guarantee rests on). It is
    the one-trial case of :func:`simulate_job_batch`.
    """
    return simulate_job_batch(
        scheme_or_plan,
        cluster,
        num_units,
        num_iterations,
        [rng],
        unit_size=unit_size,
        serialize_master_link=serialize_master_link,
    )[0]


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
    batching" section). Trial ``t`` builds its plan from its own
    ``seeds[t]`` generator and then draws from it, exactly like
    :func:`simulate_job_vectorized` at ``seeds[t]``, so every returned
    :class:`~repro.simulation.job.JobResult` is bit-identical to the
    corresponding solo *scheme* run — a random placement is re-drawn per
    trial, as a loop of solo runs would. When building trial 0's plan
    leaves its generator untouched (a deterministic placement), that one
    plan serves every trial; a passed :class:`ExecutionPlan` is shared by
    every trial. The arrival recurrence and completion kernels run once
    over the stacked ``(trials * iterations, workers)`` rows of each
    memory-bounded trial chunk, so per-trial Python overhead — the cost
    that dominates short Monte-Carlo replications — is paid once per chunk.

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
    results: List[JobResult] = []
    for chunk in _trial_chunks(
        scheme_or_plan, cluster, num_units, num_iterations, seeds, unit_size
    ):
        compute, transfer, ranking = _for_link(
            _draw_chunk(chunk, cluster, num_iterations), serialize_master_link
        )
        totals, computations, communications, counts, loads, finished, heard = (
            _complete_batch(
                chunk.plans, chunk.active, chunk.message_sizes, compute, transfer,
                serialize_master_link, suite, ranking,
            )
        )
        # Each trial's log views its rows of the columns and its span of
        # the heard index (row r's heard workers end at heard_ends[r + 1]).
        heard_ends = np.concatenate(([0], np.cumsum(counts)))
        for t, plan in enumerate(chunk.plans):
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


class _TrialChunk:
    """Consecutive trials that one engine pass stacks.

    Every trial of a chunk has the same active workers and message sizes;
    each keeps its own plan, generator and per-active-worker loads.
    """

    def __init__(
        self,
        active: np.ndarray,
        message_sizes: np.ndarray,
        active_sizes: np.ndarray,
        capacity: int,
    ) -> None:
        self.active = active
        self.message_sizes = message_sizes
        self.active_sizes = active_sizes
        self.capacity = capacity
        self.plans: List[ExecutionPlan] = []
        self.generators: List[np.random.Generator] = []
        self.loads: List[np.ndarray] = []

    def admits(self, active: np.ndarray, message_sizes: np.ndarray) -> bool:
        return (
            len(self.plans) < self.capacity
            and np.array_equal(active, self.active)
            and np.array_equal(message_sizes, self.message_sizes)
        )

    def add(self, plan: ExecutionPlan, generator: np.random.Generator, loads: np.ndarray) -> None:
        self.plans.append(plan)
        self.generators.append(generator)
        self.loads.append(loads)


def _trial_chunks(
    scheme_or_plan: Scheme | ExecutionPlan,
    cluster: ClusterSpec,
    num_units: int,
    num_iterations: int,
    seeds: Sequence[RandomState],
    unit_size: int,
) -> Iterator[_TrialChunk]:
    """Each trial's plan, grouped into the chunks the engine stacks.

    Trial ``t`` resolves its plan from its own generator, where a solo run
    would, before any of its draws. A chunk never mixes trials whose active
    workers or message sizes differ, and holds at most as many trials as
    keep its ``(trials * iterations, workers)`` matrices within
    ``_BATCH_CELL_BUDGET`` cells (always at least one). Chunk boundaries
    fall between whole trials and rows are independent, so the chunking is
    invisible in the results.
    """
    shared = scheme_or_plan if isinstance(scheme_or_plan, ExecutionPlan) else None
    chunk: Optional[_TrialChunk] = None
    plan: Optional[ExecutionPlan] = None
    arrays: tuple = ()
    for trial, seed in enumerate(seeds):
        generator = as_generator(seed)
        if shared is not None:
            trial_plan = shared
        else:
            before = generator.bit_generator.state if trial == 0 else None
            trial_plan = _resolve_plan(
                scheme_or_plan, num_units, cluster.num_workers, generator
            )
            if before is not None and generator.bit_generator.state == before:
                # Planning drew nothing, so the placement cannot depend on
                # the seed: one plan stands in for every trial.
                shared = trial_plan
        if trial_plan is not plan:
            plan = trial_plan
            arrays = _active_arrays(plan, cluster, unit_size)
        active, loads, message_sizes, active_sizes = arrays
        if chunk is not None and not chunk.admits(active, message_sizes):
            yield chunk
            chunk = None
        if chunk is None:
            capacity = _BATCH_CELL_BUDGET // max(num_iterations * int(active.size), 1)
            chunk = _TrialChunk(active, message_sizes, active_sizes, max(1, capacity))
        chunk.add(trial_plan, generator, loads)
    assert chunk is not None
    yield chunk


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


def _draw_chunk(
    chunk: _TrialChunk,
    cluster: ClusterSpec | DynamicClusterSpec,
    num_iterations: int,
) -> tuple:
    """A chunk's ``(compute, transfer, ranking)`` draws, stacked trial-major.

    Each trial draws from its own generator, through the first of the
    module docstring's three schedules its models allow: the block, the
    grid, then row by row. Every matrix is ``(trials * num_iterations,
    n_active)``, and a vacant slot's compute time is ``inf``. On a
    deterministic link ``ranking`` is ``None`` and ``transfer`` broadcasts
    the link's one evaluation. On a stochastic link ``ranking`` is each
    row's stable completion order and the compute times in it (see
    :func:`_rank_rows`), and ``transfer`` is laid out in that order, ``0``
    where a slot is vacant.
    """
    communication = cluster.communication
    deterministic = communication.is_deterministic
    active, sizes = chunk.active, chunk.active_sizes
    shape = (len(chunk.plans) * num_iterations, int(active.size))
    compute = np.empty(shape)
    ranking: Optional[Tuple[np.ndarray, np.ndarray]] = None
    transfer_form: Optional[Tuple[np.ndarray, np.ndarray]] = None
    if deterministic:
        transfer = np.broadcast_to(communication.sample_batch(sizes), shape)
    else:
        transfer = np.empty(shape)
        ranking = np.empty(shape, dtype=np.intp), np.empty(shape)
        transfer_form = communication.exponential_form(sizes)
        if transfer_form is not None:
            transfer_form = (_shared(transfer_form[0]), _shared(transfer_form[1]))
    # The block draw needs a link that draws nothing or draws exponentials.
    exponential = deterministic or transfer_form is not None
    form: Optional[Tuple[np.ndarray, np.ndarray]] = None
    form_loads: Optional[np.ndarray] = None
    up: Optional[np.ndarray] = None
    dynamic = isinstance(cluster, DynamicClusterSpec)
    base = cluster.base if dynamic else cluster
    models = [base.workers[worker].compute for worker in active.tolist()]
    for t, (generator, loads) in enumerate(zip(chunk.generators, chunk.loads)):
        if dynamic:
            timeline = cluster.materialize(num_iterations, generator)
            up = timeline.availability[:, active]
            if exponential:
                # Vacant slots scale by 1.0, so no inf enters the arithmetic.
                factors = np.where(up, timeline.factors[:, active], 1.0)
                form = type(models[0]).exponential_form(models, loads, factors)
            draws = _draw_timeline_block(form, up, transfer_form, generator)
            if draws is None:
                model_rows = [[row[w] for w in active.tolist()] for row in timeline.models]
        else:
            model_rows = [models] * num_iterations
            if exponential and (form_loads is None or not np.array_equal(loads, form_loads)):
                form, form_loads = type(models[0]).exponential_form(models, loads), loads
            draws = _draw_grid_block(form, transfer_form, generator, num_iterations)
            if draws is None and deterministic:
                grid = type(models[0]).sample_grid(models, loads, generator, num_iterations)
                draws = grid, None, None
        if draws is None:
            draws = _draw_rows(model_rows, up, loads, sizes, communication, generator)
        rows = slice(t * num_iterations, (t + 1) * num_iterations)
        compute[rows] = draws[0]
        if ranking is not None:
            transfer[rows] = draws[1]
            ranking[0][rows], ranking[1][rows] = draws[2]
    return compute, transfer, ranking


def _for_link(draws: tuple, serialize_master_link: bool) -> tuple:
    """The ``(compute, transfer, ranking)`` draws as :func:`_complete_batch`
    takes them.

    Only the serialized link uses the completion ranking; for the parallel
    link the transfers go back to worker order and ``ranking`` is dropped.
    """
    compute, transfer, ranking = draws
    if ranking is None or serialize_master_link:
        return draws
    unranked = np.empty(transfer.shape)
    unranked.reshape(-1)[ranking[0] + _row_offsets(transfer.shape)] = transfer
    return compute, unranked, None


def _rank_rows(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's stable argsort, and the row's values in that order.

    The default (unstable) sort ranks every row first. A row of distinct
    values has one sorting permutation, so it can differ from the stable
    sort only where its ranked values fail to increase strictly: an equal
    pair (``==`` also matches two ``inf`` vacancies, or ``-0.0`` against
    ``0.0``) or a NaN. Only those rows are sorted again, stably.
    """
    order = np.argsort(values, axis=1)
    ranked = np.take(values, order + _row_offsets(values.shape))
    tied = np.flatnonzero(~np.all(ranked[:, 1:] > ranked[:, :-1], axis=1))
    if tied.size:
        resorted = np.argsort(values[tied], axis=1, kind="stable")
        order[tied] = resorted
        ranked[tied] = np.take(values, resorted + _row_offsets(values.shape, tied))
    return order, ranked


def _row_offsets(shape: Tuple[int, int], rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Flat offsets of the rows of a C-ordered ``shape`` matrix, as a column.

    Adding them to a matrix of column indices (one row of it per matrix row,
    or per entry of ``rows``) gives flat indices for one ``np.take``, or for
    one scatter into the matrix's flat view (faster than ``np.put`` there),
    both faster than the ``*_along_axis`` helpers' broadcast row index.
    """
    width = shape[1]
    if rows is None:
        return np.arange(0, shape[0] * width, width)[:, None]
    return (rows * width)[:, None]


def _shared(values: np.ndarray) -> np.ndarray:
    """``values`` as one 0-d array when every entry has the same bits.

    A link form every active worker shares (equal message sizes: every
    fig. 4 cell) then applies as scalars, the same float operations with no
    gather by completion order.
    """
    if values.tobytes() == values[:1].tobytes() * values.size:
        return values[:1].reshape(())
    return values


def _in_order(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``values[order]``, or ``values`` itself when it is one shared 0-d value."""
    return values if values.ndim == 0 else values[order]


def _draw_grid_block(
    form: Optional[Tuple[np.ndarray, np.ndarray]],
    transfer_form: Optional[Tuple[np.ndarray, np.ndarray]],
    generator: np.random.Generator,
    num_iterations: int,
) -> Optional[tuple]:
    """The block draw over a stationary cluster, or ``None`` without a
    compute form.

    ``form`` is the workers' compute ``(offset, scale)`` and
    ``transfer_form`` the link's (per worker, or 0-d when shared; see
    :func:`_shared`), ``None`` on a deterministic link. Row
    ``i`` of one standard-exponential block holds iteration ``i``'s ``n``
    compute draws in worker order, then, on a jittered link, its ``n``
    transfer draws in completion order.
    """
    if form is None:
        return None
    offset, scale = form
    n = offset.size
    if transfer_form is None:
        return offset + scale * generator.standard_exponential((num_iterations, n)), None, None
    block = generator.standard_exponential((num_iterations, 2 * n))
    compute = offset + scale * block[:, :n]
    order, ranked = _rank_rows(compute)
    link_offset, link_scale = transfer_form
    transfer = _in_order(link_offset, order) + _in_order(link_scale, order) * block[:, n:]
    return compute, transfer, (order, ranked)


def _draw_timeline_block(
    form: Optional[Tuple[np.ndarray, np.ndarray]],
    up: np.ndarray,
    transfer_form: Optional[Tuple[np.ndarray, np.ndarray]],
    generator: np.random.Generator,
) -> Optional[tuple]:
    """The block draw over a timeline, or ``None`` without a compute form.

    ``form`` is the timeline's ``(iterations, n)`` compute ``(offset,
    scale)`` and ``transfer_form`` the link's (per worker, or 0-d when
    shared), ``None`` on a deterministic link. Row ``i`` with ``u`` up workers owns consecutive draws of one flat
    standard-exponential block: its ``u`` compute draws in worker order,
    then, on a jittered link, its ``u`` transfer draws in completion order.
    Vacant slots draw nothing.
    """
    if form is None:
        return None
    offset, scale = form[0][up], form[1][up]
    compute = np.full(up.shape, np.inf)
    if transfer_form is None:
        # Row-major up slots draw consecutive values.
        compute[up] = offset + scale * generator.standard_exponential(offset.size)
        return compute, None, None
    counts = np.count_nonzero(up, axis=1)
    starts = np.cumsum(2 * counts) - 2 * counts
    block = generator.standard_exponential(2 * int(counts.sum()))
    slots = starts[:, None] + np.cumsum(up, axis=1) - 1
    compute[up] = offset + scale * block[slots[up]]
    order, ranked = _rank_rows(compute)
    finished = np.arange(up.shape[1]) < counts[:, None]
    workers = order[finished]
    slots = (starts + counts)[:, None] + np.arange(up.shape[1])
    transfer = np.zeros(up.shape)
    transfer[finished] = (
        _in_order(transfer_form[0], workers)
        + _in_order(transfer_form[1], workers) * block[slots[finished]]
    )
    return compute, transfer, (order, ranked)


def _draw_rows(
    model_rows: Sequence[Sequence[DelayModel]],
    up: Optional[np.ndarray],
    loads: np.ndarray,
    sizes: np.ndarray,
    communication: CommunicationModel,
    generator: np.random.Generator,
) -> tuple:
    """Row by row: the loop engine's own schedule, for any model and link.

    Each iteration draws its up workers' compute times with one
    ``sample_grid`` row (``up`` is ``None`` on a stationary cluster, where
    every worker is up), then, on a stochastic link, the transfer times of
    the workers that finished, in completion order. Returns
    :func:`_draw_chunk`'s triple for one trial's rows.
    """
    stochastic = not communication.is_deterministic
    compute = np.full((len(model_rows), loads.size), np.inf)
    transfer = np.zeros(compute.shape)
    order = np.empty(compute.shape, dtype=np.intp)
    columns = np.arange(loads.size)
    for i, row in enumerate(model_rows):
        models = row
        if up is not None:
            columns = np.flatnonzero(up[i])
            models = [row[j] for j in columns.tolist()]
        if models:
            compute[i, columns] = type(models[0]).sample_grid(
                models, loads[columns], generator, 1
            )[0]
        if stochastic:
            order[i] = np.argsort(compute[i], kind="stable")
            # Finite times sort first: the workers that finished lead the order.
            finished = int(np.count_nonzero(np.isfinite(compute[i])))
            if finished:
                transfer[i, :finished] = communication.sample_batch(
                    sizes[order[i, :finished]], generator
                )
    if not stochastic:
        return compute, None, None
    return compute, transfer, (order, np.take(compute, order + _row_offsets(compute.shape)))


def _complete_batch(
    plans: Sequence[ExecutionPlan],
    active: np.ndarray,
    message_sizes: np.ndarray,
    compute: np.ndarray,
    transfer: np.ndarray,
    serialize_master_link: bool,
    suite: KernelSuite,
    ranking: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, ...]:
    """Completion search + metric assembly over drawn timing matrices.

    Shared tail of the stationary and dynamic paths. The rows split evenly
    into consecutive per-trial blocks, block ``t`` run under ``plans[t]``;
    every plan has the same active workers and message sizes. ``compute`` may hold
    ``inf`` for workers that are vacant in an iteration (dynamic clusters):
    infinite entries sort after every finite arrival, the serialized-link
    recurrence propagates them unchanged, and an iteration whose completing
    arrival is infinite is infeasible — exactly the loop engine's behaviour.
    The arrival recurrence and per-scheme completion searches run on
    ``suite``'s kernels (:mod:`repro.simulation.kernels`).

    ``ranking``, given only on a serialized link (see :func:`_for_link`), is
    the ``(order, ranked compute)`` pair of :func:`_rank_rows` that the
    draws already computed; ``transfer`` is then laid out in that completion
    order instead of worker order. Both arrays are reused (and rewritten in
    place) as the arrival ranking.

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
        if ranking is None:
            ranking = _rank_rows(compute)
            # A deterministic link's transfers are a broadcast view, which
            # take_along_axis reads in place; a flat take would copy it.
            transfer = np.take_along_axis(transfer, ranking[0], axis=1)
        order, compute_ranked = ranking
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
            offsets = _row_offsets(arrivals.shape)
            arrivals.reshape(-1)[order[misranked] + offsets] = arrival_ranked[misranked]
            resorted = np.argsort(arrivals, axis=1, kind="stable")
            arrival_order[misranked] = resorted
            arrival_ranked[misranked] = np.take(arrivals, resorted + offsets)
            compute_ranked[misranked] = np.take(
                compute, resorted + _row_offsets(compute.shape, misranked)
            )
        rising = np.all(compute_ranked[:, 1:] > compute_ranked[:, :-1], axis=1)
    else:
        arrival_order, arrival_ranked = _rank_rows(compute + transfer)
        compute_ranked = np.take(compute, arrival_order + _row_offsets(compute.shape))
        rising = None

    # 3. Per-iteration completion position (rank of the finishing arrival).
    #    One flat scatter: each row's arrival ranks broadcast over the rows.
    positions = np.empty(arrival_order.shape, dtype=np.intp)
    positions.reshape(-1)[arrival_order + _row_offsets(positions.shape)] = np.arange(n_active)
    completing = _build_kernel(plans, active, suite)(positions, arrival_order)
    if np.any(completing >= n_active):
        raise _infeasible(plans[0])

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
        raise _infeasible(plans[0], int(np.sum(~np.isfinite(compute[first_bad]))))
    counts = completing + 1
    # The loop's computation time is one np.max over the heard workers'
    # compute times in arrival order: the running max of the ranked compute
    # at the completing rank. Where a row's ranked compute strictly
    # increases (on the serialized link, a row without ties that kept its
    # completion order), that is the completing entry itself; the other rows
    # (ties, or a misranked row whose compute falls) keep the running max.
    if rising is None:
        computation_times = np.maximum.accumulate(compute_ranked, axis=1)[rows, completing]
    else:
        computation_times = compute_ranked[rows, completing]
        uneven = np.flatnonzero(~rising)
        if uneven.size:
            running = np.maximum.accumulate(compute_ranked[uneven], axis=1)
            computation_times[uneven] = running[np.arange(uneven.size), completing[uneven]]
    # Equal values share their bits, except -0.0 and 0.0: which of those
    # wins depends on the reduction order, and np.max's differs from a
    # running max past eight values. Rows whose max is zero take np.max
    # itself, over the rows that heard equally many workers.
    for same, count in _rows_by_count(counts, np.flatnonzero(computation_times == 0.0)):
        computation_times[same] = np.max(compute_ranked[same, :count], axis=1)
    workers_finished = np.count_nonzero(compute <= total_times[:, None], axis=1)
    heard = active[arrival_order[np.arange(n_active) < counts[:, None]]]
    # The loop sums each iteration's heard message sizes with one np.sum
    # over its arrival-ordered gather.
    sizes = message_sizes[active]
    if np.all(np.floor(sizes) == sizes) and float(np.abs(sizes).sum()) < 2.0**53:
        # Integers whose magnitudes total under 2**53: every partial sum is
        # exact, so a running sum equals np.sum in any order, and k equal
        # sizes s sum to k * s. np.sum starts from +0.0; adding 0.0 turns a
        # running sum's -0.0 into it.
        if np.all(sizes == sizes[0]):
            loads = counts * sizes[0] + 0.0
        else:
            loads = np.cumsum(sizes[arrival_order], axis=1)[rows, completing] + 0.0
    else:
        # np.sum(..., axis=1) over the rows that heard equally many workers
        # adds each row in the loop's order.
        ranked_sizes = sizes[arrival_order]
        loads = np.empty(num_rows)
        for same, count in _rows_by_count(counts, rows):
            loads[same] = np.sum(ranked_sizes[same, :count], axis=1)
    return (
        total_times,
        computation_times,
        np.maximum(total_times - computation_times, 0.0),
        counts,
        loads,
        workers_finished,
        heard.astype(np.int32),
    )


def _rows_by_count(counts: np.ndarray, rows: np.ndarray) -> Iterator[Tuple[np.ndarray, int]]:
    """``rows`` grouped by their ``counts`` entry: each group and its count."""
    if not rows.size:
        return
    by_count = rows[np.argsort(counts[rows], kind="stable")]
    sorted_counts = counts[by_count]
    bounds = [0, *(np.flatnonzero(np.diff(sorted_counts)) + 1).tolist(), by_count.size]
    for start, stop in zip(bounds, bounds[1:]):
        yield by_count[start:stop], int(sorted_counts[start])


def _infeasible(plan: ExecutionPlan, vacant_workers: int = 0) -> SimulationError:
    return incomplete_iteration_error(plan.scheme_name, vacant_workers)


# --------------------------------------------------------------------------- #
# Completion kernels
# --------------------------------------------------------------------------- #
def _build_kernel(
    plans: Sequence[ExecutionPlan], active: np.ndarray, suite: KernelSuite
) -> _Kernel:
    """Completion kernel over rows split evenly into one block per plan.

    One plan shared by every trial gets that plan's kernel. Per-trial plans
    of a coverage rule over equally many items stack their dense layouts
    into one coverage call; any other mix runs each trial's own kernel over
    its block of rows.
    """
    first = plans[0]
    if all(plan is first for plan in plans):
        return _plan_kernel(first, active, suite)
    owners = _stacked_coverage_layouts(
        plans, _position_of_worker(first, active), int(active.size)
    )
    if owners is not None:
        return lambda positions, order: suite.coverage_completion(positions, owners)
    kernels = [_plan_kernel(plan, active, suite) for plan in plans]

    def per_trial(positions: np.ndarray, order: np.ndarray) -> np.ndarray:
        rows = positions.shape[0] // len(kernels)
        return np.concatenate(
            [
                kernel(positions[t * rows : (t + 1) * rows], order[t * rows : (t + 1) * rows])
                for t, kernel in enumerate(kernels)
            ]
        )

    return per_trial


def _stacked_coverage_layouts(
    plans: Sequence[ExecutionPlan], position_of_worker: np.ndarray, n_active: int
) -> Optional[np.ndarray]:
    """Every plan's dense coverage layout, stacked ``(trials, items, holders)``.

    Each layout is padded with the sentinel column ``n_active`` to the
    largest holder count among them. ``None`` unless every plan's rule is
    exactly a :class:`~repro.schemes.base.CoverageRule` and every layout
    exists and covers the first one's number of items.
    """
    layouts: List[np.ndarray] = []
    for plan in plans:
        rule = plan.completion
        if type(rule) is not CoverageRule:
            return None
        layout = _coverage_layout(rule, plan, position_of_worker, n_active)
        if layout is None or (layouts and layout.shape[0] != layouts[0].shape[0]):
            return None
        layouts.append(layout)
    holders = max(layout.shape[1] for layout in layouts)
    owners = np.full(
        (len(layouts), layouts[0].shape[0], holders), n_active, dtype=layouts[0].dtype
    )
    for t, layout in enumerate(layouts):
        owners[t, :, : layout.shape[1]] = layout
    return owners


def _position_of_worker(plan: ExecutionPlan, active: np.ndarray) -> np.ndarray:
    """Each worker's active column, ``-1`` for a worker that never computes."""
    position_of_worker = np.full(plan.num_workers, -1, dtype=int)
    position_of_worker[active] = np.arange(active.size)
    return position_of_worker


def _never(n_active: int) -> _Kernel:
    """The kernel of a plan no iteration can complete under."""
    return lambda positions, order: np.full(positions.shape[0], n_active, dtype=int)


def _plan_kernel(plan: ExecutionPlan, active: np.ndarray, suite: KernelSuite) -> _Kernel:
    """One plan's completion kernel.

    Dispatch is on the *exact* type of the plan's completion rule — a
    subclass may change the aggregator it builds, so it takes the scalar
    fallback, as a custom rule does. The rule-specific preprocessing (index
    translation, feasibility screens, dense layouts) happens here, once per
    plan; the per-row searches run on ``suite``'s kernels.
    """
    rule = plan.completion
    n_active = int(active.size)
    position_of_worker = _position_of_worker(plan, active)

    if type(rule) is CountRule:
        if not rule.can_ever_complete(plan):
            return _never(n_active)
        required = position_of_worker[np.asarray(rule.required_workers, dtype=int)]
        if np.any(required < 0):
            # A required worker never computes, so no iteration completes.
            return _never(n_active)
        return lambda positions, order: suite.count_completion(positions, required)

    if type(rule) is PartialSumRule:
        eligible = position_of_worker[np.flatnonzero(plan.unit_assignment.loads > 0)]
        eligible = eligible[eligible >= 0]
        needed = rule.required_count
        if needed > eligible.size:
            return _never(n_active)
        return lambda positions, order: suite.partial_sum_completion(
            positions, eligible, needed
        )

    if type(rule) is CoverageRule:
        owners = _coverage_layout(rule, plan, position_of_worker, n_active)
        if owners is None:
            return _never(n_active)
        return lambda positions, order: suite.coverage_completion(positions, owners)

    if type(rule) is CodedRule:
        return _coded_kernel(rule, active, position_of_worker, suite)

    return lambda positions, order: _fallback_positions(plan, active, order)


def _coverage_layout(
    rule: CoverageRule, plan: ExecutionPlan, position_of_worker: np.ndarray, n_active: int
) -> Optional[np.ndarray]:
    """A coverage rule's dense ``(items, holders)`` layout, or ``None``.

    Item ``i`` is covered whenever an active worker holding it arrives; an
    iteration completes at the maximum over items of the earliest covering
    arrival. Row ``i`` of the layout lists the active columns holding item
    ``i``, padded with the sentinel column ``n_active`` to the largest
    holder count, in :func:`~repro.simulation.kernels.rank_dtype`; the
    suite's coverage kernel reduces each row to a minimum and the rows to a
    maximum. ``None`` means some item has no active owner: no amount of
    waiting covers it.
    """
    items, workers = rule.pairs(plan)
    num_items = rule.num_items
    owners = position_of_worker[workers]
    if owners.min() < 0:
        held = owners >= 0
        items, owners = items[held], owners[held]
    holders = np.bincount(items, minlength=num_items)[:num_items]
    if not holders.all():
        return None
    # Pair p of the item-sorted pairs fills the next slot of its item's row.
    # A minimum takes an item's holders in any order; the stable sort is
    # the fast one (a radix sort on narrow unit ids).
    width = int(holders.max())
    starts = np.cumsum(holders) - holders
    cells = np.arange(items.size) + np.repeat(
        np.arange(0, num_items * width, width) - starts, holders
    )
    layout = np.full((num_items, width), n_active, dtype=rank_dtype(n_active))
    layout.reshape(-1)[cells] = owners[np.argsort(items, kind="stable")]
    return layout


def _coded_kernel(
    rule: CodedRule,
    active: np.ndarray,
    position_of_worker: np.ndarray,
    suite: KernelSuite,
) -> _Kernel:
    code = rule.code
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
            return _never(n_active)
        # One row per group, a shorter group padded with the sentinel column.
        members = np.full(
            (len(viable), max(m.size for m in viable)), n_active, dtype=rank_dtype(n_active)
        )
        for row, group in zip(members, viable):
            row[: group.size] = group
        return lambda positions, order: suite.group_completion(positions, members)

    # Generic linear code: each row stops at its first decodable prefix among
    # the rule's checkpoints, the loop aggregator's, so no code has to be
    # monotone. The worst-case designs (cyclic repetition, Reed-Solomon)
    # decode from any ``n - s`` workers: their rows stop at the first one.
    checkpoints = [rank for rank in range(n_active) if rule.is_checkpoint(rank + 1)]

    if type(code).decoding_vector is LinearGradientCode.decoding_vector and not rule.opportunistic:
        # ``is_decodable`` is the base class's ``lstsq`` test: at each
        # checkpoint, one stacked certificate decides the rows still
        # walking, and only the rows it leaves undecided call the test.
        def stacked_kernel(positions: np.ndarray, order: np.ndarray) -> np.ndarray:
            completing = np.full(positions.shape[0], n_active, dtype=int)
            walking = np.arange(positions.shape[0])
            for rank in checkpoints:
                if not walking.size:
                    break
                workers = active[order[walking, : rank + 1]]
                verdicts = decodability_verdicts(code, workers)
                for row in np.flatnonzero(verdicts == UNDECIDED):
                    verdicts[row] = code.is_decodable(workers[row].tolist())
                decoded = verdicts == DECODABLE
                completing[walking[decoded]] = rank
                walking = walking[~decoded]
            return completing

        return stacked_kernel

    # Any other code's own ``is_decodable``: the loop aggregator's calls, on
    # the same worker lists, in the same order.
    def walk_kernel(positions: np.ndarray, order: np.ndarray) -> np.ndarray:
        completing = np.full(positions.shape[0], n_active, dtype=int)
        for i in range(positions.shape[0]):
            row_workers = active[order[i]]
            for rank in checkpoints:
                if code.is_decodable(row_workers[: rank + 1].tolist()):
                    completing[i] = rank
                    break
        return completing

    return walk_kernel


def _fallback_positions(
    plan: ExecutionPlan, active: np.ndarray, arrival_order: np.ndarray
) -> np.ndarray:
    """Scalar completion scan for rules without a vectorized kernel.

    Feeds each iteration's arrival sequence to a fresh instance of the
    plan's own aggregator — exactly what the loop engine does — so custom
    aggregators behave identically; only the timing draws stay vectorized.
    This is the engine's only call of ``new_aggregator``.
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
