"""Distributed UoI drivers (the paper's multi-node implementation).

Ranks are organized into the paper's three-level hierarchy:

    world  =  P_B bootstrap groups  x  P_lambda penalty groups
              x  ADMM_cores consensus cores per cell

(:class:`ProcessGrid`).  Each *cell* solves whole (bootstrap, λ)
subproblems with consensus ADMM over its own sub-communicator; the
Reduce steps are world-wide collectives:

* selection's intersection (eq. 3) is one logical-AND ``Allreduce`` of
  per-cell support masks (a mask defaults to all-True for (k, j) pairs
  a cell did not own, the neutral element of intersection);
* estimation's winner search is a MIN ``Allreduce`` of the
  ``(B2, q)`` held-out-loss table, after which the owning cells
  contribute their winners to a SUM ``Allreduce`` that forms the
  union average (eq. 4).

Bootstrap indices on every rank are replayed from the shared
``random_state``, exactly as the paper's randomized data distribution
assumes, so all data movement is one-sided Tier-2 traffic against the
Tier-1 blocks loaded once at startup.

:func:`distributed_uoi_lasso` expects the paper's ``InputData``
layout: one ``(n, 1 + p)`` dataset whose column 0 is the response.
:func:`distributed_uoi_var` runs Algorithm 2 with the
distributed-Kronecker construction and a sparse consensus solver.

Both drivers are thin adapters over the execution engine
(:mod:`repro.engine`): after the data-distribution preamble they build
a grid-aware :class:`~repro.engine.UoIPlan` (``_DistLassoPlan`` /
``_DistVarPlan``) whose per-``(k, j)`` subproblems carry the legacy
checkpoint keys (``sel/k{k}/j{j}``, ``var-est/k{k}/j{j}``, ...), and
hand it to :meth:`ProcessGrid.executor` — an inline
:class:`~repro.engine.Coordinator` whose ownership predicate is the
grid's, so each rank runs only the tasks its cell owns —
checkpointing attaches as a :class:`~repro.resilience.CheckpointHook`,
and the plan's ``reduce`` performs the world-wide collectives above in
a fixed order so results stay bitwise identical to the pre-engine
drivers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bootstrap import (
    block_train_eval,
    bootstrap_train_eval,
    circular_block_bootstrap,
    iid_bootstrap,
)
from repro.core.config import UoILassoConfig, UoIVarConfig
from repro.core.estimation import best_support_per_bootstrap
from repro.core.selection import family_from_counts
from repro.distribution.kron_dist import DistributedKron
from repro.distribution.randomized import RandomizedDistributor
from repro.engine import (
    SELECTION,
    Coordinator,
    Subproblem,
    UoIPlan,
    run_plan,
)
from repro.engine.transports import SerialTransport
from repro.linalg.consensus import consensus_lasso_admm
from repro.linalg.lambda_grid import lambda_grid_from_max
from repro.pfs.hdf5 import SimH5File
from repro.resilience.checkpoint import (
    CheckpointHook,
    CheckpointPlan,
    CheckpointSession,
)
from repro.simmpi.clock import TimeCategory
from repro.simmpi.comm import SimComm
from repro.simmpi.reduce_ops import MIN, SUM
from repro.telemetry import resolve_telemetry
from repro.telemetry.hook import TelemetryHook
from repro.var.lag import build_lag_matrices, partition_coefficients

__all__ = [
    "ProcessGrid",
    "DistributedUoIResult",
    "distributed_uoi_lasso",
    "distributed_uoi_var",
    "distributed_cv_lasso",
]


class _RankTransport(SerialTransport):
    """Inline execution on one rank of a simulated-MPI program."""

    name = "simmpi"


@dataclass
class ProcessGrid:
    """This rank's position in the P_B x P_lambda x ADMM hierarchy.

    Attributes
    ----------
    world:
        The full communicator.
    cell:
        Sub-communicator of this rank's (bootstrap-group, λ-group)
        cell — the ADMM cores that jointly solve one subproblem.
    pb, plam:
        Grid extents.
    b, l:
        This rank's bootstrap-group and λ-group coordinates.
    """

    world: SimComm
    cell: SimComm
    pb: int
    plam: int
    b: int
    l: int

    @classmethod
    def build(cls, comm: SimComm, pb: int = 1, plam: int = 1) -> "ProcessGrid":
        """Split ``comm`` into a balanced P_B x P_lambda grid of cells.

        ``comm.size`` must be divisible by ``pb * plam`` so every cell
        gets the same number of ADMM cores (the paper's configurations
        always are).
        """
        if pb < 1 or plam < 1:
            raise ValueError(f"pb and plam must be >= 1, got {pb}, {plam}")
        cells = pb * plam
        if comm.size % cells != 0:
            raise ValueError(
                f"world size {comm.size} not divisible by pb*plam = {cells}"
            )
        per_cell = comm.size // cells
        cell_id = comm.rank // per_cell
        b, l = divmod(cell_id, plam)
        cell = comm.split(cell_id)
        return cls(world=comm, cell=cell, pb=pb, plam=plam, b=b, l=l)

    @property
    def admm_cores(self) -> int:
        """Consensus cores per cell."""
        return self.cell.size

    def owns_bootstrap(self, k: int) -> bool:
        """Round-robin bootstrap ownership: cell group ``b`` takes ``k ≡ b``."""
        return k % self.pb == self.b

    def owns_lambda(self, j: int) -> bool:
        """Round-robin λ ownership: λ group ``l`` takes ``j ≡ l``."""
        return j % self.plam == self.l

    def owns(self, task: Subproblem) -> bool:
        """Whether this rank's cell owns ``task`` (by bootstrap, and by
        λ for tasks that carry one)."""
        return self.owns_bootstrap(task.bootstrap) and (
            task.lam_index is None or self.owns_lambda(task.lam_index)
        )

    def executor(self) -> Coordinator:
        """This rank's engine: an inline coordinator over its owned tasks.

        Runs *inside* a rank program; every rank of a cell sees the same
        filtered chains, so ``run_chain`` is free to use the cell
        communicator's collectives.
        """
        return Coordinator(_RankTransport(), owns=self.owns)


@dataclass
class DistributedUoIResult:
    """Fit results, identical on every rank.

    Attributes
    ----------
    coef:
        Final averaged coefficients (``(p,)`` for UoI_LASSO; the
        lifted ``vec B`` for UoI_VAR).
    supports:
        ``(q, p)`` intersected support family.
    losses:
        ``(B2, q)`` held-out loss table.
    winners:
        Winning support index per estimation bootstrap.
    lambdas:
        The λ grid.
    recovered_subproblems / completed_subproblems:
        World totals of (bootstrap, λ) subproblems served from a
        checkpoint store versus computed by this run (both 0 when the
        driver ran without ``checkpoint=``).
    telemetry:
        This rank's :class:`~repro.telemetry.hook.TelemetryHook`, or
        ``None`` when the driver ran without ``telemetry=``.
    """

    coef: np.ndarray
    supports: np.ndarray
    losses: np.ndarray
    winners: np.ndarray
    lambdas: np.ndarray
    recovered_subproblems: int = 0
    completed_subproblems: int = 0
    telemetry: object | None = None


def _reduce_progress(
    comm: SimComm, grid: ProcessGrid, ckpt: CheckpointSession
) -> tuple[int, int]:
    """World totals of (recovered, computed) subproblems.

    Only each cell's rank 0 contributes (every cell rank tracks the
    same subproblems), and the collectives are posted only when
    checkpointing is active, so runs without ``checkpoint=`` keep
    their exact modeled-time profile.
    """
    if not ckpt.active:
        return 0, 0
    rec = ckpt.recovered if grid.cell.rank == 0 else 0
    comp = ckpt.completed if grid.cell.rank == 0 else 0
    recovered = int(comm.allreduce(rec, SUM))
    completed = int(comm.allreduce(comp, SUM))
    return recovered, completed


def _rank_telemetry(telemetry, comm: SimComm, label: str):
    """Per-rank telemetry hook for a distributed driver, or ``None``.

    Simulated ranks are threads, and the context-var current recorder
    is per-thread, so each rank resolves its own hook (``tid`` = world
    rank) inside its program — the solver/I-O one-liners on that rank
    then feed that rank's recorder.  File export stays enabled only on
    world rank 0 to avoid every rank writing the same paths; pass an
    explicit :class:`TelemetryHook` to opt out of that convention.
    """
    tel = resolve_telemetry(telemetry, tid=comm.rank, label=label)
    if (
        tel is not None
        and comm.rank != 0
        and not isinstance(telemetry, TelemetryHook)
    ):
        tel.export_dir = None
    return tel


def _draw_lasso_bootstraps(
    n: int, config: UoILassoConfig
) -> tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]:
    """Replay the exact bootstrap sequence of the serial UoILasso."""
    rng = np.random.default_rng(config.random_state)
    selection = [
        iid_bootstrap(n, rng) for _ in range(config.n_selection_bootstraps)
    ]
    estimation = [
        bootstrap_train_eval(n, rng, train_frac=config.train_frac)
        for _ in range(config.n_estimation_bootstraps)
    ]
    return selection, estimation


class _DistUoIPlan(UoIPlan):
    """Shared engine plan of the two distributed drivers.

    One chain per bootstrap, one task per (bootstrap, λ) pair — the
    legacy checkpoint granularity, with the legacy record keys.
    ``chains`` enumerates the full grid; :meth:`ProcessGrid.executor`
    filters it down to this rank's owned work, so ``run_chain`` /
    ``reduce`` below run identically on every rank of a cell and may
    freely use the cell / world collectives — exactly the SPMD
    structure the legacy loops had, with the orchestration (ownership,
    lookup, hook dispatch) lifted into the engine.

    Subclasses say where a bootstrap's local rows come from
    (:meth:`_local_problem`) and how many responses one row carries.

    Reductions deliberately keep the legacy float-summation grouping
    (per-rank partial sums combined by ``Allreduce``): regrouping
    would change the bits of the final coefficients.
    """

    #: (selection key prefix, estimation key prefix)
    prefixes = ("sel", "est")
    #: Responses per sampled row (the held-out loss is a per-response mean).
    responses = 1

    def __init__(
        self,
        comm: SimComm,
        grid: ProcessGrid,
        lcfg: UoILassoConfig,
        solver_comm: SimComm,
        ncoef: int,
        lambdas: np.ndarray,
        selection_idx,
        estimation_idx,
    ) -> None:
        self.comm = comm
        self.grid = grid
        self.lcfg = lcfg
        self.solver_comm = solver_comm
        self.ncoef = ncoef
        self.lambdas = lambdas
        self.selection_idx = selection_idx
        self.estimation_idx = estimation_idx
        self.q = lcfg.n_lambdas
        self.B1 = lcfg.n_selection_bootstraps
        self.B2 = lcfg.n_estimation_bootstraps
        self.family: np.ndarray | None = None
        self.result: DistributedUoIResult | None = None

    def meta(self) -> dict:
        return {
            "q": self.q,
            "B1": self.B1,
            "B2": self.B2,
            "random_state": self.lcfg.random_state,
            "intersection_frac": self.lcfg.intersection_frac,
            **self.lcfg.solver_meta(),
            "pb": self.grid.pb,
            "plam": self.grid.plam,
        }

    def chains(self, stage):
        sel_prefix, est_prefix = self.prefixes
        if stage == SELECTION:
            nboot, prefix = self.B1, sel_prefix
        else:
            nboot, prefix = self.B2, est_prefix
        return [
            [
                Subproblem(stage, k, j, f"{prefix}/k{k}/j{j}", k, j)
                for j in range(self.q)
            ]
            for k in range(nboot)
        ]

    def finalize(self) -> DistributedUoIResult:
        if self.result is None:
            raise RuntimeError("plan has not been reduced yet")
        return self.result

    # ------------------------------------------------------------ solves
    def _local_problem(self, idx: np.ndarray):
        """This rank's ``(A_local, b_local)`` row block for sample ``idx``
        (collective over the solver communicator)."""
        raise NotImplementedError

    def _consensus(self, A_local, b_local, lam: float, beta0=None) -> np.ndarray:
        cfg = self.lcfg
        return consensus_lasso_admm(
            self.solver_comm,
            A_local,
            b_local,
            lam,
            rho=cfg.rho,
            max_iter=cfg.max_iter,
            abstol=cfg.abstol,
            reltol=cfg.reltol,
            adapt_rho=cfg.adapt_rho,
            beta0=beta0,
        ).beta

    def run_chain(self, stage, tasks, recovered, emit):
        k = tasks[0].bootstrap
        if stage == SELECTION:
            # At least one subproblem to solve: pay the data movement
            # (Tier-2 shuffle / distributed-Kronecker assembly).
            A_loc, b_loc = self._local_problem(self.selection_idx[k])
            beta = None
            for task in tasks:
                rec = recovered.get(task.key)
                if rec is not None:
                    # Recovered solve still seeds the λ-path warm start.
                    beta = rec["beta"]
                    continue
                beta = self._consensus(
                    A_loc, b_loc, float(self.lambdas[task.lam_index]), beta
                )
                emit(task, {"beta": beta})
            return

        train_idx, eval_idx = self.estimation_idx[k]
        A_tr, b_tr = self._local_problem(train_idx)
        A_ev, b_ev = self._local_problem(eval_idx)
        n_eval = len(eval_idx) * self.responses
        for task in tasks:
            if task.key in recovered:
                continue
            cols = np.flatnonzero(self.family[task.lam_index])
            # Deliberate per-task allocation: the buffer escapes into
            # the task payload, so pooling needs a copy-on-emit
            # protocol first (ROADMAP item 3(d); ~8 KB/task for
            # UoI_LASSO and ~24 MB/task for UoI_VAR at paper scale, the
            # largest open item on the ALLOC ledger).
            beta_full = np.zeros(self.ncoef)  # repro: ignore[ALLOC601]
            if cols.size:
                beta_full[cols] = self._consensus(A_tr[:, cols], b_tr, 0.0)
            resid = b_ev - A_ev @ beta_full
            sse = self.solver_comm.allreduce(float(resid @ resid), SUM)
            emit(task, {"beta": beta_full, "loss": sse / max(n_eval, 1)})

    # ------------------------------------------------------- reductions
    def reduce(self, stage, results):
        cfg = self.lcfg
        comm, grid = self.comm, self.grid
        # This cell's tasks, bootstrap-major: exactly what ``results``
        # holds, in the fixed order the sums below consume it.
        owned = [t for chain in self.chains(stage) for t in chain if grid.owns(t)]
        if stage == SELECTION:
            # Per-λ selection *counts* (how many bootstraps kept each
            # feature): SUM-reduced across the grid, then thresholded —
            # which implements both the paper's strict intersection
            # (frac = 1) and the soft variant.  Only a cell's rank 0
            # contributes, so the C consensus copies inside a cell are
            # not double counted.
            counts = np.zeros((self.q, self.ncoef), dtype=np.int64)
            if grid.cell.rank == 0:
                for t in owned:
                    counts[t.lam_index] += results[t.key]["beta"] != 0.0
            counts = comm.allreduce(counts, SUM)
            self.family = family_from_counts(
                counts, self.B1, frac=cfg.intersection_frac
            )
            return

        losses = np.full((self.B2, self.q), np.inf)
        kept: dict[tuple[int, int], np.ndarray] = {}
        for t in owned:
            rec = results[t.key]
            losses[t.bootstrap, t.lam_index] = float(rec["loss"])
            kept[(t.bootstrap, t.lam_index)] = rec["beta"]
        losses = comm.allreduce(losses, MIN)
        winners = best_support_per_bootstrap(losses, rule=cfg.selection_rule)

        # Union average: the owning cell's rank-0 contributes each winner.
        contrib = np.zeros(self.ncoef)
        for k in range(self.B2):
            j = int(winners[k])
            if (k, j) in kept and grid.cell.rank == 0:
                contrib += kept[(k, j)]
        coef = comm.allreduce(contrib, SUM) / self.B2
        self.result = DistributedUoIResult(
            coef=coef, supports=self.family, losses=losses, winners=winners,
            lambdas=self.lambdas,
        )


class _DistLassoPlan(_DistUoIPlan):
    """Distributed UoI_LASSO over a randomized (Tier-1/Tier-2) dataset."""

    kind = "uoi_lasso"

    def __init__(
        self,
        comm: SimComm,
        grid: ProcessGrid,
        dist: RandomizedDistributor,
        config: UoILassoConfig,
        dataset: str,
        lambdas: np.ndarray,
        selection_idx,
        estimation_idx,
    ) -> None:
        super().__init__(
            comm, grid, config, grid.cell, dist.n_cols - 1, lambdas,
            selection_idx, estimation_idx,
        )
        self.dist = dist
        self.dataset = dataset

    def meta(self) -> dict:
        return {
            "kind": "uoi_lasso",
            "dataset": self.dataset,
            "n": self.dist.n_rows,
            "p": self.ncoef,
            **super().meta(),
        }

    def _local_problem(self, idx):
        rows = self.dist.sample(idx, subcomm=self.solver_comm)
        return rows[:, 1:], rows[:, 0]


class _DistVarPlan(_DistUoIPlan):
    """Distributed UoI_VAR over the distributed-Kronecker lifted problem."""

    kind = "uoi_var"
    prefixes = ("var-sel", "var-est")

    def __init__(
        self,
        comm: SimComm,
        grid: ProcessGrid,
        config: UoIVarConfig,
        solver_comm: SimComm,
        lifted_local,
        dims: tuple[int, int, int],
        lambdas: np.ndarray,
        selection_idx,
        estimation_idx,
    ) -> None:
        self.m, self.p, self.kdim = dims
        super().__init__(
            comm, grid, config.lasso, solver_comm, self.kdim * self.p,
            lambdas, selection_idx, estimation_idx,
        )
        self.config = config
        self.lifted_local = lifted_local
        self.responses = self.p

    def meta(self) -> dict:
        return {
            "kind": "uoi_var",
            "m": self.m,
            "p": self.p,
            "kdim": self.kdim,
            "order": self.config.order,
            "block_length": self.config.block_length,
            **super().meta(),
        }

    def _local_problem(self, idx):
        return self.lifted_local(idx)


def _run_on_grid(
    plan: _DistUoIPlan, checkpoint: CheckpointPlan | None, telemetry
) -> DistributedUoIResult:
    """Run ``plan`` as this rank's slice of the grid, under the
    checkpoint / telemetry hooks, and attach the world progress totals."""
    comm, grid = plan.comm, plan.grid
    hook = CheckpointHook(
        checkpoint,
        clock=comm.clock,
        machine=comm.machine,
        writer=grid.cell.rank == 0,
    )
    tel = _rank_telemetry(telemetry, comm, f"distributed_{plan.kind}")
    hooks = [hook] if tel is None else [hook, tel]
    result = run_plan(plan, grid.executor(), hooks)
    result.recovered_subproblems, result.completed_subproblems = (
        _reduce_progress(comm, grid, hook.session)
    )
    result.telemetry = tel
    return result


def distributed_uoi_lasso(
    comm: SimComm,
    file: SimH5File,
    dataset: str,
    config: UoILassoConfig,
    *,
    pb: int = 1,
    plam: int = 1,
    checkpoint: CheckpointPlan | None = None,
    telemetry=None,
) -> DistributedUoIResult:
    """Run distributed UoI_LASSO on an ``(n, 1 + p)`` dataset.

    Column 0 of the dataset is the response ``y`` and the rest is the
    design ``X`` (the paper's ``InputData ∈ R^{n x (p+1)}``).  The
    call is collective over ``comm``; all ranks return the same
    result.  ``fit_intercept`` is not supported here — center the data
    when writing the file (the paper's synthetic data are centered).

    With ``checkpoint=`` a :class:`~repro.resilience.checkpoint.\
CheckpointPlan`, each cell's rank 0 persists its completed
    (bootstrap, λ) subproblems — the solved coefficient vector in
    selection (the support *and* the λ-path warm start derive from
    it), the refit and its held-out loss in estimation — and a
    restarted run against the same store skips recovered subproblems,
    producing bitwise the result of an uninterrupted run.  Resuming
    requires the same config and grid shape (enforced via the store's
    pinned metadata).

    ``telemetry=`` attaches one per-rank
    :class:`~repro.telemetry.hook.TelemetryHook` (``tid`` = world
    rank); with a directory value only world rank 0 exports files.
    The rank-0 hook is returned on ``result.telemetry``.
    """
    if config.fit_intercept:
        raise ValueError(
            "distributed_uoi_lasso does not support fit_intercept; "
            "center the data at generation time"
        )
    grid = ProcessGrid.build(comm, pb, plam)
    dist = RandomizedDistributor(comm, file, dataset)
    n = dist.n_rows
    p = dist.n_cols - 1
    q = config.n_lambdas

    # λ grid from the full data: local X'y contributions summed.
    y_loc = dist.tier1[:, 0]
    X_loc = dist.tier1[:, 1:]
    corr = comm.allreduce(X_loc.T @ y_loc, SUM)
    lambdas = lambda_grid_from_max(
        2.0 * float(np.max(np.abs(corr))), num=q, eps=config.lambda_min_ratio
    )

    selection_idx, estimation_idx = _draw_lasso_bootstraps(n, config)

    plan = _DistLassoPlan(
        comm, grid, dist, config, dataset, lambdas,
        selection_idx, estimation_idx,
    )
    result = _run_on_grid(plan, checkpoint, telemetry)
    dist.close()
    return result


def distributed_uoi_var(
    comm: SimComm,
    series: np.ndarray | None,
    config: UoIVarConfig,
    *,
    n_readers: int = 1,
    pb: int = 1,
    plam: int = 1,
    checkpoint: CheckpointPlan | None = None,
    telemetry=None,
) -> DistributedUoIResult:
    """Run distributed UoI_VAR (Algorithm 2) over ``comm``.

    ``series`` (the raw ``(N, p)`` time series) must be supplied on the
    ``n_readers`` leading ranks; other ranks may pass ``None``.  Every
    bootstrap builds its lifted problem through the distributed
    Kronecker path (readers expose the bootstrap lag matrices in RMA
    windows, compute cores assemble sparse slices) and solves it with
    sparse consensus ADMM.  All ranks return the same result; the
    lifted coefficient vector can be rearranged with
    :func:`repro.var.lag.partition_coefficients`.

    With ``pb``/``plam`` > 1 (Fig. 8's algorithmic parallelism) the
    communicator splits into a P_B x P_lambda grid of cells; the small
    lag matrices are broadcast once so each cell's leading ranks can
    act as its Kronecker readers, and the intersection/winner/union
    reductions run world-wide exactly as in
    :func:`distributed_uoi_lasso`.

    ``checkpoint=`` persists completed lifted (bootstrap, λ)
    subproblems under ``var-sel/`` / ``var-est/`` keys with the same
    skip-on-resume semantics as :func:`distributed_uoi_lasso` —
    including skipping the distributed-Kronecker assembly of a
    bootstrap whose owned subproblems are all recovered.

    ``telemetry=`` attaches per-rank telemetry exactly as in
    :func:`distributed_uoi_lasso`.
    """
    lcfg = config.lasso
    grid = ProcessGrid.build(comm, pb, plam)
    gridded = pb * plam > 1
    is_world_reader = comm.rank < n_readers
    if is_world_reader:
        if series is None:
            raise ValueError("reader ranks must provide the series")
        Y, X = build_lag_matrices(
            series, config.order, add_intercept=config.fit_intercept
        )
        m, p = Y.shape
        kdim = X.shape[1]
        lmax_corr = float(np.max(np.abs(X.T @ Y)))
        meta = (m, p, kdim, lmax_corr)
    else:
        meta, X, Y = None, None, None
    m, p, kdim, lmax_corr = comm.bcast(meta, root=0)
    if gridded:
        # One broadcast of the (small) source matrices, so every cell's
        # leading ranks can serve as that cell's readers.
        X, Y = comm.bcast(
            (X, Y) if comm.rank == 0 else None, root=0,
            category=TimeCategory.DISTRIBUTION,
        )
    cell_readers = min(n_readers, grid.cell.size, m)
    is_reader = (grid.cell.rank < cell_readers) if gridded else is_world_reader
    q = lcfg.n_lambdas
    B1, B2 = lcfg.n_selection_bootstraps, lcfg.n_estimation_bootstraps
    lambdas = lambda_grid_from_max(
        2.0 * lmax_corr, num=q, eps=lcfg.lambda_min_ratio
    )

    rng = np.random.default_rng(lcfg.random_state)
    selection_idx = [
        circular_block_bootstrap(m, rng, block_length=config.block_length)
        for _ in range(B1)
    ]
    estimation_idx = [
        block_train_eval(
            m, rng, block_length=config.block_length, train_frac=lcfg.train_frac
        )
        for _ in range(B2)
    ]

    solver_comm = grid.cell if gridded else comm
    kron_readers = cell_readers if gridded else n_readers

    def lifted_local(idx: np.ndarray):
        """Distributed-Kronecker assembly of the lifted slice for rows idx."""
        if is_reader:
            dk = DistributedKron(
                solver_comm, X[idx], Y[idx], n_readers=kron_readers
            )
        else:
            dk = DistributedKron(solver_comm, None, None, n_readers=kron_readers)
        A_loc, b_loc, _ = dk.build_local()
        dk.close()
        return A_loc, b_loc

    plan = _DistVarPlan(
        comm, grid, config, solver_comm, lifted_local, (m, p, kdim),
        lambdas, selection_idx, estimation_idx,
    )
    return _run_on_grid(plan, checkpoint, telemetry)


def distributed_cv_lasso(
    comm: SimComm,
    file: SimH5File,
    dataset: str,
    *,
    n_lambdas: int = 16,
    lambda_min_ratio: float = 1e-3,
    k: int = 5,
    rule: str = "min",
    random_state: int = 0,
    rho: float | None = None,
    max_iter: int = 500,
    adapt_rho: bool = True,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Distributed K-fold cross-validated LASSO (the paper's Fig. 1c).

    The paper reuses the Tier-2 randomized distribution for "data
    randomization for cross validation": fold membership is derived
    from the shared seed, each fold's training rows are delivered by
    one-sided shuffling against the resident Tier-1 blocks, and every
    (fold, λ) problem is solved with consensus ADMM over the whole
    communicator.  Returns ``(beta, lam_star, cv_losses)`` — identical
    on every rank — where ``beta`` is the full-data refit at the
    chosen penalty.

    Parameters mirror :func:`repro.linalg.cv.cv_lasso`; the dataset is
    the paper's ``(n, 1 + p)`` InputData layout (response in column 0).
    """
    from repro.core.bootstrap import iid_bootstrap  # noqa: F401 (doc aid)
    from repro.linalg.cv import kfold_indices

    if rule not in ("min", "1se"):
        raise ValueError(f"rule must be 'min' or '1se', got {rule!r}")
    dist = RandomizedDistributor(comm, file, dataset)
    n, p = dist.n_rows, dist.n_cols - 1
    rng = np.random.default_rng(random_state)
    folds = kfold_indices(n, k, rng)

    y_loc = dist.tier1[:, 0]
    X_loc = dist.tier1[:, 1:]
    corr = comm.allreduce(X_loc.T @ y_loc, SUM)
    lambdas = lambda_grid_from_max(
        2.0 * float(np.max(np.abs(corr))), num=n_lambdas, eps=lambda_min_ratio
    )

    losses = np.empty((k, n_lambdas))
    for f, (train, test) in enumerate(folds):
        train_rows = dist.sample(train)
        test_rows = dist.sample(test)
        X_tr, y_tr = train_rows[:, 1:], train_rows[:, 0]
        X_te, y_te = test_rows[:, 1:], test_rows[:, 0]
        beta = None
        for j, lam in enumerate(lambdas):
            res = consensus_lasso_admm(
                comm, X_tr, y_tr, float(lam),
                rho=rho, max_iter=max_iter, adapt_rho=adapt_rho, beta0=beta,
            )
            beta = res.beta
            resid = y_te - X_te @ beta
            sse = comm.allreduce(float(resid @ resid), SUM)
            losses[f, j] = sse / max(len(test), 1)

    cv_loss = losses.mean(axis=0)
    jmin = int(np.argmin(cv_loss))
    if rule == "1se" and k >= 2:
        se = losses.std(axis=0, ddof=1) / np.sqrt(k)
        j_star = int(np.argmax(cv_loss <= cv_loss[jmin] + se[jmin]))
    else:
        j_star = jmin
    lam_star = float(lambdas[j_star])

    # Full-data refit at the chosen penalty, straight off Tier-1.
    res = consensus_lasso_admm(
        comm, X_loc, y_loc, lam_star,
        rho=rho, max_iter=max_iter, adapt_rho=adapt_rho,
    )
    dist.close()
    return res.beta, lam_star, cv_loss
