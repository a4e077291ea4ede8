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
distributed-Kronecker construction, solving each response column
locally when one rank owns it and by consensus among the ranks that
share it otherwise.

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

    Subclasses supply ``run_chain``: how a cell solves its owned
    (bootstrap, λ) subproblems.

    Reductions deliberately keep the legacy float-summation grouping
    (per-rank partial sums combined by ``Allreduce``): regrouping
    would change the bits of the final coefficients.
    """

    #: (selection key prefix, estimation key prefix)
    prefixes = ("sel", "est")

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
        """This rank's ``(A_local, b_local)`` row block for sample ``idx``
        (collective over the solver communicator)."""
        rows = self.dist.sample(idx, subcomm=self.solver_comm)
        return rows[:, 1:], rows[:, 0]

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
            # (Tier-2 shuffle).
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
        # One block per chain; each task's payload is its own row.
        refits = np.zeros((len(tasks), self.ncoef))
        for task, beta_full in zip(tasks, refits):
            if task.key in recovered:
                continue
            cols = np.flatnonzero(self.family[task.lam_index])
            if cols.size:
                beta_full[cols] = self._consensus(A_tr[:, cols], b_tr, 0.0)
            resid = b_ev - A_ev @ beta_full
            sse = self.solver_comm.allreduce(float(resid @ resid), SUM)
            emit(task, {"beta": beta_full, "loss": sse / max(len(eval_idx), 1)})


@dataclass
class _ColumnGroups:
    """One rank's response columns of a lifted problem with ``m`` rows
    per column.

    :func:`~repro.distribution.kron_dist.lifted_row_block` stripes the
    ``m * p`` lifted rows column-major, so a rank's range holds whole
    response columns plus at most one column cut at each end.  Rows of
    column ``j`` are ``e_j' ⊗ X[i]``: restricted to any rows, the
    lifted Gram is block diagonal per column, so a column one rank owns
    outright is a serial problem on ``X``, and a cut column couples
    only the ranks that share it.
    """

    m: int
    lo: int
    hi: int
    #: Columns this rank owns outright, ascending (and contiguous).
    whole: list[int]
    #: ``(column, position in the sorted cut list)`` of each column this
    #: rank shares with others, ascending.
    cut: list[tuple[int, int]]
    #: Per rank, the columns it contributes to the exchange: its whole
    #: columns and the cut columns it is the lowest owner of.
    sources: list[list[int]]
    n_cut: int
    #: Sub-communicator per cut position this rank takes part in.
    comms: dict[int, SimComm] | None = None

    @classmethod
    def build(cls, m: int, p: int, size: int, rank: int) -> "_ColumnGroups":
        from repro.distribution.kron_dist import lifted_row_block

        owners: list[list[int]] = [[] for _ in range(p)]
        for r in range(size):
            lo, hi = lifted_row_block(m, p, size, r)
            if hi > lo:
                for j in range(lo // m, (hi - 1) // m + 1):
                    owners[j].append(r)
        cut_cols = [j for j in range(p) if len(owners[j]) > 1]
        position = {j: t for t, j in enumerate(cut_cols)}
        lo, hi = lifted_row_block(m, p, size, rank)
        mine = range(lo // m, (hi - 1) // m + 1) if hi > lo else range(0)
        sources: list[list[int]] = [[] for _ in range(size)]
        for j in range(p):
            sources[owners[j][0]].append(j)
        return cls(
            m=m,
            lo=lo,
            hi=hi,
            whole=[j for j in mine if j not in position],
            cut=[(j, position[j]) for j in mine if j in position],
            sources=sources,
            n_cut=len(cut_cols),
        )

    def rows(self, j: int) -> slice:
        """This rank's local rows of column ``j``."""
        return slice(
            max(j * self.m, self.lo) - self.lo,
            min((j + 1) * self.m, self.hi) - self.lo,
        )

    def split(self, j: int, n_first: int) -> tuple[slice, slice]:
        """:meth:`rows` of column ``j`` cut into those among the
        column's first ``n_first`` rows and the rest."""
        rs = self.rows(j)
        cut = min(max(j * self.m + n_first - self.lo, rs.start), rs.stop)
        return slice(rs.start, cut), slice(cut, rs.stop)

    def whole_block(
        self, rows: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(X, Y)`` of the whole columns: every one of them has all
        ``m`` rows of ``X``, and ``Y[:, c]`` is column ``whole[c]``."""
        start = self.rows(self.whole[0]).start
        stop = start + len(self.whole) * self.m
        return rows[start : start + self.m], b[start:stop].reshape(-1, self.m).T

    def cut_comms(self, comm: SimComm) -> dict[int, SimComm]:
        """Sub-communicators of this rank's cut columns, keyed by cut
        position.

        Collective over ``comm`` on the first call of a layout with cut
        columns: two splits, even positions then odd.  A rank's cut
        columns sit at the two ends of its range, adjacent in the cut
        list, so it needs at most one communicator of each parity.
        """
        if self.comms is None:
            self.comms = {}
            for parity in range(2 if self.n_cut else 0):
                mine = [t for _, t in self.cut if t % 2 == parity]
                sub = comm.split(mine[0] if mine else self.n_cut + comm.rank)
                if mine:
                    self.comms[mine[0]] = sub
        return self.comms


def _gram_rows(G: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A row design ``(R, r)`` with the sufficient statistics ``R'R = G``
    and ``R'r = c``.

    ``c = X'y`` lies in ``G = X'X``'s range, so least squares on any
    column subset of ``(R, r)`` has the minimisers of least squares on
    the rows ``G`` was summed from: the SVD fallback of
    :func:`~repro.linalg.ols.ols_from_gram` for a column whose rows
    sit on several ranks.
    """
    w, V = np.linalg.eigh(G)
    keep = w > w[-1] * len(w) * np.finfo(float).eps
    root = np.sqrt(w[keep])
    return root[:, None] * V[:, keep].T, (V[:, keep].T @ c) / root


class _DistVarPlan(_DistUoIPlan):
    """Distributed UoI_VAR over column groups of the lifted problem.

    The lifted problem ``(I_p ⊗ X) vec B`` splits into ``p``
    independent column problems (eq. 9), and the distributed Kronecker
    layout hands each rank whole columns plus at most two cut ones
    (:class:`_ColumnGroups`).  Per (bootstrap, λ):

    * whole columns run the serial kernels on their dense block, which
      is ``X[idx]``: selection advances all of them with one factor
      (``LassoADMM.solve_columns``, or covariance cd), estimation fits
      every support from one Gram (``ols_family_columns``);
    * a cut column runs the paper's algorithm on the ranks that share
      it: consensus ADMM on a ``kdim``-vector in selection, one
      allreduce of its partial ``X_U'X_U`` / ``X_U'y`` in estimation;
    * one ``allgather`` of every rank's column blocks gives all ranks
      the same lifted vector, bit for bit (per (bootstrap, λ) in
      selection, per bootstrap in estimation, whose training and
      held-out rows arrive in one fetch).

    At paper scale (``m p`` rows over far more ranks than columns)
    every column is cut, and this is the paper's consensus per column
    group.  Local factors and solves are charged to the rank's virtual
    clock at the machine model's rates, as consensus ADMM charges its
    own.  The serial kernels are imported where they are used.
    """

    kind = "uoi_var"
    prefixes = ("var-sel", "var-est")

    def __init__(
        self,
        comm: SimComm,
        grid: ProcessGrid,
        config: UoIVarConfig,
        solver_comm: SimComm,
        lifted_rows,
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
        self.lifted_rows = lifted_rows
        self._layouts: dict[int, _ColumnGroups] = {}

    def meta(self) -> dict:
        return {
            "kind": "uoi_var",
            "m": self.m,
            "p": self.p,
            "kdim": self.kdim,
            "order": self.config.order,
            "block_length": self.config.block_length,
            **super().meta(),
            "solve": "column-groups",
        }

    # ------------------------------------------------------------ solves
    def _column_blocks(
        self, idx: np.ndarray
    ) -> tuple[_ColumnGroups, np.ndarray, np.ndarray]:
        """This rank's layout and dense lifted rows for sample ``idx``
        (collective over the solver communicator)."""
        n = len(idx)
        if n not in self._layouts:
            comm = self.solver_comm
            self._layouts[n] = _ColumnGroups.build(n, self.p, comm.size, comm.rank)
        rows, b = self.lifted_rows(idx)
        return self._layouts[n], rows, b

    def _exchange(
        self, groups: _ColumnGroups, solved: dict, lead: tuple[int, ...] = ()
    ) -> np.ndarray:
        """The lifted ``(*lead, p * kdim)`` coefficients from every
        rank's ``solved[column]`` blocks of shape ``(*lead, kdim)``.

        One ``allgather``, not a SUM: every rank copies the same bits.
        """
        comm = self.solver_comm
        cols = groups.sources[comm.rank]
        mine = np.empty((*lead, len(cols), self.kdim))
        for i, j in enumerate(cols):
            mine[..., i, :] = solved[j]
        out = np.empty((*lead, self.p, self.kdim))
        for cols, block in zip(groups.sources, comm.allgather(mine)):
            out[..., cols, :] = block
        return out.reshape(*lead, self.p * self.kdim)

    def run_chain(self, stage, tasks, recovered, emit):
        if stage == SELECTION:
            self._select(tasks, recovered, emit)
        else:
            self._estimate(tasks, recovered, emit)

    def _select(self, tasks, recovered, emit) -> None:
        cfg, p, kdim = self.lcfg, self.p, self.kdim
        groups, rows, b = self._column_blocks(self.selection_idx[tasks[0].bootstrap])
        comms = groups.cut_comms(self.solver_comm)
        whole = self._whole_lasso(groups, rows, b)
        beta = None
        for task in tasks:
            rec = recovered.get(task.key)
            if rec is not None:
                # Recovered solve still seeds the λ-path warm start.
                beta = rec["beta"]
                continue
            lam = float(self.lambdas[task.lam_index])
            start = None if beta is None else beta.reshape(p, kdim)
            solved = {}
            if groups.whole:
                seed = None if start is None else start[groups.whole]
                solved.update(zip(groups.whole, whole(lam, seed)))
            for c, t in groups.cut:
                rs = groups.rows(c)
                solved[c] = consensus_lasso_admm(
                    comms[t],
                    rows[rs],
                    b[rs],
                    lam,
                    rho=cfg.rho,
                    max_iter=cfg.max_iter,
                    abstol=cfg.abstol,
                    reltol=cfg.reltol,
                    adapt_rho=cfg.adapt_rho,
                    beta0=None if start is None else start[c],
                ).beta
            beta = self._exchange(groups, solved)
            emit(task, {"beta": beta})

    def _whole_lasso(self, groups: _ColumnGroups, rows: np.ndarray, b: np.ndarray):
        """``step(lam, seed) -> [beta per whole column]`` on one factor
        of this bootstrap's ``X``, warm-started by ``seed`` (``(n_whole,
        kdim)`` or ``None``), with ``lcfg.solver``'s kernel."""
        from repro.linalg.admm import LassoADMM
        from repro.linalg.cd import lasso_cd, precompute_gram
        from repro.perf.flops import charge_cholesky, charge_gemm

        if not groups.whole:
            return None
        cfg = self.lcfg
        X, Y = groups.whole_block(rows, b)
        n, kdim = X.shape
        ncols = Y.shape[1]
        clock, machine = self.solver_comm.clock, self.solver_comm.machine
        small = min(n, kdim)
        charge_gemm(clock, machine, small, small, max(n, kdim))  # Gram
        charge_gemm(clock, machine, kdim, ncols, n)  # X'Y
        if cfg.solver == "admm":
            solver = LassoADMM(
                X,
                Y[:, 0],
                rho=cfg.rho,
                max_iter=cfg.max_iter,
                abstol=cfg.abstol,
                reltol=cfg.reltol,
                adapt_rho=cfg.adapt_rho,
            )
            if cfg.rho is None:
                charge_gemm(clock, machine, small, small, small)  # spectrum
            charge_cholesky(clock, machine, small)

            def admm_step(lam, seed):
                results = solver.solve_columns(
                    Y, lam, beta0=None if seed is None else seed.T
                )
                its = sum(res.iterations for res in results)
                # Two triangular solves per column iteration, run as
                # multi-RHS solves; the Woodbury branch adds two
                # products with X.
                charge_gemm(clock, machine, small, its, small)
                if n < kdim:
                    charge_gemm(clock, machine, n, 2 * its, kdim)
                return [res.beta for res in results]

            return admm_step

        gram, _, col_sq = precompute_gram(X)
        triples = [(gram, X.T @ Y[:, c], col_sq) for c in range(ncols)]

        def cd_step(lam, seed):
            # The rank clock charges one covariance sweep per column
            # (G beta for every column: one GEMM), not the solve's real
            # sweeps and exact steps, which only the cd.* counters see.
            charge_gemm(clock, machine, kdim, ncols, kdim)
            return [
                lasso_cd(
                    X, Y[:, c], lam,
                    beta0=None if seed is None else seed[c],
                    max_iter=cfg.max_iter, tol=cfg.cd_tol,
                    precomputed=triples[c],
                )
                for c in range(ncols)
            ]

        return cd_step

    def _estimate(self, tasks, recovered, emit) -> None:
        from repro.linalg.ols import ols_family_columns, ols_from_gram
        from repro.perf.flops import charge_gemm, charge_gemv

        todo = [t for t in tasks if t.key not in recovered]
        js = [t.lam_index for t in todo]
        kdim = self.kdim
        clock, machine = self.solver_comm.clock, self.solver_comm.machine
        # One fetch per bootstrap: each column's first n_train lifted
        # rows are the training sample, the rest are held out.
        train_idx, eval_idx = self.estimation_idx[tasks[0].bootstrap]
        n_train = len(train_idx)
        groups, rows, b = self._column_blocks(np.concatenate([train_idx, eval_idx]))
        comms = groups.cut_comms(self.solver_comm)
        family = self.family.reshape(self.q, self.p, kdim)
        masks = family[js]
        union = family.any(axis=(0, 1))
        nu = int(union.sum())
        solved = {}
        sse = np.zeros(len(js))
        if groups.whole:
            X, Y = groups.whole_block(rows, b)
            # One extra all-zero response whose support is the whole
            # family's union makes ols_family_columns form the serial
            # fit's Gram X_U'X_U; its solve is dropped.
            padded = np.zeros((len(js), len(groups.whole) + 1, kdim), dtype=bool)
            padded[:, :-1] = masks[:, groups.whole]
            padded[0, -1] = union
            est = ols_family_columns(
                X[:n_train], np.column_stack([Y[:n_train], np.zeros(n_train)]),
                padded.reshape(len(js), -1),
            ).reshape(padded.shape)[:, :-1]
            solved.update(zip(groups.whole, est.swapaxes(0, 1)))
            charge_gemm(clock, machine, nu, nu + len(groups.whole), n_train)
            for c in groups.whole:
                _charge_ols(clock, machine, masks[:, c])
            resid = Y[None, n_train:] - np.einsum("nk,qck->qnc", X[n_train:], est)
            sse += np.einsum("qnc,qnc->q", resid, resid)
            charge_gemm(clock, machine, len(X) - n_train, est.size // kdim, kdim)
        cut_fits = np.zeros((len(groups.cut), len(js), kdim))
        for (c, t), beta in zip(groups.cut, cut_fits):
            tr, ev = groups.split(c, n_train)
            XU, yc = rows[tr][:, union], b[tr]
            if nu:
                stats = np.concatenate([(XU.T @ XU).ravel(), XU.T @ yc])
                charge_gemm(clock, machine, nu, nu, len(yc))
                charge_gemv(clock, machine, nu, len(yc))
                stats = comms[t].allreduce(stats, SUM)
                G, cvec = stats[: nu * nu].reshape(nu, nu), stats[nu * nu :]
                R, r = _gram_rows(G, cvec)
                charge_gemm(clock, machine, nu, nu, nu)  # eigh
                fits: dict[bytes, np.ndarray] = {}
                for i, mask in enumerate(masks[:, c, union]):
                    key = mask.tobytes()
                    if key not in fits:
                        fits[key] = ols_from_gram(G, cvec, mask, R, r)
                    beta[i, union] = fits[key]
                _charge_ols(clock, machine, masks[:, c])
            solved[c] = beta
            resid = b[ev, None] - rows[ev] @ beta.T
            sse += np.einsum("nq,nq->q", resid, resid)
            charge_gemm(clock, machine, len(resid), len(js), kdim)
        est = self._exchange(groups, solved, (len(js),))
        # Every rank's held-out rows are of its own columns, whose fits
        # it holds: one allreduce of the per-support SSE.
        sse = self.solver_comm.allreduce(sse, SUM)
        n_eval = max(len(eval_idx) * self.p, 1)
        for task, beta, err in zip(todo, est, sse):
            emit(task, {"beta": beta, "loss": err / n_eval})


def _charge_ols(clock, machine, masks: np.ndarray) -> None:
    """Charge one Cholesky and two triangular solves per distinct
    non-empty support among ``masks`` (one column's, ``(nq, kdim)``)."""
    from repro.perf.flops import charge_cholesky, charge_trsv

    for size in {m.tobytes(): int(m.sum()) for m in masks}.values():
        if size:
            charge_cholesky(clock, machine, size)
            charge_trsv(clock, machine, size)
            charge_trsv(clock, machine, size)


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
    bootstrap fetches its lifted rows through the distributed
    Kronecker path (readers expose the bootstrap lag matrices in RMA
    windows, compute cores Get the rows they own).  Response columns a
    rank owns outright are solved with the serial kernels; a column
    whose rows span several ranks is solved by consensus ADMM among
    exactly those ranks (see :class:`_DistVarPlan`).  All ranks return
    the same result; the lifted coefficient vector can be rearranged
    with :func:`repro.var.lag.partition_coefficients`.  A series with
    NaN or inf is refused on every rank with the serial fit's
    ``ValueError``, before any solve.

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
        finite = bool(np.isfinite(series).all())
        lmax_corr = float(np.max(np.abs(X.T @ Y))) if finite else np.nan
        meta = (m, p, kdim, lmax_corr, finite)
    else:
        meta, X, Y = None, None, None
    m, p, kdim, lmax_corr, finite = comm.bcast(meta, root=0)
    if not finite:
        raise ValueError("series contains NaN or inf")
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

    def lifted_rows(idx: np.ndarray):
        """Distributed-Kronecker fetch of this rank's lifted rows of idx."""
        dk = DistributedKron(
            solver_comm,
            X[idx] if is_reader else None,
            Y[idx] if is_reader else None,
            n_readers=kron_readers,
        )
        rows, b_loc, _ = dk.build_rows()
        dk.close()
        return rows, b_loc

    plan = _DistVarPlan(
        comm, grid, config, solver_comm, lifted_rows, (m, p, kdim),
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
