"""Resilience demo — crash, checkpoint, restart, bitwise recovery.

Runs a functional (downscaled) version of the Fig.-4 weak-scaling
UoI_LASSO configuration on the simulated substrate, twice:

1. **Reference** — uninterrupted, no checkpointing.
2. **Faulted** — same job with a :class:`~repro.resilience.FaultPlan`
   that kills one rank at a fraction of the reference's modeled
   runtime, checkpointing completed (bootstrap, λ) subproblems;
   :func:`~repro.resilience.run_with_recovery` restarts it against the
   same store.

The report verifies the recovered run's coefficients, supports, and
loss table are **bitwise identical** to the reference, and accounts
for virtual time lost versus subproblems recovered from checkpoint —
the quantities the ``repro faults`` subcommand prints.

``--checkpoint-dir`` persists the store across invocations;
``--resume`` skips the injected crash and simply fast-forwards through
whatever the store already holds (the restart half of a real
checkpoint/restart workflow, runnable by hand).
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.core.config import UoILassoConfig
from repro.core.parallel import distributed_uoi_lasso
from repro.datasets import make_sparse_regression
from repro.experiments.base import ExperimentResult
from repro.pfs.hdf5 import SimH5File
from repro.resilience import (
    CheckpointPlan,
    CheckpointStore,
    FaultPlan,
    run_with_recovery,
    store_progress,
)
from repro.simmpi import LAPTOP, run_spmd

__all__ = ["run", "FIG4_FUNCTIONAL_CONFIG"]

#: Downscaled Fig.-4 flavor: fixed rows-per-core, the paper's B1/B2/q
#: ratios shrunk to functional-test size.
FIG4_FUNCTIONAL_CONFIG = UoILassoConfig(
    n_lambdas=6,
    n_selection_bootstraps=6,
    n_estimation_bootstraps=4,
    random_state=7,
)


def run(
    fast: bool = True,
    *,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    nranks: int = 4,
    crash_rank: int = 1,
    at_frac: float = 0.5,
    cadence: int = 1,
) -> ExperimentResult:
    """Run the crash/checkpoint/restart demo; see module docstring.

    Parameters
    ----------
    fast:
        Smaller problem (default); ``False`` doubles rows and features.
    checkpoint_dir:
        Persist the checkpoint store here (a temporary directory is
        used — and discarded — when omitted).
    resume:
        Do not inject a crash; resume from ``checkpoint_dir`` as a
        restarted job would.
    nranks, crash_rank, at_frac, cadence:
        World size, the rank to kill, the kill time as a fraction of
        the reference run's modeled time, and the checkpoint cadence.
    """
    if not (0 <= crash_rank < nranks):
        raise ValueError(f"crash_rank {crash_rank} out of range for {nranks} ranks")
    # Sized so that consensus solves, not the modeled ~1 ms file load,
    # are most of the run: the default crash at half the modeled time
    # then lands mid-stage, after some subproblems were checkpointed.
    rows_per_rank, p = (120, 60) if fast else (240, 120)
    n = rows_per_rank * nranks
    cfg = FIG4_FUNCTIONAL_CONFIG
    ds = make_sparse_regression(
        n, p, n_informative=max(3, p // 4), snr=15.0,
        rng=np.random.default_rng(cfg.random_state),
    )
    file = SimH5File("/resilience.h5")
    file.create_dataset("data", np.column_stack([ds.y, ds.X]))
    pb = 2 if nranks % 2 == 0 else 1

    def job(comm, checkpoint=None):
        return distributed_uoi_lasso(
            comm, file, "data", cfg, pb=pb, checkpoint=checkpoint
        )

    # Reference: uninterrupted, no checkpoint overhead.
    ref_res = run_spmd(nranks, job, machine=LAPTOP)
    reference = ref_res.values[0]
    t_clean = ref_res.elapsed

    tmp = None
    if checkpoint_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-resilience-")
        checkpoint_dir = tmp.name
    try:
        store = CheckpointStore(checkpoint_dir)
        plan = CheckpointPlan(store, cadence=cadence)
        faults = FaultPlan()
        if not resume:
            faults.crash(crash_rank, at_time=at_frac * t_clean)
        outcome = run_with_recovery(
            nranks, job, machine=LAPTOP, fault_plan=faults, checkpoint=plan
        )
        recovered_result = outcome.result.values[0]
        progress = store_progress(store)
    finally:
        if tmp is not None:
            tmp.cleanup()

    bitwise = (
        recovered_result.coef.tobytes() == reference.coef.tobytes()
        and np.array_equal(recovered_result.supports, reference.supports)
        and recovered_result.losses.tobytes() == reference.losses.tobytes()
        and np.array_equal(recovered_result.winners, reference.winners)
    )

    lines = [
        f"config: n={n} p={p} q={cfg.n_lambdas} "
        f"B1={cfg.n_selection_bootstraps} B2={cfg.n_estimation_bootstraps} "
        f"nranks={nranks} pb={pb} cadence={cadence}",
        f"reference (uninterrupted) modeled time: {t_clean:.4g}s",
        "",
        outcome.render(),
        "",
        f"checkpoint store: {progress}",
        f"recovered result bitwise-identical to reference: {bitwise}",
    ]
    return ExperimentResult(
        name="resilience",
        title="fault injection + checkpoint/restart recovery",
        report="\n".join(lines),
        data={
            "bitwise_identical": bitwise,
            "clean_elapsed": t_clean,
            "lost_time": outcome.lost_time,
            "final_elapsed": outcome.final_elapsed,
            "n_restarts": outcome.n_restarts,
            "recovered_subproblems": outcome.recovered_subproblems,
            "completed_subproblems": outcome.completed_subproblems,
            "recovery_fraction": outcome.recovery_fraction,
            "pre_crash_records": outcome.checkpointed_before_restart,
            "store_records": progress,
        },
        paper_reference=(
            "Not a paper artifact: the paper's 4k-278k-core runs assume "
            "failure-free execution; this subsystem adds the "
            "checkpoint/restart such runs need in practice, preserving "
            "the algorithm's seeded determinism across restarts."
        ),
    )
