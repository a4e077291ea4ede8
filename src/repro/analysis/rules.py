"""Rule registry for the static passes and the runtime checkers.

One :class:`Rule` per id, grouped by family (``SPMD0xx``,
``SHAPE1xx``, ``DYN2xx``, ``DET3xx``, ``PLAN4xx``, ``LOCK5xx``,
``ALLOC6xx``, ``SUP001``; the package docstring maps families to
modules), and :func:`finding`, the one constructor of a rule's
findings.  Every rule also appears, with an example and its
suppression syntax, in ``docs/static-analysis.md`` — keep the two in
sync.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.findings import ERROR, WARNING, Finding

__all__ = [
    "Rule",
    "RULES",
    "STATIC_RULES",
    "SHAPE_RULES",
    "DYNAMIC_RULES",
    "DETERMINISM_RULES",
    "PLAN_RULES",
    "THREAD_RULES",
    "ALLOC_RULES",
    "SUPPRESSION_RULES",
    "get_rule",
    "finding",
]


@dataclass(frozen=True)
class Rule:
    """One checkable invariant.

    Attributes
    ----------
    id:
        Stable identifier (``SPMD001``); referenced by suppressions
        (``# repro: ignore[SPMD001]``) and asserted on by tests.
    name:
        Short kebab-case slug.
    severity:
        Default severity of findings from this rule.
    summary:
        One-line statement of the invariant.
    rationale:
        Why violating it breaks an SPMD program (message shown in
        ``docs/static-analysis.md``).
    """

    id: str
    name: str
    severity: str
    summary: str
    rationale: str


STATIC_RULES = (
    Rule(
        id="SPMD001",
        name="rank-conditional-collective",
        severity=ERROR,
        summary="collective call inside a rank-conditional branch",
        rationale=(
            "MPI collectives (allreduce, bcast, barrier, fence, ...) must "
            "be reached by every rank of the communicator in the same "
            "order; a collective guarded by `if comm.rank == ...` leaves "
            "the other ranks blocked forever (or silently matches the "
            "wrong call)."
        ),
    ),
    Rule(
        id="SPMD002",
        name="global-numpy-rng",
        severity=ERROR,
        summary="np.random.* global-state RNG used instead of default_rng",
        rationale=(
            "The global numpy RNG is process-wide state: simulated ranks "
            "are threads, so draws interleave nondeterministically and "
            "bootstrap replay from a shared seed breaks. All randomness "
            "must flow through an explicit np.random.default_rng(...) "
            "Generator."
        ),
    ),
    Rule(
        id="SPMD003",
        name="span-not-context-managed",
        severity=WARNING,
        summary="telemetry span opened without a `with` block",
        rationale=(
            "repro.telemetry.span(...) returns a context manager; a bare "
            "call records nothing (the interval is never closed), so the "
            "run's category breakdown silently loses that region."
        ),
    ),
    Rule(
        id="SPMD004",
        name="rma-buffer-mutated",
        severity=WARNING,
        summary="buffer returned by Window.get mutated in place without a copy",
        rationale=(
            "Under real MPI RMA the origin buffer of a Get belongs to the "
            "epoch until the next synchronization; mutating it in place "
            "races the transfer. The simulator's Window.get returns a "
            "private copy, so code relying on that is not portable to an "
            "mpi4py backend — take an explicit .copy() before mutating."
        ),
    ),
)

DYNAMIC_RULES = (
    Rule(
        id="DYN201",
        name="collective-sequence-mismatch",
        severity=ERROR,
        summary="ranks called different collectives at the same sequence point",
        rationale=(
            "Collectives match by call order per communicator; when rank "
            "A's n-th collective is an allreduce and rank B's is a bcast, "
            "the runtime combines unrelated payloads (or deadlocks). The "
            "checker validates the operation kind of every contribution "
            "before it is combined."
        ),
    ),
    Rule(
        id="DYN202",
        name="collective-argument-mismatch",
        severity=ERROR,
        summary="collective called with mismatched op/root/dtype/shape across ranks",
        rationale=(
            "A reduction where ranks pass different ReduceOps (or "
            "different dtypes/shapes, or different roots) silently uses "
            "whichever rank combined last — a rank-dependent result that "
            "no test at small scale reliably catches."
        ),
    ),
    Rule(
        id="DYN203",
        name="rma-epoch-race",
        severity=ERROR,
        summary="conflicting RMA operations on one target location within an epoch",
        rationale=(
            "Between two Window.fence calls, a put/accumulate that "
            "overlaps a get (or another put) on the same target rows is "
            "unordered: MPI leaves the outcome undefined. Separate "
            "conflicting accesses with a fence."
        ),
    ),
    Rule(
        id="DYN204",
        name="deadlock",
        severity=ERROR,
        summary="ranks blocked forever in mismatched communication",
        rationale=(
            "A rank waiting in a collective or recv that its peers never "
            "post can only time out; the reporter names every blocked "
            "rank and the call each is waiting in so the mismatch is "
            "diagnosable from one message."
        ),
    ),
    Rule(
        id="DYN205",
        name="worker-lease-stall",
        severity=ERROR,
        summary="coordinator fleet made no progress within the stall timeout",
        rationale=(
            "The worker-lease generalization of DYN204: when every "
            "outstanding lease sits on a worker that is neither "
            "completing, streaming partials, nor departing — and no new "
            "worker joins — the elastic run can only time out. The "
            "reporter names each stalled worker and the lease it holds "
            "(chain + subproblem keys) so a hung fleet is diagnosable "
            "from one message."
        ),
    ),
    Rule(
        id="DYN206",
        name="lock-order-violation",
        severity=ERROR,
        summary="observed lock-order inversion or long-held-lock stall",
        rationale=(
            "The runtime twin of LOCK501: a LockOrderObserver wrapped "
            "around the service/elastic/stream locks records every "
            "thread's acquisition stack. Two locks observed held in "
            "both orders is a deadlock that merely has not interleaved "
            "badly yet; a lock held past the stall threshold starves "
            "every contending thread. Observation only — checked runs "
            "are bitwise-identical to unchecked ones."
        ),
    ),
    Rule(
        id="DYN207",
        name="allocation-hotspot",
        severity=WARNING,
        summary="runtime allocation hotspot not covered by the static ALLOC pass",
        rationale=(
            "The runtime twin of the ALLOC6xx pass: an AllocationObserver "
            "attached to an engine run attributes tracemalloc bytes and "
            "ndarray-constructor calls to each (stage, bootstrap, λ) "
            "subproblem. A site that allocates many times per subproblem "
            "above the byte threshold, in a module the static pass scans, "
            "without a matching static finding or suppression, is a "
            "precision gap in the static pass — report it so the rule "
            "set grows instead of silently missing churn. Observation "
            "only — observed runs are bitwise-identical to unobserved "
            "ones."
        ),
    ),
)

SHAPE_RULES = (
    Rule(
        id="SHAPE101",
        name="dense-kron-materialization",
        severity=ERROR,
        summary="dense materialization of I ⊗ X outside the sanctioned "
        "identity_kron path",
        rationale=(
            "The lifted design I_p ⊗ X of eq. (9) is ≈ p³ the size of the "
            "data: materializing it densely on one rank (np.kron(np.eye(p), "
            "X), identity_kron(..., sparse=False), .toarray() on a lifted "
            "result) silently exhausts node memory at paper scale. All "
            "materialization must flow through repro.linalg.kron's "
            "sanctioned sparse representation."
        ),
    ),
    Rule(
        id="SHAPE102",
        name="per-rank-memory-budget",
        severity=ERROR,
        summary="symbolic allocation size exceeds the per-rank memory budget",
        rationale=(
            "An allocation whose symbolic size — dims propagated from "
            "`n, p = X.shape`-style bindings — evaluates above the "
            "configured per-rank budget at reference scale (N=1e5, p=1e3) "
            "will OOM a production run 40 minutes in; the interpreter "
            "proves it before launch."
        ),
    ),
    Rule(
        id="SHAPE103",
        name="dtype-drift",
        severity=WARNING,
        summary="float32/float64 mixed arithmetic or solver-boundary upcast",
        rationale=(
            "Mixing float32 and float64 operands silently upcasts: memory "
            "doubles, results stop being bitwise-reproducible against the "
            "float32 pipeline, and scipy.sparse ops materialize float64 "
            "copies. Normalize the dtype at the subsystem boundary "
            "instead."
        ),
    ),
)

DETERMINISM_RULES = (
    Rule(
        id="DET301",
        name="wall-clock-in-plan",
        severity=ERROR,
        summary="wall-clock read reachable from UoIPlan.run_chain/reduce",
        rationale=(
            "The plan module's determinism contract promises that the same "
            "seed yields bitwise-identical coefficients on every backend; "
            "a time.time()/perf_counter()/datetime.now() value flowing "
            "into plan-reachable code makes results depend on when the run "
            "started."
        ),
    ),
    Rule(
        id="DET302",
        name="os-ordering-dependence",
        severity=ERROR,
        summary="os-ordered listing (glob/listdir/scandir/iterdir) reachable "
        "from a plan without sorted()",
        rationale=(
            "glob.glob, os.listdir, os.scandir and Path.iterdir return "
            "entries in filesystem order, which differs across nodes and "
            "runs; feeding that order into plan-reachable code breaks "
            "cross-backend bitwise identity. Wrap the listing in "
            "sorted(...)."
        ),
    ),
    Rule(
        id="DET303",
        name="set-iteration-order",
        severity=ERROR,
        summary="iteration over a set feeding plan-reachable computation",
        rationale=(
            "Set iteration order depends on insertion history and hash "
            "randomization; iterating a set inside run_chain/reduce (or "
            "anything they call) reorders float accumulation and breaks "
            "the fixed reduction order the determinism contract requires. "
            "Iterate sorted(the_set) instead."
        ),
    ),
    Rule(
        id="DET304",
        name="unseeded-rng-in-plan",
        severity=ERROR,
        summary="unseeded RNG (default_rng() / random.*) reachable from a plan",
        rationale=(
            "All plan randomness must be pre-drawn in __init__ from the "
            "run's random_state; an unseeded np.random.default_rng() or a "
            "stdlib random.* call in plan-reachable code draws entropy "
            "from the OS and cannot replay. (Global np.random state is "
            "SPMD002; this extends the contract to nominally-local but "
            "unseeded generators.)"
        ),
    ),
)

PLAN_RULES = (
    Rule(
        id="PLAN401",
        name="duplicate-checkpoint-key",
        severity=ERROR,
        summary="two subproblems share one checkpoint key",
        rationale=(
            "Checkpoint records are keyed by Subproblem.key; a duplicate "
            "key makes the second write clobber the first, so a restarted "
            "run recovers the wrong payload and the resume is no longer "
            "bitwise-identical. Statically: a constant key built inside a "
            "task loop is a duplicate in waiting."
        ),
    ),
    Rule(
        id="PLAN402",
        name="warm-start-order",
        severity=ERROR,
        summary="chain tasks out of warm-start order",
        rationale=(
            "Tasks in one chain share bootstrap data and λ-path warm "
            "starts and must run in list order: positions must be "
            "0,1,2,... and λ indices monotone, and a chain must not mix "
            "stages or bootstraps. An out-of-order chain warm-starts the "
            "solver from the wrong β and changes every downstream bit."
        ),
    ),
    Rule(
        id="PLAN403",
        name="grid-coverage",
        severity=ERROR,
        summary="stage does not cover the (bootstrap, λ) grid exactly once",
        rationale=(
            "Selection must enumerate every bootstrap 0..B1-1 (and, for "
            "per-λ plans, every λ 0..q-1) exactly once, estimation "
            "likewise over B2: a gap silently drops a subproblem from the "
            "intersection/union, a duplicate double-counts it — neither "
            "crashes, both corrupt the estimator."
        ),
    ),
    Rule(
        id="PLAN404",
        name="collective-congruence",
        severity=ERROR,
        summary="rank-divergent collective schedule provable from the plan",
        rationale=(
            "The static twin of DYN201/202: every cell must own a "
            "disjoint, exhaustive slice of the task grid, run_chain must "
            "not post world-wide collectives (ownership filtering makes "
            "them rank-divergent), and reduce's collectives must be "
            "unconditional — otherwise ranks disagree on the collective "
            "sequence and the run deadlocks or combines unrelated "
            "payloads."
        ),
    ),
    Rule(
        id="PLAN405",
        name="lease-disjointness",
        severity=ERROR,
        summary="two active leases cover the same subproblem",
        rationale=(
            "The coordinator's leases must partition outstanding work "
            "the way PLAN404's grid cells partition the plan: at most "
            "one primary (non-speculative) lease may cover a subproblem "
            "key at a time. Overlapping primary leases mean two workers "
            "own one subproblem — wasted compute at best, and a "
            "first-writer-wins race on checkpoint records at worst. "
            "Speculative duplicates are exempt by design: they re-run "
            "the same pure chain and the coordinator keeps only the "
            "first result."
        ),
    ),
)

THREAD_RULES = (
    Rule(
        id="LOCK501",
        name="lock-order-inversion",
        severity=ERROR,
        summary="two locks are acquired in both orders on different paths",
        rationale=(
            "If one code path takes lock A then lock B while another "
            "takes B then A, two threads interleaving those paths "
            "deadlock forever — each holds the lock the other needs. "
            "The pass builds the lock-acquisition graph across every "
            "`with lock:` / `.acquire()` site (following calls made "
            "while a lock is held, like the DET pass follows taint) and "
            "reports each edge participating in a cycle."
        ),
    ),
    Rule(
        id="LOCK502",
        name="bare-condition-wait",
        severity=ERROR,
        summary="Condition.wait() outside a while-predicate loop",
        rationale=(
            "Condition waits are subject to spurious wakeups, and the "
            "predicate can be re-falsified between notify and wakeup "
            "under multiple waiters; a wait guarded by `if` (or by no "
            "check at all) proceeds on stale state. The only safe shape "
            "is `while not predicate: cond.wait()` — or wait_for(), "
            "which loops internally."
        ),
    ),
    Rule(
        id="LOCK503",
        name="unlocked-shared-write",
        severity=ERROR,
        summary="attribute written under a lock somewhere is also written "
        "without it",
        rationale=(
            "An attribute that any method writes while holding a lock is, "
            "by that act, declared shared mutable state; a write to it on "
            "a path that does not hold the same lock races every locked "
            "reader and writer (lost updates, torn compound state). The "
            "lock-set attribution follows callers: a helper only ever "
            "invoked with the lock held counts as locked (Eraser-style)."
        ),
    ),
    Rule(
        id="LOCK504",
        name="blocking-call-under-lock",
        severity=ERROR,
        summary="blocking call (socket recv/accept, Queue.get, "
        "future.result, engine run) while holding a lock",
        rationale=(
            "A lock held across an unbounded wait — a socket recv, a "
            "queue get, a future result, an entire engine run — stalls "
            "every thread contending for that lock for as long as the "
            "wait lasts, and deadlocks outright if the awaited event "
            "itself needs the lock to make progress. Snapshot under the "
            "lock, then block outside it (Condition.wait is exempt: it "
            "releases the lock while waiting)."
        ),
    ),
)

ALLOC_RULES = (
    Rule(
        id="ALLOC601",
        name="loop-allocation",
        severity=WARNING,
        summary="fresh ndarray allocated inside a per-iteration loop in a "
        "hot region",
        rationale=(
            "A numpy constructor (zeros/empty/ones/full/eye/identity/"
            "kron/*_like) inside a loop of a hot function — code "
            "reachable from UoIPlan.run_chain/reduce, a solver inner "
            "loop, a simmpi collective, or the bootstrap resampler — "
            "allocates and touches a fresh buffer every iteration. At "
            "paper scale (p = 1000, q = B = 48) that churn is pure "
            "allocator and memory-bandwidth overhead the paper's flat "
            "per-subproblem cost cannot absorb: hoist the allocation or "
            "reuse a pooled buffer (repro.perf.pool.Workspace)."
        ),
    ),
    Rule(
        id="ALLOC602",
        name="avoidable-copy",
        severity=WARNING,
        summary="provably avoidable copy (double copy, re-contiguation, or "
        "loop-invariant fancy-index materialization)",
        rationale=(
            "Three shapes of copy the evidence proves redundant: .copy() "
            "on an already-fresh array (np.array/np.ascontiguousarray "
            "results are new buffers); np.ascontiguousarray on a value "
            "already bound to an ascontiguousarray result; and a fancy "
            "index `base[idx]` with loop-invariant base and index inside "
            "a loop, which materializes the same selection afresh every "
            "iteration — hoist it once before the loop."
        ),
    ),
    Rule(
        id="ALLOC603",
        name="missed-inplace",
        severity=WARNING,
        summary="binary-op update of an existing array misses the in-place "
        "form (out= / augmented assignment)",
        rationale=(
            "`u = u + a - b` inside a hot loop builds one temporary per "
            "binary op and a fresh result, then drops the old buffer; "
            "`u += a; u -= b` (or np.add/np.subtract with out=) performs "
            "the identical float operations in the identical order — "
            "bitwise the same result — with zero allocations. Every "
            "numpy ufunc in these updates supports out=."
        ),
    ),
    Rule(
        id="ALLOC604",
        name="loop-buffer-escape",
        severity=WARNING,
        summary="per-iteration buffer escapes its loop (appended/stored/"
        "returned) — explicit pool candidate",
        rationale=(
            "An ndarray constructed inside a loop and kept beyond it "
            "(appended to a list, stored in an outer container or "
            "attribute, returned) cannot simply be hoisted — each "
            "iteration genuinely needs its own buffer. These sites are "
            "the candidate list for shape/dtype-keyed buffer pooling "
            "(ROADMAP item 2, fv3gfs-util Buffer.get_from_cache style): "
            "the pool hands each iteration a recycled buffer instead of "
            "a fresh allocation."
        ),
    ),
)

SUPPRESSION_RULES = (
    Rule(
        id="SUP001",
        name="stale-suppression",
        severity=WARNING,
        summary="rule-scoped suppression matches no finding",
        rationale=(
            "A `# repro: ignore[RULE]` that no longer suppresses anything "
            "is dead weight that will silently swallow the next real "
            "finding on that line; remove it once the underlying issue is "
            "fixed."
        ),
    ),
)

#: id -> Rule for every rule, static and dynamic.
RULES: dict[str, Rule] = {
    r.id: r
    for r in (
        STATIC_RULES
        + SHAPE_RULES
        + DYNAMIC_RULES
        + DETERMINISM_RULES
        + PLAN_RULES
        + THREAD_RULES
        + ALLOC_RULES
        + SUPPRESSION_RULES
    )
}


def get_rule(rule_id: str) -> Rule:
    """Look up a rule by id; raises ``KeyError`` with the known ids."""
    try:
        return RULES[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(RULES))}"
        ) from None


def finding(
    rule_id: str, file: str, line: int, message: str, /,
    source: str = "lint", **context: object,
) -> Finding:
    """A :class:`Finding` of ``rule_id`` at its registered severity."""
    rule = get_rule(rule_id)
    return Finding(rule.id, rule.severity, message, file, line, source, context)
