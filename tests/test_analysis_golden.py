"""Golden findings: every static pass over a fixed corpus, pinned.

The corpus is every file under ``tests/fixtures/`` plus one inline
sample per static rule family (SPMD, SHAPE, DET, PLAN's AST side,
LOCK, ALLOC, SUP001).  The DET sample spans two modules so call
resolution meets every call shape: a bare name (a function, or a
class's ``__init__``), ``self.m()``, a method on a local bound to a
constructor, ``module.f()``, and the shapes only LOCK follows (a
method on a ``self`` attribute bound to a constructor, on an annotated
parameter, on an annotated helper's result).  Each
of the six passes runs over each corpus entry, and the sorted
``(rule, file basename, line, severity, message)`` list must equal
``tests/fixtures/golden_findings.json`` exactly.  A rule whose
findings move fails here by name.

To refresh the snapshot after a deliberate rule change, write
``json.dumps(golden(), indent=1)`` to the snapshot file and review the
diff.
"""

import glob
import json
import os
import textwrap

from repro.analysis.alloc import alloc_scan
from repro.analysis.determinism import determinism_check_index
from repro.analysis.linter import lint_index
from repro.analysis.planver import plan_lint_index
from repro.analysis.rules import RULES
from repro.analysis.shapes import shape_check_index
from repro.analysis.source import ModuleInfo, SourceIndex
from repro.analysis.threads import threads_check_index

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SNAPSHOT = os.path.join(FIXTURES, "golden_findings.json")

SPMD = """\
import numpy as np
from numpy.random import rand, default_rng


def spmd(comm, win, world, span):
    if comm.rank == 0:
        comm.allreduce(1)
        win.fence()
    else:
        world.barrier()
    np.random.seed(0)
    x = np.random.default_rng(1).random()
    span("phase")
    buf = win.get(0)
    buf[0] = x
    other = win.get(1)
    other = other.copy()
    other[0] = 1.0
    row = win.get(2)
    row.fill(0.0)
    return buf, rand


def nested(comm):
    def inner():
        if comm.rank:
            comm.bcast(None)
    return inner
"""

SHAPE = """\
import numpy as np


def shapes(X, Y, lambdas):
    n, p = X.shape
    G = np.zeros((n, n, p))
    a = np.zeros(p, dtype=np.float32)
    b = np.zeros(p)
    c = a + b
    lasso_cd(a, Y)
    L = identity_kron(X, p, sparse=False)
    D = identity_kron(X, p)
    D.toarray()
    K = np.kron(np.eye(p), X)
    E = np.eye(n, dtype="float32")
    F = np.ones((len(lambdas), n, p))
    H = a.astype(np.float64) @ b.T
    return G, c, L, K, E, F, H


class Model:
    def fit(self, X):
        n, p = X.shape
        self.G = np.empty((n, p, p), dtype=bool)
        return np.full((self.n, p), 0.0) + np.zeros(3, dtype="float32")
"""

DET_PLANS = """\
import glob
import os
import random
import time

import numpy as np

import det.helpers as helpers
from det.helpers import Clock


class UoIPlan:
    pass


class Worker:
    def __init__(self):
        self.t0 = time.perf_counter()

    def listing(self):
        return os.listdir(".")

    def tidy(self):
        return sorted(glob.glob("*")), len(os.listdir("."))


class Plan(UoIPlan):
    def __init__(self):
        self.seed = time.time()
        self.clock = Clock()

    def run_chain(self, stage, tasks, recovered, emit):
        w = Worker()
        w.listing()
        w.tidy()
        self.inner(tasks)
        helpers.draw()
        self.clock.tick()
        free(tasks)
        return [x for x in {1, 2}]

    def inner(self, tasks):
        s = set(tasks)
        for x in s:
            emit(x)
        for y in frozenset(tasks):
            emit(y)
        return glob.glob("*")

    def reduce(self, stage, results):
        rng = np.random.default_rng()
        seeded = np.random.default_rng(3)
        return random.random() + rng.random() + seeded.random()


class Child(Plan):
    def reduce(self, stage, results):
        def later():
            return time.monotonic()
        return later


def free(tasks):
    for t in tasks:
        buf = np.zeros((t, 8))
        buf += 1
    return time.time()


def unreached():
    for i in range(3):
        scratch = np.empty(i)
    return time.time()
"""

DET_HELPERS = """\
import datetime
import random

import numpy as np


def draw():
    return datetime.datetime.now()


class Clock:
    def tick(self):
        return random.shuffle([1, 2])


def handle(h: Clock):
    return h.tick()
"""

PLAN = """\
from repro.engine.plan import Subproblem


class UoIPlan:
    pass


class Base(UoIPlan):
    def chains(self, stage):
        out = []
        for k in range(3):
            out.append([Subproblem(stage, k, None, f"sel/k0")])
            out.append([Subproblem(stage, k, None, f"sel/k{k}")])
        return out

    def run_chain(self, stage, tasks, recovered, emit):
        self.comm.allreduce(1)
        self.cell.allreduce(1)
        self.grid.world.barrier()

    def reduce(self, stage, results):
        if self.comm.rank == 0:
            self.comm.bcast(1)
        if self.grid.owns_lambda(0):
            self.cell.allreduce(2)
        self.comm.allreduce(3)


class Derived(Base):
    def run_chain(self, stage, tasks, recovered, emit):
        world.gather(1)


class NotAPlan:
    def run_chain(self, stage, tasks, recovered, emit):
        self.comm.allreduce(1)
"""

LOCK = """\
import queue
import threading
import time


class Store:
    def __init__(self):
        self.lock = threading.Lock()
        self.items = {}
        self.count = 0

    def put(self, k, v):
        with self.lock:
            self.items[k] = v
            self.count += 1

    def reset(self):
        self.count = 0
        self.items.clear()

    def _bump(self):
        self.count += 1

    def bump(self):
        with self.lock:
            self._bump()

    def slow(self, sock, q, fut):
        with self.lock:
            time.sleep(1)
            sock.recv(4)
            q.get(timeout=1)
            fut.result()


class Front:
    def __init__(self, store):
        self.mu = threading.RLock()
        self.cv = threading.Condition()
        self.store = Store()

    def _get(self) -> Store:
        return self.store

    def forward(self, other: Store):
        with self.mu:
            self.store.put(1, 2)
            with other.lock:
                pass

    def backward(self):
        s = self._get()
        with s.lock:
            with self.mu:
                pass

    def waits(self, ready):
        with self.cv:
            for _ in range(3):
                self.cv.wait()
            while True:
                self.cv.wait()
            while not ready():
                self.cv.wait()


GUARD = threading.Lock()


def module_level(store: Store):
    GUARD.acquire()
    with store.lock:
        with GUARD:
            pass
"""

ALLOC = """\
import numpy as np


def hot(X, rows, idx, lambdas, p, n):
    X = np.ascontiguousarray(X)
    u = np.zeros(p)
    out = []
    acc = {}
    for lam in lambdas:
        G = np.eye(p)
        t = np.zeros((len(lambdas), p), dtype=np.float32)
        k = np.full((n, p), lam)
        u = u + G[0] - t[0]
        sel = X[idx]
        mine = X[lam]
        keep = np.empty(p)
        out.append(keep)
        acc[lam] = np.zeros(3)
        w = np.zeros_like(u)
        acc["w"] = w
        Y = np.ascontiguousarray(X)
        fresh = np.array(X).copy()
        both = (X + 1).copy()
        kr = np.kron(G, G)
        f = lambda: np.zeros(p)
        while lam > 0:
            lam -= 1
            z = np.ones(n * p)
            return z
    return out, sel, mine, k, Y, fresh, both, kr, f
"""

SUPPRESSIONS = """\
import numpy as np


def f(comm):
    if comm.rank == 0:
        comm.barrier()  # repro: ignore[SPMD001]
    np.random.seed(1)  # repro: ignore[SPMD001]
    x = 1  # repro: ignore[SHAPE101, DET301]
    y = 2  # repro: ignore[LOCK501,ALLOC601,PLAN401]
    z = 3  # repro: ignore
    quoted = "# repro: ignore[SPMD002]"
    return x, y, z, quoted
"""

SAMPLES = {
    "sample_spmd.py": SPMD,
    "sample_shape.py": SHAPE,
    "sample_plan.py": PLAN,
    "sample_lock.py": LOCK,
    "sample_alloc.py": ALLOC,
    "sample_suppressions.py": SUPPRESSIONS,
}


def _passes(index: SourceIndex) -> list:
    return [
        *lint_index(index),
        *shape_check_index(index),
        *determinism_check_index(index),
        *plan_lint_index(index),
        *threads_check_index(index),
        *alloc_scan(index).findings,
    ]


def _corpus() -> list[SourceIndex]:
    fixtures = sorted(glob.glob(os.path.join(FIXTURES, "*.py")))
    indexes = [SourceIndex.from_paths(fixtures)]
    indexes += [
        SourceIndex.from_source(textwrap.dedent(src), name)
        for name, src in SAMPLES.items()
    ]
    # Two modules, the helpers one not named explicitly: ALLOC's hot
    # set there is the plan closure alone.
    indexes.append(
        SourceIndex(
            [
                ModuleInfo.parse(DET_PLANS, "sample_det_plans.py", "det.plans", True),
                ModuleInfo.parse(
                    DET_HELPERS, "sample_det_helpers.py", "det.helpers", False
                ),
            ]
        )
    )
    indexes.append(
        SourceIndex(
            [ModuleInfo.parse(DET_PLANS, "sample_det_closure.py", "det.plans", False)]
        )
    )
    return indexes


def golden() -> list[list]:
    rows = {
        (f.rule, os.path.basename(f.file), f.line, f.severity, f.message)
        for index in _corpus()
        for f in _passes(index)
    }
    return [list(row) for row in sorted(rows)]


def test_findings_match_snapshot():
    with open(SNAPSHOT, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = golden()
    moved = sorted(
        {row[0] for row in got if row not in expected}
        | {row[0] for row in expected if row not in got}
    )
    assert got == expected, f"findings moved for rules: {moved}"


def test_snapshot_covers_every_static_rule():
    runtime_only = {"PLAN402", "PLAN403", "PLAN405"}
    static = {
        r for r in RULES if not r.startswith("DYN") and r not in runtime_only
    }
    assert static <= {row[0] for row in golden()}
