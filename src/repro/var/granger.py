"""Granger-causal network extraction (the paper's Fig. 11 output).

A fitted VAR gives matrices ``A_1 ... A_d``; component ``j``
Granger-causes component ``i`` exactly when some lag carries a nonzero
weight ``A_l[i, j]``.  The paper draws this as a directed graph with
node size proportional to degree and edge width proportional to the
estimate magnitude; :func:`granger_digraph` builds the corresponding
``networkx.DiGraph`` and :func:`network_summary` reports the headline
statistics ("fewer than 40 edges out of 2500 possible").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - networkx is imported where used
    import networkx as nx

__all__ = ["granger_adjacency", "granger_digraph", "edge_list", "network_summary"]


def granger_adjacency(
    coefs: list[np.ndarray],
    *,
    tol: float = 0.0,
) -> np.ndarray:
    """Weighted adjacency ``W[i, j]`` = max-over-lags ``|A_l[i, j]|``.

    Entries at or below ``tol`` are zeroed (no edge).  ``W[i, j] > 0``
    means there is a directed Granger edge ``j -> i``.
    """
    coefs = [np.asarray(A, dtype=float) for A in coefs]
    if not coefs:
        raise ValueError("need at least one coefficient matrix")
    p = coefs[0].shape[0]
    for A in coefs:
        if A.shape != (p, p):
            raise ValueError(f"all A_l must be ({p}, {p}); got {A.shape}")
    W = np.max(np.stack([np.abs(A) for A in coefs]), axis=0)
    W[W <= tol] = 0.0
    return W


def granger_digraph(
    coefs: list[np.ndarray],
    *,
    labels: list[str] | None = None,
    tol: float = 0.0,
    include_self_loops: bool = False,
) -> nx.DiGraph:
    """Directed graph with an edge ``j -> i`` per nonzero ``A_l[i, j]``.

    Parameters
    ----------
    coefs:
        Fitted ``A_1 ... A_d``.
    labels:
        Optional node names (e.g. company tickers); defaults to
        integer indices.
    tol:
        Magnitude threshold below which entries count as zero.
    include_self_loops:
        Keep ``i -> i`` autoregressive edges (the paper's figure drops
        them — self-dependence is not network structure).
    """
    W = granger_adjacency(coefs, tol=tol)
    p = W.shape[0]
    if labels is None:
        labels = [str(i) for i in range(p)]
    if len(labels) != p:
        raise ValueError(f"got {len(labels)} labels for {p} nodes")
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(labels)
    for i in range(p):
        for j in range(p):
            if W[i, j] > 0.0 and (include_self_loops or i != j):
                g.add_edge(labels[j], labels[i], weight=float(W[i, j]))
    return g


def edge_list(
    coefs: list[np.ndarray],
    *,
    labels: list[str] | None = None,
    tol: float = 0.0,
) -> list[tuple[str, str, float]]:
    """Edges ``(source, target, weight)`` sorted by descending weight."""
    g = granger_digraph(coefs, labels=labels, tol=tol)
    edges = [(u, v, d["weight"]) for u, v, d in g.edges(data=True)]
    edges.sort(key=lambda e: (-e[2], e[0], e[1]))
    return edges


def network_summary(coefs: list[np.ndarray], *, tol: float = 0.0) -> dict:
    """Headline statistics of the inferred network.

    Returns a dict with ``nodes``, ``possible_edges`` (p², counting
    self-loops, as the paper's "2500 possible" does for p = 50),
    ``edges`` (off-diagonal), ``self_loops``, ``density``,
    ``max_in_degree``, ``max_out_degree``.
    """
    W = granger_adjacency(coefs, tol=tol)
    p = W.shape[0]
    mask = W > 0.0
    off = mask & ~np.eye(p, dtype=bool)
    return {
        "nodes": p,
        "possible_edges": p * p,
        "edges": int(off.sum()),
        "self_loops": int(np.diag(mask).sum()),
        "density": float(off.sum() / max(p * (p - 1), 1)),
        "max_in_degree": int(off.sum(axis=1).max()) if p else 0,
        "max_out_degree": int(off.sum(axis=0).max()) if p else 0,
    }
