"""Session graphs: one directed graph per session prefix.

A prefix [v1 .. vn] becomes a graph whose nodes are the distinct items in
first-occurrence order and whose edges are the consecutive-click pairs
(v_{t-1} -> v_t), kept with multiplicity; an immediate repeat produces a
self-loop.  Two q x q weight matrices summarize the edges:

* ``m_out[i][j]`` = count(i -> j) / total outgoing occurrences of i
* ``m_in[i][j]``  = count(j -> i) / total incoming occurrences of i

so each row sums to 1 where the node has any outgoing (resp. incoming)
edge and is all zeros otherwise.

Graphs are built a batch at a time (``build_graph_batch``), zero-padded
to the batch's largest node and position counts, the layout of SR-GNN
(Wu et al., AAAI 2019).  A padded node has no edges and no position, and
a padded position picks no node, so padding never reaches a real value.
``build_session_graph`` is the batch of one, unpadded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SessionGraph:
    nodes: list[int]        # distinct items, first-occurrence order
    alias: np.ndarray       # session position -> node position, length n
    m_in: np.ndarray        # q x q incoming weights
    m_out: np.ndarray       # q x q outgoing weights

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


@dataclass
class GraphBatch:
    """The graphs of B prefixes, padded to q nodes and n positions."""
    nodes: np.ndarray       # (B, q) item of each node, 0 where padded
    node_mask: np.ndarray   # (B, q) True for real nodes
    alias: np.ndarray       # (B, n) node of each position, -1 where padded
    pick: np.ndarray        # (B, n, q) one-hot alias; all-zero rows where padded
    lengths: np.ndarray     # (B,) prefix lengths
    m_in: np.ndarray        # (B, q, q)
    m_out: np.ndarray       # (B, q, q)

    def graph(self, b: int) -> SessionGraph:
        """Example b's graph with the padding cut off."""
        q, n = int(self.node_mask[b].sum()), int(self.lengths[b])
        return SessionGraph(nodes=self.nodes[b, :q].tolist(), alias=self.alias[b, :n],
                            m_in=self.m_in[b, :q, :q], m_out=self.m_out[b, :q, :q])


def build_graph_batch(prefixes) -> GraphBatch:
    """Build and pad the graphs of several prefixes.

    Raises ValueError on an empty prefix.
    """
    alias_rows, node_rows = [], []
    for prefix in prefixes:
        if len(prefix) == 0:
            raise ValueError("cannot build a session graph from an empty prefix")
        node_of: dict[int, int] = {}
        alias_rows.append([node_of.setdefault(int(item), len(node_of)) for item in prefix])
        node_rows.append(list(node_of))
    batch, n, q = len(alias_rows), max(map(len, alias_rows)), max(map(len, node_rows))
    alias = np.array([row + [-1] * (n - len(row)) for row in alias_rows])
    nodes = np.array([row + [0] * (q - len(row)) for row in node_rows])
    node_mask = np.arange(q) < np.array([len(row) for row in node_rows])[:, None]
    pick = (alias[:, :, None] == np.arange(q)).astype(np.float64)

    # (v_{t-1} -> v_t) pairs within each prefix, as flat indices into (B, q, q)
    edges = [(b * q + src) * q + dst for b, row in enumerate(alias_rows) for src, dst in zip(row, row[1:])]
    counts = np.bincount(np.array(edges, dtype=np.int64), minlength=batch * q * q)
    counts = counts.reshape(batch, q, q).astype(np.float64)
    out_deg = counts.sum(axis=2, keepdims=True)    # outgoing occurrences per start node
    in_deg = counts.sum(axis=1, keepdims=True)     # incoming occurrences per end node
    # a node without edges has an all-zero row, which stays zero over 1
    m_out = counts / np.maximum(out_deg, 1.0)
    m_in = (counts / np.maximum(in_deg, 1.0)).transpose(0, 2, 1)
    return GraphBatch(nodes=nodes, node_mask=node_mask, alias=alias, pick=pick,
                      lengths=np.array([len(row) for row in alias_rows]), m_in=m_in, m_out=m_out)


def build_session_graph(prefix) -> SessionGraph:
    """Build the directed graph of one session prefix.

    Raises ValueError on an empty prefix.
    """
    return build_graph_batch([prefix]).graph(0)
