"""Locally essential trees: what each rank must receive before it can run
its local FMM step.

For rank r with local target leaves T_r, the LET contains

* **remote bodies** — sources of the near field: every leaf in a local
  target's near-source list owned by another rank;
* **remote multipoles** — every V-list sender of a node owned by r that
  lives on another rank, plus the remote sibling multipoles needed to
  complete the upward sweep along r's ancestor path.

The exchange's byte counts drive the communication model; duplicates are
eliminated (a remote node's data is shipped once per consumer rank,
matching an aggregated alltoallv).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.partition import RankPartition

__all__ = ["LocallyEssentialTree", "build_let"]

#: bytes per body record (position + strength + index)
BODY_BYTES = 32.0
#: bytes per multipole coefficient (double)
COEFF_BYTES = 8.0


@dataclass
class LocallyEssentialTree:
    """Per-rank remote-data requirements."""

    n_ranks: int
    n_coeffs: int
    #: per rank: set of (owner_rank, node_id) whose *bodies* are needed
    remote_bodies: list[set[tuple[int, int]]] = field(default_factory=list)
    #: per rank: set of (owner_rank, node_id) whose *multipole* is needed
    remote_multipoles: list[set[tuple[int, int]]] = field(default_factory=list)

    def recv_bytes(self, rank: int, tree) -> float:
        """Bytes rank must receive in one LET exchange."""
        body_bytes = sum(
            tree.nodes[nid].count * BODY_BYTES for _, nid in self.remote_bodies[rank]
        )
        mult_bytes = len(self.remote_multipoles[rank]) * self.n_coeffs * COEFF_BYTES
        return body_bytes + mult_bytes

    def recv_messages(self, rank: int) -> int:
        """Distinct sender ranks (message count for the latency term)."""
        senders = {o for o, _ in self.remote_bodies[rank]}
        senders |= {o for o, _ in self.remote_multipoles[rank]}
        return len(senders)

    def total_bytes(self, tree) -> float:
        return sum(self.recv_bytes(r, tree) for r in range(self.n_ranks))


def build_let(part: RankPartition, *, n_coeffs: int) -> LocallyEssentialTree:
    """Construct the LET sets for every rank of ``part``."""
    tree = part.tree
    lists = part.lists
    let = LocallyEssentialTree(
        n_ranks=part.n_ranks,
        n_coeffs=n_coeffs,
        remote_bodies=[set() for _ in range(part.n_ranks)],
        remote_multipoles=[set() for _ in range(part.n_ranks)],
    )
    node_rank_cache: dict[int, int] = {}

    def owner(nid: int) -> int:
        if nid not in node_rank_cache:
            node_rank_cache[nid] = part.node_rank(nid)
        return node_rank_cache[nid]

    # near-field sources: remote bodies
    for t, sources in lists.near_sources.items():
        r = owner(t)
        for s in sources:
            ro = owner(s)
            if ro != r:
                let.remote_bodies[r].add((ro, s))

    # V senders: remote multipoles
    for nid, vs in lists.v_list.items():
        r = owner(nid)
        for v in vs:
            ro = owner(v)
            if ro != r:
                let.remote_multipoles[r].add((ro, v))

    # upward-sweep completion: a rank owning an internal node needs the
    # multipoles of children it does not own
    for nid in tree.effective_nodes():
        node = tree.nodes[nid]
        if node.is_leaf:
            continue
        r = owner(nid)
        for c in tree.effective_children(nid):
            ro = owner(c)
            if ro != r:
                let.remote_multipoles[r].add((ro, c))
    return let
