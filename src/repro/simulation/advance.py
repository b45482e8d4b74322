"""The store-and-forward advance core shared by both simulators.

The paper's model (Section 1): time is synchronous and each edge carries
at most one packet per step.  :func:`~repro.simulation.scheduler.simulate`
(every packet born at step 0) and
:func:`~repro.simulation.online.simulate_online` (packets born over time)
both drive :class:`Advance`, which owns the growable edge-id CSR, one
``ready_at`` array (``random-delay``'s delay, then the fault backoff,
which always dominates it: only a ready packet is ever blocked),
contention resolution, blocked-edge backoff/reroute/drop, the admission
ingress, and the ``faults.*`` / ``admission.*`` counters.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["Advance"]


class Advance:
    """Per-run packet state plus the one-step advance of the model.

    Packet ``i``'s remaining edges are ``eids[starts[i] + pos[i] :
    starts[i] + lengths[i]]``; ``active`` holds the in-network packets in
    ascending index order, which is birth order, so ``"fifo"`` and
    ``"random-delay"`` favour the lowest index, ``"farthest-first"`` the
    most remaining hops and ``"random"`` a fresh ``rng`` permutation.  A
    packet blocked on a dead edge waits ``2 ** min(retries - 1,
    backoff_cap)`` steps; after ``max_retries`` attempts it takes
    ``reroute(node, target, alive)`` as its path from its current node,
    or, on ``None``, is dropped (non-repairing model) or waits on.
    """

    def __init__(
        self,
        mesh,
        eids: np.ndarray,
        lengths: np.ndarray,
        src: np.ndarray | None,
        dst: np.ndarray | None,
        *,
        policy: str,
        rng: np.random.Generator,
        ready_at: np.ndarray | None = None,
        born: np.ndarray | None = None,
        admission=None,
        faults=None,
        reroute: Callable | None = None,
        max_retries: int = 3,
        backoff_cap: int = 5,
    ):
        num = lengths.size
        self.mesh, self.policy, self.rng, self.born = mesh, policy, rng, born
        self.eids, self.used = eids, int(eids.size)
        self.lengths = np.array(lengths, dtype=np.int64)
        self.starts = np.zeros(num, dtype=np.int64)
        np.cumsum(self.lengths[:-1], out=self.starts[1:])
        self.pos = np.zeros(num, dtype=np.int64)
        # without delays or faults nothing holds an active packet back
        self.gated = ready_at is not None or faults is not None
        self.ready_at = np.zeros(num, dtype=np.int64) if ready_at is None else ready_at
        # current node and destination: needed only to reroute
        self.cur = None if src is None else np.array(src, dtype=np.int64)
        self.dst = dst
        self.retries = np.zeros(num, dtype=np.int64)
        self.faults, self.reroute = faults, reroute
        self.max_retries, self.backoff_cap = max_retries, backoff_cap
        self.active = np.empty(0, dtype=np.int64)
        self.max_queue = self.blocked_steps = self.reroutes = self.dropped = 0
        self.adm = None
        if admission is not None:
            from repro.simulation.admission import AdmissionState

            self.adm = AdmissionState(admission)

    @property
    def pending(self) -> bool:
        """Packets in the network or in the admission queue."""
        return bool(self.active.size) or (self.adm is not None and len(self.adm) > 0)

    def enter(self, idx: np.ndarray) -> None:
        """Packets ``idx`` (ascending, above every earlier entry) are born."""
        if self.adm is not None:
            self.adm.push(idx)
        else:
            self.active = np.concatenate((self.active, idx))

    def admit(self, t: int) -> None:
        """One admission round at step ``t``; shed packets never enter."""
        if self.adm is not None:
            admitted, _ = self.adm.step_admit(t, int(self.active.size), self.born)
            if admitted:
                admitted = np.asarray(admitted, dtype=np.int64)
                self.active = np.concatenate((self.active, admitted))

    def advance(self, t: int) -> np.ndarray:
        """Move packets one step at time ``t``; return those that arrived,
        in winner order (ascending edge id)."""
        idx = self.active
        if self.gated:
            idx = idx[self.ready_at[idx] <= t]
        if idx.size == 0:
            return idx
        edges = self.eids[self.starts[idx] + self.pos[idx]]
        if self.faults is not None:
            alive = self.faults.edge_alive(t)
            blocked = ~alive[edges]
            if np.any(blocked):
                self._blocked(idx[blocked], t, alive)
                idx, edges = idx[~blocked], edges[~blocked]
                if idx.size == 0:
                    return idx
        # the deepest per-edge queue this step
        self.max_queue = max(self.max_queue, int(np.bincount(edges).max()))
        if self.policy == "farthest-first":
            prio = -(self.lengths[idx] - self.pos[idx])
        elif self.policy == "random":
            prio = self.rng.permutation(idx.size)
        else:
            prio = idx
        order = np.lexsort((prio, edges))
        sorted_edges = edges[order]
        first = np.ones(sorted_edges.size, dtype=bool)
        first[1:] = sorted_edges[1:] != sorted_edges[:-1]
        winners = idx[order[first]]
        if self.faults is not None:
            ends = self.mesh.edge_endpoints[sorted_edges[first]]
            self.cur[winners] = ends.sum(axis=1) - self.cur[winners]
            self.retries[winners] = 0
        self.pos[winners] += 1
        arrived = winners[self.pos[winners] == self.lengths[winners]]
        if arrived.size:
            keep = self.pos[self.active] < self.lengths[self.active]
            self.active = self.active[keep]
        return arrived

    def _blocked(self, bidx: np.ndarray, t: int, alive: np.ndarray) -> None:
        """Back off packets ``bidx`` blocked at ``t``; reroute or drop."""
        self.retries[bidx] += 1
        self.blocked_steps += int(bidx.size)
        self.ready_at[bidx] = t + (
            1 << np.minimum(self.retries[bidx] - 1, self.backoff_cap)
        )
        drop: list[int] = []
        for i in bidx[self.retries[bidx] >= self.max_retries].tolist():
            path = self.reroute(int(self.cur[i]), int(self.dst[i]), alive)
            if path is not None:
                self._splice(i, self.mesh.edge_ids(path[:-1], path[1:]))
                self.ready_at[i] = t + 1
                self.reroutes += 1
            elif not self.faults.repairs:
                drop.append(i)
                continue
            # rerouted, or waiting out the backoff of a repairing model
            self.retries[i] = 0
        if drop:
            self.dropped += len(drop)
            self.active = self.active[~np.isin(self.active, drop)]

    def _splice(self, i: int, seq: np.ndarray) -> None:
        """Repoint packet ``i``'s remaining edges at the fresh ``seq``."""
        end = self.used + seq.size
        if end > self.eids.size:
            grown = np.empty(max(end, 2 * self.eids.size), dtype=np.int64)
            grown[: self.used] = self.eids[: self.used]
            self.eids = grown
        self.eids[self.used : end] = seq
        self.starts[i] = self.used - self.pos[i]
        self.lengths[i] = self.pos[i] + seq.size
        self.used = end

    def report(self, profiler) -> None:
        """Add this run's ``faults.*`` and ``admission.*`` counters."""
        if profiler is None:
            return
        for name, value in (
            ("faults.blocked_steps", self.blocked_steps),
            ("faults.reroutes", self.reroutes),
            ("faults.dropped", self.dropped),
        ):
            if value:
                profiler.count(name, value)
        if self.adm is not None:
            for name, value in self.adm.counters().items():
                profiler.count(name, value)
