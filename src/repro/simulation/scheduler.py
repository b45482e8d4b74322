"""Greedy synchronous store-and-forward scheduling of fixed paths.

Packets follow their pre-selected paths; per time step every edge carries
at most one packet (the paper's model), and contention is resolved by a
priority policy:

* ``"farthest-first"`` — most remaining hops wins (the classic policy
  behind near-``O(C + D)`` schedules on meshes);
* ``"fifo"`` — lowest packet index wins (stable, injection-order);
* ``"random"`` — a fresh random winner per edge per step;
* ``"random-delay"`` — every packet waits a uniform initial delay in
  ``[0, C]`` before moving, then FIFO — the classic random-delays trick
  behind the ``O(C + D)``-style schedules the paper's ``C + D`` metric
  anticipates (delays decorrelate packets sharing edges).

Every packet is born at step 0 and driven through the store-and-forward
core shared with the online simulator
(:class:`~repro.simulation.advance.Advance`): each step gathers every
ready packet's next edge from the flat edge-id stream of a
:class:`~repro.core.pathset.PathSet`, sorts ``(edge, priority)``
requests with ``np.lexsort`` and moves the first request per edge.

The makespan of *any* schedule is at least ``max(C, D) >= (C + D) / 2``,
so ``makespan / (C + D)`` in ``[0.5, ~1+]`` certifies the selected paths
are routable in near-optimal time.

Fault injection
---------------
Pass ``faults=`` a :class:`~repro.faults.model.FaultModel` and packets
whose next edge is dead *wait* with exponential backoff, then *reroute*
from their current node over the alive subgraph
(:func:`~repro.faults.router.shortest_alive_path`) after ``max_retries``
blocked attempts; packets whose destination became unreachable under a
non-repairing model are dropped (``delivery_times[i] == -1``).  A trivial
model (``p = 0``) is a strict no-op: the fault-free code path runs and
results are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.pathset import PathSet
from repro.mesh.mesh import Mesh
from repro.routing.base import RoutingResult
from repro.simulation.advance import Advance

__all__ = ["simulate", "SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of a synchronous schedule.

    Fault-tolerance accounting (all zero on a fault-free run):
    ``delivered`` counts packets that reached their destination,
    ``retries_total`` the packet-steps spent blocked on a dead edge,
    ``rerouted`` the packets that switched to an alive-subgraph detour,
    and ``dropped`` the packets abandoned as unreachable (their
    ``delivery_times`` entry is ``-1``).
    """

    makespan: int
    delivery_times: np.ndarray  # step at which each packet arrived (0 = started there)
    congestion: int
    dilation: int
    policy: str
    num_packets: int = 0
    delivered: int = 0
    retries_total: int = 0
    rerouted: int = 0
    dropped: int = 0
    #: admission-control accounting (zero with ``admission=None``)
    admission_dropped: int = 0
    admission_delayed_steps: int = 0

    @property
    def cd_bound(self) -> int:
        """``C + D``: the paper's path-quality measure."""
        return self.congestion + self.dilation

    @property
    def efficiency(self) -> float:
        """``makespan / (C + D)`` — at least 0.5 for any schedule."""
        return self.makespan / self.cd_bound if self.cd_bound else 0.0

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction (1.0 when nothing was injected)."""
        return self.delivered / self.num_packets if self.num_packets else 1.0

    def summary(self) -> str:
        base = (
            f"makespan={self.makespan} vs C+D={self.cd_bound} "
            f"(C={self.congestion}, D={self.dilation}, policy={self.policy})"
        )
        if self.delivered < self.num_packets or self.retries_total:
            base += (
                f"; delivered {self.delivered}/{self.num_packets} "
                f"(retries={self.retries_total}, rerouted={self.rerouted}, "
                f"dropped={self.dropped})"
            )
        return base


def simulate(
    mesh: Mesh,
    paths: Sequence[np.ndarray] | RoutingResult,
    *,
    policy: str = "farthest-first",
    seed: int | None = None,
    max_steps: int | None = None,
    faults=None,
    max_retries: int = 3,
    backoff_cap: int = 5,
    profiler=None,
    admission=None,
) -> SimulationResult:
    """Schedule ``paths`` synchronously and measure the makespan.

    ``paths`` may be a raw path list or a :class:`RoutingResult`.  Raises
    ``RuntimeError`` if delivery takes more than ``max_steps`` (default
    ``8 * (C + D) + 64``, far above anything a greedy schedule needs).

    With a non-trivial ``faults`` model the run degrades instead of
    raising: blocked packets back off exponentially (capped at
    ``2 ** backoff_cap`` steps), reroute after ``max_retries`` blocked
    attempts, drop when unreachable, and hitting ``max_steps`` ends the
    run with the stragglers marked undelivered rather than raising.

    With ``admission=`` an :class:`~repro.simulation.admission.
    AdmissionParams`, packets enter the network from a FIFO ingress
    queue under token-bucket + backpressure control instead of all at
    step 0; ``delivery_times`` keep counting from step 0, so queueing
    shows up in the makespan, and stragglers at ``max_steps`` are marked
    undelivered rather than raising.  ``admission=None`` runs the
    byte-identical pre-admission code path.
    """
    pathset = PathSet.from_paths(
        paths.paths if isinstance(paths, RoutingResult) else paths
    )
    if policy not in ("farthest-first", "fifo", "random", "random-delay"):
        raise ValueError(f"unknown policy {policy!r}")
    faulty = faults is not None and not faults.is_trivial
    rng = np.random.default_rng(seed)

    num = len(pathset)
    lengths = pathset.lengths

    from repro.metrics.congestion import congestion as _congestion

    cong = _congestion(mesh, pathset)
    dil = int(lengths.max()) if num else 0
    if max_steps is None:
        max_steps = 8 * (cong + dil) + 64
        if faulty:
            # waiting/rerouting legitimately needs more room than C + D
            max_steps = 8 * max_steps + 8 * mesh.diameter
        if admission is not None:
            # queueing legitimately stretches the schedule: budget the
            # worst-case release time on top of the scheduling bound
            if admission.rate_limit is not None:
                max_steps += int(np.ceil(num / admission.rate_limit)) + 64
            if admission.max_backlog is not None:
                waves = int(np.ceil(num / admission.max_backlog))
                max_steps += waves * (cong + dil + 1)

    reroute = src = dst = None
    if faulty:
        from repro.faults.router import shortest_alive_path

        def reroute(node: int, target: int, alive: np.ndarray):
            detour = shortest_alive_path(mesh, node, target, alive)
            return detour if detour is not None and detour.size > 1 else None

        src = pathset.nodes[pathset.offsets[:-1]]
        dst = pathset.nodes[pathset.offsets[1:] - 1]

    core = Advance(
        mesh,
        pathset.edge_ids(mesh),
        lengths,
        src,
        dst,
        policy=policy,
        rng=rng,
        ready_at=(
            rng.integers(0, cong + 1, size=num) if policy == "random-delay" else None
        ),
        admission=admission,
        faults=faults if faulty else None,
        reroute=reroute,
        max_retries=max_retries,
        backoff_cap=backoff_cap,
    )
    # every packet is born at step 0, in index order (the FIFO order)
    core.enter(np.nonzero(lengths > 0)[0])
    # -1 until delivered: shed, dropped and cut-off packets stay there
    delivery = np.where(lengths > 0, -1, 0).astype(np.int64)
    step = 0
    while core.pending:
        if step >= max_steps:
            if faulty or admission is not None:
                break  # stragglers are undelivered, not a scheduling bug
            raise RuntimeError(
                f"schedule exceeded {max_steps} steps (C={cong}, D={dil})"
            )
        core.admit(step)
        arrived = core.advance(step)
        step += 1
        delivery[arrived] = step
    core.report(profiler)
    undelivered = int((delivery < 0).sum())
    return SimulationResult(
        makespan=step,
        delivery_times=delivery,
        congestion=cong,
        dilation=dil,
        policy=policy,
        num_packets=num,
        delivered=num - undelivered,
        retries_total=core.blocked_steps,
        rerouted=core.reroutes,
        dropped=core.dropped,
        admission_dropped=core.adm.dropped if core.adm is not None else 0,
        admission_delayed_steps=core.adm.delayed_steps if core.adm is not None else 0,
    )
