#!/usr/bin/env python
"""Regenerate the golden simulator matrix (``sim_hashes.json``).

Run after any *intentional* change to either simulator's output:

    PYTHONPATH=src python tests/golden/regenerate_sim_goldens.py [--force]

Each entry is the sha256 of one simulator run's complete output: every
field of :class:`~repro.simulation.scheduler.SimulationResult` or
:class:`~repro.simulation.online.OnlineStats` (arrays by dtype, shape and
bytes; floats by ``repr``; the SLO histograms bin by bin) plus the
``faults.*``, ``admission.*`` and ``online.*`` profiler counters and the
``online.latency`` histogram the run emits.  The matrix covers:

* ``simulate`` x every policy x {no faults, static faults, dynamic
  repairing faults}, one cell whose isolated node forces drops, plus
  admission cells (token bucket + backpressure +
  ``max_wait`` shedding), one of them under ``random-delay``;
* ``simulate_online`` x {fifo, random} x {``rate=``, hotspot
  ``traffic=``} x {no faults, static, dynamic}, plus admission + SLO
  cells and one cell sharded over two workers.

``tests/test_simulation.py`` recomputes every cell and compares: a
mismatch means a stored seed now schedules differently, and must be a
deliberate, documented decision.  Like ``regenerate_goldens.py``, this
script prints an added/removed/changed diff and refuses to overwrite
changed hashes without ``--force``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

SIDES = (8, 8)
SIM_POLICIES = ("farthest-first", "fifo", "random", "random-delay")
ONLINE_POLICIES = ("fifo", "random")
FAULTS = ("none", "static", "dynamic")
ONLINE_STEPS = 40
#: profiler counter families the digest pins (timings and cache counters
#: depend on the host and process history, so they stay out)
COUNTER_PREFIXES = ("faults.", "admission.", "online.")


def _fault_model(mesh, kind: str):
    from repro.faults.model import FaultModel

    if kind == "none":
        return None
    if kind == "static":
        return FaultModel.static(mesh, p=0.08, node_p=0.03, seed=1)
    if kind == "isolated":
        # every link of node 9 dead: packets bound there are dropped
        ends = mesh.edge_endpoints
        return FaultModel.from_failed_edges(mesh, np.nonzero((ends == 9).any(axis=1))[0])
    return FaultModel.dynamic(mesh, p=0.03, repair_delay=6, seed=2)


def _admission():
    from repro.simulation.admission import AdmissionParams

    return AdmissionParams(rate_limit=3.0, burst=4.0, max_backlog=20, max_wait=16)


def _canon(value):
    """A JSON-able, order-stable view of a simulator output value."""
    from repro.obs.histogram import Histogram

    if isinstance(value, np.ndarray):
        return {
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "sha256": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest(),
        }
    if isinstance(value, Histogram):
        snap = value.to_dict()
        snap["bins"] = sorted(snap["bins"].items())
        return _canon(snap)
    if dataclasses.is_dataclass(value):
        return {
            f.name: _canon(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def digest(result, profiler) -> str:
    """sha256 over every result field plus the pinned profiler output."""
    snap = profiler.snapshot()
    payload = {
        "result": _canon(result),
        "counters": {
            k: v
            for k, v in sorted(snap["counters"].items())
            if k.startswith(COUNTER_PREFIXES)
        },
        "latency_hist": _canon(snap["histograms"].get("online.latency")),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _simulate_cell(policy: str, fault: str, admission: bool, max_steps=None):
    def cell():
        from repro.mesh.mesh import Mesh
        from repro.obs.profiler import Profiler
        from repro.routing.registry import make_router
        from repro.simulation.scheduler import simulate
        from repro.workloads.generators import random_pairs

        mesh = Mesh(SIDES)
        problem = random_pairs(mesh, 96, seed=5)
        paths = make_router("hierarchical").route(problem, seed=3)
        prof = Profiler()
        result = simulate(
            mesh,
            paths,
            policy=policy,
            seed=4,
            faults=_fault_model(mesh, fault),
            profiler=prof,
            admission=_admission() if admission else None,
            max_steps=max_steps,
        )
        return digest(result, prof)

    return cell


def _online_cell(policy: str, arrivals: str, fault: str, *, admission=False, slo=False, workers=1):
    def cell():
        from repro.mesh.mesh import Mesh
        from repro.obs.profiler import Profiler
        from repro.routing.registry import make_router
        from repro.simulation.online import simulate_online
        from repro.simulation.slo import SLOParams
        from repro.workloads.traffic import HotspotTraffic

        mesh = Mesh(SIDES)
        prof = Profiler()
        load = (
            {"rate": 0.06}
            if arrivals == "rate"
            else {"traffic": HotspotTraffic(rate=0.06, hot_frac=0.1, hot_weight=0.7)}
        )
        stats = simulate_online(
            make_router("hierarchical"),
            mesh,
            steps=ONLINE_STEPS,
            seed=7,
            policy=policy,
            profiler=prof,
            faults=_fault_model(mesh, fault),
            workers=workers,
            slo=SLOParams(deadline=24) if slo else None,
            admission=_admission() if admission else None,
            **load,
        )
        return digest(stats, prof)

    return cell


def sim_golden_cases():
    """Yield ``(key, digest_fn)`` for every cell of the simulator matrix.

    Shared with ``tests/test_simulation.py`` so the test and this script
    can never disagree about what the matrix contains.
    """
    for policy in SIM_POLICIES:
        for fault in FAULTS:
            yield f"simulate|{policy}|faults={fault}", _simulate_cell(policy, fault, False)
    yield "simulate|fifo|faults=isolated", _simulate_cell("fifo", "isolated", False)
    for policy, fault in (
        ("fifo", "none"),
        ("farthest-first", "static"),
        ("random-delay", "none"),
        ("random", "dynamic"),
    ):
        yield (
            f"simulate|{policy}|faults={fault}|admission",
            _simulate_cell(policy, fault, True),
        )
    # stragglers cut off by max_steps are marked undelivered
    yield (
        "simulate|fifo|faults=static|admission|max_steps=20",
        _simulate_cell("fifo", "static", True, max_steps=20),
    )
    for policy in ONLINE_POLICIES:
        for arrivals in ("rate", "hotspot"):
            for fault in FAULTS:
                yield (
                    f"online|{policy}|{arrivals}|faults={fault}",
                    _online_cell(policy, arrivals, fault),
                )
    for policy, fault in (("fifo", "none"), ("random", "dynamic")):
        yield (
            f"online|{policy}|hotspot|faults={fault}|admission+slo",
            _online_cell(policy, "hotspot", fault, admission=True, slo=True),
        )
    yield (
        "online|fifo|hotspot|faults=dynamic|workers=2",
        _online_cell("fifo", "hotspot", "dynamic", workers=2),
    )


def build_matrix() -> dict[str, str]:
    return {key: cell() for key, cell in sim_golden_cases()}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    force = "--force" in argv
    out = Path(__file__).parent / "sim_hashes.json"
    old = json.loads(out.read_text()) if out.exists() else {}
    new = build_matrix()

    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))
    changed = sorted(k for k in set(new) & set(old) if new[k] != old[k])
    for key in added:
        print(f"  added:   {key}")
    for key in removed:
        print(f"  removed: {key}")
    for key in changed:
        print(f"  CHANGED: {key}")
    print(
        f"{len(new)} cells: {len(added)} added, {len(removed)} removed, "
        f"{len(changed)} changed"
    )
    if changed and not force:
        print(
            "refusing to overwrite changed hashes — changed cells schedule "
            "differently for every stored seed; rerun with --force if that "
            "is intentional",
            file=sys.stderr,
        )
        return 1
    out.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(new)} golden simulator hashes to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
