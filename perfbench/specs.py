"""The workloads' inputs, generated from the workload seed alone.

The program under test only ever receives the specs built here.
"""

from __future__ import annotations

#: bsm_byzantine_grid: side sizes and the two adversaries every cell runs.
GRID_KS = (2, 3, 4)
GRID_ADVERSARIES = ("silent", "equivocate")

#: ensemble_stream: instance sizes (the outer loop, as an ensemble grid
#: expands) and instances per size.
ENSEMBLE_SIZES = (250, 500, 1000, 2000)
ENSEMBLE_PER_SIZE = 8
#: SpillSink threshold: below the sweep size, so the spill always engages.
ENSEMBLE_SPILL_THRESHOLD = 8

#: serve_closed_loop: the grid cells with k in SERVE_KS, each once as a
#: /v1/run request, plus SWEEP_SPECS-spec slices of them starting every
#: SWEEP_STRIDE specs as /v1/sweep requests (so about 1 request in 10 is
#: a sweep), over SERVE_CONNECTIONS clients.
SERVE_KS = (2, 3)
SERVE_SWEEP_SPECS = 16
SERVE_SWEEP_STRIDE = 8
SERVE_CONNECTIONS = 2


def grid_specs(seed: int) -> list:
    """Every solvable Table-1 cell, once per adversary, profile seed ``seed``."""
    from repro import AdversarySpec, Sweep

    specs: list = []
    for kind in GRID_ADVERSARIES:
        specs.extend(
            Sweep.grid(
                ks=GRID_KS,
                budgets="solvable",
                seeds=(seed,),
                adversary=AdversarySpec(kind=kind, seed=seed),
            )
        )
    return specs


def ensemble_specs(seed: int) -> list:
    """Offline Gale-Shapley on random instances, sizes as the outer loop."""
    from repro import ProfileSpec, ScenarioSpec

    return [
        ScenarioSpec(
            family="offline",
            k=size,
            profile=ProfileSpec(kind="random", seed=seed * 1000 + index),
        )
        for size in ENSEMBLE_SIZES
        for index in range(ENSEMBLE_PER_SIZE)
    ]


def serve_requests(specs: list) -> list[tuple[str, list]]:
    """One pass of service traffic: ``(path, specs)`` per request.

    Every pass carries the same work whatever the seed: the seed picks
    the profiles (through ``specs``) and, in the workload, the order.
    """
    cells = [spec for spec in specs if spec.k in SERVE_KS]
    requests = [("/v1/run", [spec]) for spec in cells]
    width = SERVE_SWEEP_SPECS
    requests += [
        ("/v1/sweep", cells[start : start + width])
        for start in range(0, len(cells) - width + 1, SERVE_SWEEP_STRIDE)
    ]
    return requests
