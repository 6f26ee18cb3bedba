"""Seeded workload inputs.

The workload seed drives everything the program is given: the grid seeds
(``--seed-list``), the order and keys of serve requests, and the seeds of
freshly POSTed cells.  The program only ever sees the generated seeds, keys
and specs.  Grid seeds are drawn from ``[1, 10**6)`` and POSTed seeds from
``[10**6, 2 * 10**6)``, so a POST never hits a pre-populated cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

ADVERSARIES = ("earliest", "latest", "random")
#: The default passes of ``repro sweep`` plus the Theorem-4 ``knowledge`` pass.
ANALYSES = ("summary", "bounds_graph", "bounds_stats", "coordination", "knowledge")

WORKLOADS = ("sweep-small-cells", "sweep-large-graphs", "serve-mixed")


@dataclass(frozen=True)
class Grid:
    """One ``repro sweep`` grid, as CLI arguments and as library arguments."""

    scenarios: Tuple[str, ...]
    seeds: Tuple[int, ...]
    params: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    adversaries: Tuple[str, ...] = ADVERSARIES
    analyses: Tuple[str, ...] = ANALYSES
    #: The grid's GB(r) must fall on both sides of the longest-path
    #: engine's ``VECTOR_MIN_EDGES``, so both of its kernels run.
    straddles_vector_min: bool = False

    def cli_args(self, store: str) -> List[str]:
        args = [
            "sweep",
            "--scenario", ",".join(self.scenarios),
            "--adversary", ",".join(self.adversaries),
            "--seed-list", ",".join(str(seed) for seed in self.seeds),
            "--store", store,
        ]
        for name, values in self.params:
            args += ["--set", f"{name}={','.join(str(v) for v in values)}"]
        for name in self.analyses:
            args += ["--analysis", name]
        return args

    def probe(self) -> "Grid":
        """The grid's first cell as a grid of its own: a one-cell fresh
        sweep, whose latency is startup, executor, one cell and the store."""
        return replace(
            self,
            scenarios=self.scenarios[:1],
            seeds=self.seeds[:1],
            params=tuple((name, values[:1]) for name, values in self.params),
            adversaries=self.adversaries[:1],
        )

    def cells(self) -> list:
        from repro.experiments.runner import expand_grid

        return expand_grid(
            list(self.scenarios),
            adversaries=list(self.adversaries),
            seeds=list(self.seeds),
            param_grid={name: list(values) for name, values in self.params},
            analyses=self.analyses,
        )


def _grid_seeds(rng: random.Random, count: int) -> Tuple[int, ...]:
    return tuple(rng.sample(range(1, 10**6), count))


#: Grid seeds of ``sweep-small-cells``: 12 cells each, 1,200 in all.
SMALL_CELLS_SEEDS = 100


def small_cells_grid(seed: int) -> Grid:
    """Default scenarios plus ``random-workload``: 12 tiny cells per seed."""
    rng = random.Random(f"sweep-small-cells/{seed}")
    return Grid(
        scenarios=("flooding", "torus-flood", "tree-flood", "random-workload"),
        seeds=_grid_seeds(rng, SMALL_CELLS_SEEDS),
    )


#: Trigger placements (the scenarios' own ``seed`` parameter) of the large
#: instances.  Pinned, because the share of cells on either side of the
#: engine's ``VECTOR_MIN_EDGES`` (4096), and with it a sweep's cost, swings
#: by a third between placements; these two give GB(r) of 0.5k-5.8k edges,
#: a third of them above the threshold, so both kernels run.
LARGE_INSTANCES = (1, 4)

#: Grid seeds of ``sweep-large-graphs``: 24 cells each, 48 in all.
LARGE_GRAPHS_SEEDS = 2


def large_graphs_grid(seed: int) -> Grid:
    """8- and 10-row by 9-column meshes and tori at horizon 14.

    The workload seed drives the sweep's seed axis, which seeds the random
    delivery adversary; the instances themselves are pinned.
    """
    rng = random.Random(f"sweep-large-graphs/{seed}")
    return Grid(
        scenarios=("grid-flood", "torus-flood"),
        seeds=_grid_seeds(rng, LARGE_GRAPHS_SEEDS),
        params=(
            ("rows", (8, 10)), ("cols", (9,)), ("horizon", (14,)), ("seed", LARGE_INSTANCES),
        ),
        straddles_vector_min=True,
    )


# ---------------------------------------------------------------------------
# serve-mixed: the pre-populated store and the request plan.
# ---------------------------------------------------------------------------

#: Scenarios of the pre-populated store and of POSTed cells.
SERVE_SCENARIOS = ("flooding", "tree-flood")


@dataclass(frozen=True)
class ServeStore:
    """Two build sweeps: one sealed into a segment plus index, one left in the tail."""

    sealed: Grid
    tail: Grid


#: Grid seeds of the serve store's sealed segment (300 cells) and of its
#: tail (1,560 cells, ~1.6 MB).
SEALED_SEEDS = 50
TAIL_SEEDS = 260


def serve_store(seed: int) -> ServeStore:
    rng = random.Random(f"serve-mixed/store/{seed}")
    seeds = _grid_seeds(rng, SEALED_SEEDS + TAIL_SEEDS)
    return ServeStore(
        sealed=Grid(scenarios=SERVE_SCENARIOS, seeds=seeds[:SEALED_SEEDS]),
        tail=Grid(scenarios=SERVE_SCENARIOS, seeds=seeds[SEALED_SEEDS:]),
    )


@dataclass
class Request:
    """One client request: ``kind`` is ``results``, ``report`` or ``sweep``."""

    kind: str
    key: Optional[str] = None
    spec: Optional[Dict[str, Any]] = None


@dataclass
class Plan:
    """The closed-loop request stream, in rounds of a fixed shape."""

    rng: random.Random
    keys: Sequence[str]
    used: set = field(default_factory=set)

    #: POSTs (and reports) per round.
    POSTS = 5

    def _post(self) -> Request:
        fresh = 10**6 + self.rng.randrange(10**6)
        while fresh in self.used:
            fresh = 10**6 + self.rng.randrange(10**6)
        self.used.add(fresh)
        spec = {
            "scenarios": list(SERVE_SCENARIOS),
            "adversaries": [self.rng.choice(ADVERSARIES)],
            "seeds": [fresh],
            "analyses": list(ANALYSES),
        }
        return Request("sweep", spec=spec)

    def _result(self) -> Request:
        return Request("results", key=self.rng.choice(self.keys))

    def round(self) -> List[Request]:
        """Five POSTs of two fresh cells, each followed by two result reads,
        then five reports with one more result read after the first.

        Results are 11 of the 21 requests.  One report in five follows a
        write and misses the report cache, which puts the report p50 well
        inside the cached mode and the p90 well inside the post-write mode.
        """
        requests: List[Request] = []
        for _ in range(self.POSTS):
            requests += [self._post(), self._result(), self._result()]
        requests += [Request("report"), self._result()]
        requests += [Request("report") for _ in range(self.POSTS - 1)]
        return requests


def serve_plan(seed: int, keys: Sequence[str]) -> Plan:
    return Plan(rng=random.Random(f"serve-mixed/plan/{seed}"), keys=sorted(keys))
