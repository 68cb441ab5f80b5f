"""Flow-level simulator of tree-routed content delivery.

Requests are (node, file) pairs drawn independently: nodes uniform, files
from the popularity model. A request for a file cached at level m is
served by the node's level-m ancestor cluster and the delivered flow
crosses exactly one tree edge per level on its way down (none for a local
hit at level 0). Only the serving level of a request matters, so the
simulator draws the level directly, by inverting the M masses at the
placement's level boundaries, and never draws a file rank. It counts
those crossings per level and compares them with the closed-form
expectation that the capacity constraints charge. Scheduling overheads
(the 1/3 intra-cluster share and the 1/M_b round-robin across levels)
already live inside the capacity constants, so the simulator tracks
loads, not time slots, and leaves the capacities themselves to
placement.evaluate_throughput.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SizeGuardError
from .hierarchy import NetworkGrid
from .placement import PlacementVector
from .popularity import PopularityModel


# Largest request count simulate accepts: it allocates three 8-byte arrays per
# request (nodes, uniforms, levels), so the guard caps those at about 240 MB.
MAX_REQUESTS = 10 ** 7


def _require_integer(name: str, value) -> None:
    try:
        operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None


def check_request_count(num_requests: int) -> None:
    """Reject a request count simulate cannot run, before anything is allocated."""
    _require_integer("request count", num_requests)
    if num_requests < 1:
        raise InvalidParameterError(f"request count must be >= 1, got {num_requests!r}")
    if num_requests > MAX_REQUESTS:
        raise SizeGuardError(
            f"{num_requests} requests exceed the simulation guard of {MAX_REQUESTS}")


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: topology, placement, popularity, demand, seed."""

    grid: NetworkGrid
    placement: PlacementVector
    pop: PopularityModel
    num_requests: int
    seed: int

    def __post_init__(self) -> None:
        check_request_count(self.num_requests)
        _require_integer("seed", self.seed)
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed!r}")
        self.placement.check_shape(self.pop.L, self.grid.M)


@dataclass(frozen=True)
class EdgeLoadReport:
    """Per-level edge loads, empirical versus analytic.

    empirical_load[m-1] is the mean number of simulated requests crossing
    a level-m edge; analytic_load[m-1] the closed-form expectation
    num_requests * tail_m * 4^{m-1} / n. level_fraction[m] is the share of
    requests served from level m (level 0 = local hits), so the fractions
    sum to one.
    """

    levels: tuple[int, ...]
    empirical_load: tuple[float, ...]
    analytic_load: tuple[float, ...]
    tail_mass: tuple[float, ...]
    level_fraction: tuple[float, ...]
    m_b: int
    num_requests: int
    total_edge_crossings: int
    per_edge_counts: dict[int, np.ndarray] | None = None


def simulate(cfg: SimConfig, *, verbose: bool = False) -> EdgeLoadReport:
    """Run the request-level simulation and attach analytic expectations.

    Deterministic for a fixed seed (counter-based generator). Each request's
    serving level is drawn by inverting its uniform over the M boundary
    masses 1 - pop.suffix(x.prefix(m)), m = 1..M; the level is the number
    of boundaries at or below the uniform. Prefix masses are nondecreasing,
    so this is exactly the level of the file rank that inverting all L
    prefix masses would draw, ties and empty levels included, in O(M)
    memory rather than O(L). The analytic column is evaluated from the
    same tail masses, never from the sampled counts. verbose=True
    additionally retains per-edge crossing histograms.
    """
    grid, x, pop = cfg.grid, cfg.placement, cfg.pop
    M, n = grid.M, grid.n
    levels = tuple(range(1, M + 1))
    tails = tuple(pop.suffix(x.prefix(m)) for m in levels)
    bounds = 1.0 - np.asarray(tails)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    nodes = rng.integers(0, n, size=cfg.num_requests)
    lv = np.searchsorted(bounds, rng.random(cfg.num_requests), side="right")
    counts = np.bincount(lv, minlength=M + 1).astype(np.int64)
    crossings = np.cumsum(counts[::-1])[::-1]  # crossings[m] = requests from level >= m
    empirical = tuple(float(crossings[m]) / 4 ** (M - m + 1) for m in levels)
    analytic = tuple(cfg.num_requests * t * 4.0 ** (m - 1) / n
                     for m, t in zip(levels, tails))
    per_edge: dict[int, np.ndarray] | None = None
    if verbose:
        per_edge = {}
        for m in levels:
            # node >> 2(m-1) is the Z-order parent map: the node's level-(m-1) cluster
            child = nodes[lv >= m] >> (2 * (m - 1))
            per_edge[m] = np.bincount(child, minlength=4 ** (M - m + 1)).astype(np.int64)
    return EdgeLoadReport(
        levels=levels,
        empirical_load=empirical,
        analytic_load=analytic,
        tail_mass=tails,
        level_fraction=tuple(float(counts[m]) / cfg.num_requests for m in range(M + 1)),
        m_b=x.m_b,
        num_requests=cfg.num_requests,
        total_edge_crossings=int(np.sum(lv)),
        per_edge_counts=per_edge,
    )
