"""Flow-level simulator of tree-routed content delivery.

Requests are (node, file) pairs drawn independently: nodes uniform, files
from the popularity model. A request for a file cached at level m is
served by the node's level-m ancestor cluster and the delivered flow
crosses exactly one tree edge per level on its way down (none for a local
hit at level 0). Only the serving level of a request matters, so the
simulator draws the level directly, by comparing the request's uniform
with the M masses at the placement's level boundaries, and never draws a
file rank. It counts those crossings per level and compares them with
the closed-form expectation that the capacity constraints charge. The
default report reads no node, so its draw skips the node stream and
streams the uniforms through one fixed-size buffer: memory does not grow
with the request count. Scheduling overheads (the 1/3 intra-cluster share
and the 1/M_b round-robin across levels) already live inside the capacity
constants, so the simulator tracks loads, not time slots, and leaves the
capacities themselves to placement.evaluate_throughput.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SizeGuardError
from .hierarchy import NetworkGrid
from .placement import PlacementVector
from .popularity import PopularityModel


# Largest request count simulate accepts. The default report keeps no per-request
# array; verbose=True keeps the nodes (8 B per request) and their levels (1 B),
# so the guard caps those at about 90 MB.
MAX_REQUESTS = 10 ** 7

# Uniforms drawn per pass: a 512 KB float64 buffer and its 64 KB mask stay in
# L2 while each of the M level boundaries is compared with them.
CHUNK_REQUESTS = 1 << 16

# Most per-edge bins simulate(verbose=True) allocates, 8 B each (256 MB): the
# levels of an M-level grid have sum_m 4^(M-m+1) edges, 22.4e6 at M = 12 and
# 89.5e6 at M = 13.
MAX_EDGE_BINS = 1 << 25


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


def _skip_node_draw(bit_generator: np.random.Philox, n: int, count: int) -> None:
    """Advance a fresh bit generator past the words that
    Generator.integers(0, n, size=count) consumes, so the uniforms drawn
    next are the ones that follow the nodes. n is a power of 4, so the
    bounded draw never rejects: two nodes per 64-bit word while n <= 2^32,
    one above. A Philox step is four words."""
    words = count if n - 1 > 0xFFFFFFFF else (count + 1) // 2
    steps, rest = divmod(words, 4)
    bit_generator.advance(steps)
    bit_generator.random_raw(rest)


def simulate(cfg: SimConfig, *, verbose: bool = False) -> EdgeLoadReport:
    """Run the request-level simulation and attach analytic expectations.

    Deterministic for a fixed seed (counter-based generator): the stream
    holds the N nodes, then the N uniforms. A request's serving level is
    the number of boundary masses 1 - pop.suffix(x.prefix(m)), m = 1..M,
    at or below its uniform. Prefix masses are nondecreasing, so this is
    exactly the level of the file rank that inverting all L prefix masses
    would draw, ties and empty levels included, and the requests served
    from level m or above are those whose uniform reaches boundary m. The
    uniforms are drawn CHUNK_REQUESTS at a time and each chunk is compared
    with every boundary, so only crossing counts are kept. The default
    report never reads a node: the generator skips the node draw in O(1)
    and the uniforms come out bit for bit as after it. verbose=True draws
    the nodes, keeps every request's level in one byte and adds per-edge
    crossing histograms; it refuses a grid whose edges exceed
    MAX_EDGE_BINS before drawing anything. The analytic column is
    evaluated from the same tail masses, never from the sampled counts.
    """
    grid, x, pop = cfg.grid, cfg.placement, cfg.pop
    M, n, N = grid.M, grid.n, cfg.num_requests
    levels = tuple(range(1, M + 1))
    bins = (4 ** (M + 1) - 4) // 3  # sum of 4^(M-m+1) over m = 1..M
    if verbose and bins > MAX_EDGE_BINS:
        raise SizeGuardError(f"per-edge histograms of an M = {M} grid need {bins} bins, "
                             f"above the guard of {MAX_EDGE_BINS}")
    tails = tuple(pop.suffix(x.prefix(m)) for m in levels)
    bounds = 1.0 - np.asarray(tails)
    bit_generator = np.random.Philox(cfg.seed)
    if verbose:
        nodes = np.random.Generator(bit_generator).integers(0, n, size=N)
        lv = np.zeros(N, dtype=np.uint8)
    else:
        _skip_node_draw(bit_generator, n, N)
    rng = np.random.Generator(bit_generator)
    crossings = [N] + [0] * M  # crossings[m] = requests served from level >= m
    u = np.empty(min(N, CHUNK_REQUESTS))
    reached = np.empty(u.size, dtype=bool)
    for start in range(0, N, CHUNK_REQUESTS):
        k = min(CHUNK_REQUESTS, N - start)
        rng.random(out=u[:k])
        for m in levels:
            np.greater_equal(u[:k], bounds[m - 1], out=reached[:k])
            crossings[m] += int(np.count_nonzero(reached[:k]))
            if verbose:
                lv[start:start + k] += reached[:k]
    counts = [c - d for c, d in zip(crossings, crossings[1:] + [0])]
    empirical = tuple(float(crossings[m]) / 4 ** (M - m + 1) for m in levels)
    analytic = tuple(N * t * 4.0 ** (m - 1) / n for m, t in zip(levels, tails))
    per_edge: dict[int, np.ndarray] | None = None
    if verbose:
        per_edge = {}
        for m in levels:
            # node >> 2(m-1) is the Z-order parent map: the node's level-(m-1) cluster
            child = nodes[lv >= m] >> (2 * (m - 1))
            per_edge[m] = np.bincount(child, minlength=4 ** (M - m + 1)).astype(
                np.int64, copy=False)
    return EdgeLoadReport(
        levels=levels,
        empirical_load=empirical,
        analytic_load=analytic,
        tail_mass=tails,
        level_fraction=tuple(float(c) / N for c in counts),
        m_b=x.m_b,
        num_requests=N,
        total_edge_crossings=sum(crossings[1:]),
        per_edge_counts=per_edge,
    )
