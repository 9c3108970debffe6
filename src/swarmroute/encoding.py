"""Decode and score node-priority vectors: the evaluator PSO and GA share.

A priority vector assigns one real value per node. Decoding starts at the
source and repeatedly appends the eligible neighbor with the highest
priority. Appended nodes get their working priority overwritten with a
sentinel so no node repeats, and a sliding id window filters out neighbors
that would walk the path backwards through the id space. The destination,
once adjacent, is always eligible. A decoded path scores first-link
bandwidth over total path bandwidth; `evaluate` decodes and scores a whole
population, `draw_population` draws a decodable initial one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .rng import PRIORITY, make_rng

# Working-copy marker for already-selected nodes; reserved, never a real priority.
SENTINEL_PRIORITY = -999.0

# Priority re-draws allowed per vector before giving up on a node pair.
MAX_DRAWS = 50


class DeadEnd(Exception):
    """Decoding got stuck with no eligible neighbor before the destination."""

    def __init__(self, partial_path, destination):
        self.partial_path = tuple(partial_path)
        self.destination = destination
        super().__init__(
            f"no eligible neighbor at node {self.partial_path[-1]} "
            f"before reaching {destination} (partial path {list(self.partial_path)})"
        )


class InvalidPath(ValueError):
    """Path unusable for fitness evaluation (no links, or a missing link)."""


class NoPathFound(Exception):
    """No decodable path between a node pair within the retry budget."""

    def __init__(self, source, destination, attempts=None):
        self.source = source
        self.destination = destination
        self.attempts = attempts
        msg = f"no path found from {source} to {destination}"
        if attempts is not None:
            msg += f" after {attempts} priority draws"
        super().__init__(msg)


@dataclass(frozen=True)
class Path:
    """Simple node-id sequence; consecutive entries are network links."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("path must contain at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"path repeats a node: {list(self.nodes)}")

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def destination(self) -> int:
        return self.nodes[-1]

    @property
    def hop_count(self) -> int:
        return len(self.nodes) - 1

    def links(self):
        return zip(self.nodes, self.nodes[1:])

    def __str__(self):
        return ",".join(str(n) for n in self.nodes)


@dataclass(frozen=True)
class DecodeParams:
    """window: id-distance bound of the backtracking filter (>= 1)."""

    window: int

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    @classmethod
    def for_network(cls, network) -> "DecodeParams":
        """Window set to the network's base region size."""
        return cls(window=network.layout.base_region_size)


def check_endpoints(n_nodes, source, destination):
    if source == destination:
        raise InvalidConfig("source and destination must differ")
    if not (0 <= source < n_nodes and 0 <= destination < n_nodes):  # decode's hot path
        label, node = (("destination", destination) if 0 <= source < n_nodes
                       else ("source", source))
        raise InvalidConfig(f"{label} {node} outside node range 0..{n_nodes - 1}")


def heuristic_allows(source, destination, terminal, candidate, window) -> bool:
    """Backtracking filter on candidate next hops.

    Walking toward a higher destination id, a candidate may trail the
    terminal id by less than `window`; toward a lower destination id the
    mirror bound applies.
    """
    if source < destination:
        return candidate - terminal > -window
    return candidate - terminal < window


def eligible_neighbors(network, working_priorities, path_so_far, source, destination,
                       params: DecodeParams) -> set[int]:
    """Neighbors of the path's terminal node that may be appended next.

    Already-selected nodes (sentinel priority) are excluded; the remaining
    neighbors must pass the window filter, except the destination, which is
    always eligible when adjacent. An empty set means a dead end.
    """
    terminal = path_so_far[-1]
    out = set()
    for nb in network.neighbors(terminal):
        if working_priorities[nb] == SENTINEL_PRIORITY:
            continue
        if nb != destination and not heuristic_allows(source, destination, terminal,
                                                      nb, params.window):
            continue
        out.add(nb)
    return out


def decode(network, priorities, source, destination, params: DecodeParams | None = None) -> Path:
    """Build a path by greedily following the highest-priority eligible neighbor.

    Works on a private copy of `priorities` (the input is never modified),
    marking each appended node with the sentinel. Ties on priority go to the
    lower node id. Raises DeadEnd when construction gets stuck.
    """
    n = network.n_nodes
    source, destination = int(source), int(destination)
    check_endpoints(n, source, destination)
    pri = np.asarray(priorities, dtype=float)
    if pri.shape != (n,):
        raise ValueError(f"priority vector shape {pri.shape} does not match {n} nodes")
    if params is None:
        params = DecodeParams.for_network(network)

    working = pri.tolist()  # private copy; plain floats keep the loop cheap
    path = [source]
    working[source] = SENTINEL_PRIORITY
    while path[-1] != destination:
        candidates = eligible_neighbors(network, working, path, source, destination, params)
        if not candidates:
            raise DeadEnd(path, destination)
        nxt = max(candidates, key=lambda nb: (working[nb], -nb))
        path.append(nxt)
        working[nxt] = SENTINEL_PRIORITY
    return Path(tuple(path))


def random_priorities(n_nodes, seed) -> np.ndarray:
    """I.i.d. uniform [0, 1) priority vector, deterministic per seed."""
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    return make_rng(seed, PRIORITY).random(int(n_nodes))


def draw_valid_priorities(network, source, destination, params: DecodeParams, rng):
    """Draw priority vectors from `rng` until one decodes to a path.

    Returns (priorities, path). Raises NoPathFound once MAX_DRAWS draws
    have all dead-ended.
    """
    for _ in range(MAX_DRAWS):
        pri = rng.random(network.n_nodes)
        try:
            return pri, decode(network, pri, source, destination, params)
        except DeadEnd:
            continue
    raise NoPathFound(source, destination, attempts=MAX_DRAWS)


def path_fitness(network, path: Path) -> float:
    """First-link bandwidth over the summed bandwidth of all links on the path.

    Always in (0, 1]; exactly 1.0 for single-link paths.
    """
    try:
        bws = [network.bandwidth(u, v) for u, v in path.links()]
    except KeyError as exc:
        raise InvalidPath(f"path {path} uses a link missing from the network") from exc
    if not bws:
        raise InvalidPath("path has no links")
    return bws[0] / sum(bws)


def evaluate(network, vectors, source, destination, dparams: DecodeParams):
    """Decode and score every priority vector; returns (fitnesses, paths).

    A vector that dead-ends scores 0.0 with path None.
    """
    fits, paths = [], []
    for vec in vectors:
        try:
            path = decode(network, vec, source, destination, dparams)
        except DeadEnd:
            fits.append(0.0)
            paths.append(None)
            continue
        fits.append(path_fitness(network, path))
        paths.append(path)
    return fits, paths


def draw_population(network, size, source, destination, dparams: DecodeParams, rng):
    """`size` decodable priority vectors drawn from `rng`, with their
    fitnesses and paths: (vectors, fitnesses, paths).

    Raises NoPathFound if a vector exhausts its MAX_DRAWS draws.
    """
    vectors, paths = [], []
    for _ in range(size):
        vec, path = draw_valid_priorities(network, source, destination, dparams, rng)
        vectors.append(vec)
        paths.append(path)
    return vectors, [path_fitness(network, path) for path in paths], paths


def first_max(values) -> int:
    """Index of the largest value; ties go to the earliest index."""
    return max(range(len(values)), key=values.__getitem__)
