"""Decode and score node-priority vectors: the evaluator PSO and GA share.

A priority vector assigns one real, finite value per node. Decoding starts
at the source and repeatedly appends the highest-priority node that may
follow the path's terminal and is not on the path yet, ties going to the
lower id. Which nodes may follow which is one boolean move table per
(network, source, destination, window), built once and cached on the
network: a link, and a sliding id window that keeps the walk from going
backwards through the id space, except that the destination may always
follow a node it is linked to. A decoded path scores first-link bandwidth
over total path bandwidth.

`decode` walks one vector in Python over the table's rows. `evaluate`
decodes and scores a whole population at once: one loop over hops, each
hop picking the masked argmax of every still-running row. `draw_population`
draws a decodable initial population in blocks through the same loop.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .rng import PRIORITY, make_rng

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


@dataclass(frozen=True)
class MoveTable:
    """Which nodes may follow which on a walk from one source to one destination.

    successors[t] lists, in ascending id order, the nodes c that may follow
    terminal t; penalty[t, c] is 0.0 for those and -inf elsewhere, so that
    adding it to priorities leaves the allowed ones exact and sinks the rest.
    """

    successors: tuple[tuple[int, ...], ...]
    penalty: np.ndarray


def move_table(network, source, destination, window) -> MoveTable:
    """The move table of (source, destination, window), cached on `network`.

    Node c may follow t when they are linked and, walking toward a higher
    destination id, c trails t by less than `window` (c - t > -window), or,
    toward a lower one, leads it by less than `window` (c - t < window). The
    destination may follow every node linked to it, and nothing follows the
    destination: the walk ends there. Networks resampled from one another
    share the cache, since their link sets are equal; it holds the most
    recently built table only, as every caller routes one pair per network.
    """
    key = (source, destination, window)
    cache = network.move_tables
    table = cache.get(key)
    if table is None:
        ids = np.arange(network.n_nodes)
        ahead = ids[None, :] - ids[:, None]  # c - t
        in_window = ahead > -window if source < destination else ahead < window
        in_window[:, destination] = True
        in_window[destination] = False
        allowed = (network.bandwidths > 0) & in_window
        penalty = np.where(allowed, 0.0, -np.inf)
        penalty.flags.writeable = False
        table = MoveTable(tuple(tuple(np.flatnonzero(row).tolist()) for row in allowed), penalty)
        cache.clear()
        cache[key] = table
    return table


def _priority_array(values, shape):
    pri = np.asarray(values, dtype=float)
    if pri.shape != shape:
        raise ValueError(f"priority shape {pri.shape} does not match {shape[-1]} nodes")
    if not np.isfinite(pri).all():
        raise ValueError("priorities must be finite (no NaN or infinity)")
    return pri


def decode(network, priorities, source, destination, params: DecodeParams | None = None) -> Path:
    """Build a path by greedily following the highest-priority eligible neighbor.

    Eligible means allowed by the move table and not yet on the path. Ties
    on priority go to the lower node id; the input is never modified.
    Raises DeadEnd when construction gets stuck, ValueError on a priority
    vector of the wrong length or with a non-finite value.
    """
    n = network.n_nodes
    source, destination = int(source), int(destination)
    check_endpoints(n, source, destination)
    priority = _priority_array(priorities, (n,)).tolist()  # plain floats keep the loop cheap
    if params is None:
        params = DecodeParams.for_network(network)
    successors = move_table(network, source, destination, params.window).successors

    path = [source]
    on_path = {source}
    terminal = source
    while terminal != destination:
        best = -1
        for node in successors[terminal]:  # ascending, so a tie keeps the lower id
            if node not in on_path and (best < 0 or priority[node] > priority[best]):
                best = node
        if best < 0:
            raise DeadEnd(path, destination)
        path.append(best)
        on_path.add(best)
        terminal = best
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

    Always in (0, 1]; exactly 1.0 for single-link paths. The bandwidths are
    added left to right in path order, on every Python (`sum` of floats
    compensates rounding from 3.12 on), so `evaluate` gives the same float.
    """
    try:
        bws = [network.bandwidth(u, v) for u, v in path.links()]
    except KeyError as exc:
        raise InvalidPath(f"path {path} uses a link missing from the network") from exc
    if not bws:
        raise InvalidPath("path has no links")
    total = 0.0
    for bw in bws:
        total += bw
    return bws[0] / total


def evaluate(network, vectors, source, destination, dparams: DecodeParams):
    """Decode and score every row of the P x n priority matrix `vectors`;
    returns (fitnesses, paths), both lists in row order.

    A row that dead-ends scores 0.0 with path None. Same paths as `decode`
    row by row; each fitness adds the path's link bandwidths left to right
    as `path_fitness` does, so it is the same float.
    """
    n = network.n_nodes
    source, destination = int(source), int(destination)
    check_endpoints(n, source, destination)
    pri = _priority_array(vectors, (len(vectors), n))
    penalty = move_table(network, source, destination, dparams.window).penalty
    bandwidths = network.bandwidths

    rows = len(pri)
    index = np.arange(rows)
    scores = pri.copy()  # a row's priorities, -inf once the node is on its path
    scores[:, source] = -np.inf
    terminal = np.full(rows, source)
    total = np.zeros(rows)
    route = np.zeros((rows, n), dtype=np.intp)  # column h: the node appended at hop h
    for hop in range(n - 1):
        candidates = penalty.take(terminal, axis=0) + scores
        nxt = candidates.argmax(1)  # first index: the lower id on ties
        moved = np.isfinite(candidates[index, nxt])  # False: arrived or dead-ended
        if not moved.any():
            break
        np.add(total, bandwidths[terminal, nxt], out=total, where=moved)
        scores[index, nxt] = -np.inf
        terminal = np.where(moved, nxt, terminal)
        route[:, hop] = nxt

    reached = terminal == destination
    hops = (route == destination).argmax(1) + 1
    fits = np.zeros(rows)
    np.divide(bandwidths[source, route[:, 0]], total, out=fits, where=reached)
    return fits.tolist(), [Path((source, *nodes[:length])) if ok else None
                           for nodes, length, ok in zip(route.tolist(), hops.tolist(),
                                                        reached.tolist())]


def draw_population(network, size, source, destination, dparams: DecodeParams, rng):
    """`size` decodable priority vectors drawn from `rng`, with their
    fitnesses and paths: (vectors, fitnesses, paths).

    Vectors are drawn in blocks of rows, which take the same values from
    `rng` as one draw per vector, and each block is decoded in one
    `evaluate`; decodable rows go to the members in order. Raises
    NoPathFound once one member has seen MAX_DRAWS dead ends in a row.
    """
    vectors, fits, paths = [], [], []
    misses = 0
    while len(vectors) < size:
        # twice the members still missing, so that one block mostly suffices
        block = rng.random((2 * (size - len(vectors)), network.n_nodes))
        for vec, fit, path in zip(block, *evaluate(network, block, source, destination,
                                                   dparams)):
            if path is None:
                misses += 1
                if misses == MAX_DRAWS:
                    raise NoPathFound(source, destination, attempts=MAX_DRAWS)
                continue
            misses = 0
            vectors.append(vec)
            fits.append(fit)
            paths.append(path)
            if len(vectors) == size:
                break
    return vectors, fits, paths


def first_max(values) -> int:
    """Index of the largest value; ties go to the earliest index."""
    return max(range(len(values)), key=values.__getitem__)
