"""Decode and score node-priority vectors: the evaluator PSO and GA share.

A priority vector assigns one real, finite value per node. Decoding starts
at the source and repeatedly appends the highest-priority node that may
follow the path's terminal and is not on the path yet, ties going to the
lower id. Which nodes may follow which is one move table per
(network, source, destination, window), built once and cached on the
network: a link, and a sliding id window that keeps the walk from going
backwards through the id space, except that the destination may always
follow a node it is linked to. A decoded path scores first-link bandwidth
over total path bandwidth.

`evaluate` decodes and scores a whole population at once: one loop over
hops, each hop a `take` of the terminals' penalty rows, an add, an
`argmax` and a scatter of -inf over the nodes taken. The table's sink node
catches every walk that arrived or dead-ended, so no row needs a test of
its own. The link bandwidths are gathered once after the loop and added
left to right. `evaluate` returns fitnesses, routes and a reached mask,
not `Path`s; `route_path` builds the `Path` of a route that turns out to
be a best. `draw_population` draws a decodable initial population in
blocks through the same loop. `decode` and `draw_valid_priorities` are
their one-row forms.
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
            raise InvalidConfig(f"window must be >= 1, got {self.window}")

    @classmethod
    def for_network(cls, network) -> "DecodeParams":
        """Window set to the network's base region size."""
        return cls(window=network.layout.base_region_size)


def check_endpoints(n_nodes, source, destination):
    if source == destination:
        raise InvalidConfig("source and destination must differ")
    if not (0 <= source < n_nodes and 0 <= destination < n_nodes):
        label, node = (("destination", destination) if 0 <= source < n_nodes
                       else ("source", source))
        raise InvalidConfig(f"{label} {node} outside node range 0..{n_nodes - 1}")


def move_table(network, source, destination, window) -> np.ndarray:
    """The move table of (source, destination, window), cached on `network`:
    which nodes may follow which on a walk from source to destination.

    Node c may follow t when they are linked and, walking toward a higher
    destination id, c trails t by less than `window` (c - t > -window), or,
    toward a lower one, leads it by less than `window` (c - t < window). The
    destination may follow every node linked to it, and nothing follows the
    destination: the walk ends there.

    The table is a read-only (n + 1) x (n + 1) penalty matrix: node v is
    index v + 1, and index 0 is a sink. penalty[t + 1, c + 1] is 0.0 where c
    may follow t and -inf elsewhere, so that adding it to priorities leaves
    the allowed ones exact and sinks the rest; the sink's row and column are
    all -inf. A row of candidates that is all -inf (the walk arrived or
    dead-ended) has its first maximum at index 0, so the walk moves into the
    sink and stays. Networks resampled from one another share the cache,
    since their link sets are equal; it holds the most recently built table
    only, as every caller routes one pair per network.
    """
    key = (source, destination, window)
    cache = network.move_tables
    penalty = cache.get(key)
    if penalty is None:
        n = network.n_nodes
        ids = np.arange(n)
        ahead = ids[None, :] - ids[:, None]  # c - t
        in_window = ahead > -window if source < destination else ahead < window
        in_window[:, destination] = True
        in_window[destination] = False
        penalty = np.full((n + 1, n + 1), -np.inf)
        penalty[1:, 1:][(network.bandwidths > 0) & in_window] = 0.0
        penalty.flags.writeable = False
        cache.clear()
        cache[key] = penalty
    return penalty


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
    on priority go to the lower node id; the input is never modified. The
    walk is `evaluate`'s, on one row. Raises DeadEnd when construction gets
    stuck, ValueError on a priority vector of the wrong length or with a
    non-finite value.
    """
    n = network.n_nodes
    source, destination = int(source), int(destination)
    check_endpoints(n, source, destination)
    pri = _priority_array(priorities, (n,))
    if params is None:
        params = DecodeParams.for_network(network)
    _, (route,), (reached,) = evaluate(network, pri[None], source, destination, params)
    path = route_path(route)
    if not reached:
        raise DeadEnd(path.nodes, destination)
    return path


def random_priorities(n_nodes, seed) -> np.ndarray:
    """I.i.d. uniform [0, 1) priority vector, deterministic per seed."""
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    return make_rng(seed, PRIORITY).random(int(n_nodes))


def draw_valid_priorities(network, source, destination, params: DecodeParams, rng):
    """Draw priority vectors from `rng` until one decodes to a path: a
    one-member `draw_population`, so `rng` may end a block past that vector.

    Returns (priorities, path). Raises NoPathFound once MAX_DRAWS draws
    have all dead-ended.
    """
    vectors, _, routes = draw_population(network, 1, source, destination, params, rng)
    return vectors[0], route_path(routes[0])


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
    returns (fitnesses, routes, reached).

    routes[i] is row i's walk: the source, then each node appended, padded
    with -1 (see `route_path`); reached[i] is whether the walk ended at the
    destination. A row that dead-ends scores 0.0 and its walk is the partial
    path `decode` reports. The tests pin the paths, dead ends and fitness
    bits to the per-vector reference decoder in `tests/conftest.py`; each
    fitness adds the path's link bandwidths left to right as `path_fitness`
    does, so it is the same float.
    """
    n = network.n_nodes
    source, destination = int(source), int(destination)
    check_endpoints(n, source, destination)
    pri = _priority_array(vectors, (len(vectors), n))
    penalty = move_table(network, source, destination, dparams.window)

    # Node v is column v + 1 and column 0 is the sink (see move_table).
    rows = len(pri)
    scores = np.empty((rows, n + 1))  # a row's priorities, -inf once the node is on its path
    scores[:, 0] = -np.inf
    scores[:, 1:] = pri
    scores[:, source + 1] = -np.inf
    flat, row_starts = scores.reshape(-1), np.arange(0, scores.size, n + 1)
    route = np.zeros((rows, n), dtype=np.intp)  # column h: the node appended at hop h
    route[:, 0] = terminal = source + 1
    width = n  # columns some walk filled; at least two, so that every row has a first link
    for hop in range(1, n):
        terminal = (penalty.take(terminal, axis=0) + scores).argmax(1)  # first: lower id on ties
        if not np.count_nonzero(terminal):  # every walk is in the sink
            width = max(hop, 2)
            break
        flat[row_starts + terminal] = -np.inf
        route[:, hop] = terminal

    route -= 1  # back to node ids; the sink becomes the -1 padding
    walk = route[:, :width]
    ends = walk[:, 1:]
    links = np.where(ends >= 0, network.bandwidths[walk[:, :-1], ends], 0.0)
    totals = np.cumsum(links, axis=1)[:, -1]  # left to right: accumulate is sequential
    reached = (ends == destination).any(1)
    fits = np.zeros(rows)
    np.divide(links[:, 0], totals, out=fits, where=reached)
    return fits, route, reached


def route_path(route) -> Path:
    """The Path of one `evaluate` route: its nodes before the -1 padding."""
    nodes = route.tolist()
    return Path(tuple(nodes[:nodes.index(-1)] if -1 in nodes else nodes))


def draw_population(network, size, source, destination, dparams: DecodeParams, rng):
    """`size` decodable priority vectors drawn from `rng`, as a size x n
    matrix, with their fitnesses and `evaluate` routes: (vectors,
    fitnesses, routes).

    Vectors are drawn in blocks of rows, which take the same values from
    `rng` as one draw per vector, and each block is decoded in one
    `evaluate`; decodable rows go to the members in order. Raises
    NoPathFound once one member has seen MAX_DRAWS dead ends in a row.
    """
    parts = []
    found = misses = 0
    while found < size:
        # twice the members still missing, so that one block mostly suffices
        block = rng.random((2 * (size - found), network.n_nodes))
        fits, routes, reached = evaluate(network, block, source, destination, dparams)
        rows = []
        for row, ok in enumerate(reached.tolist()):
            if not ok:
                misses += 1
                if misses == MAX_DRAWS:
                    raise NoPathFound(source, destination, attempts=MAX_DRAWS)
                continue
            misses = 0
            rows.append(row)
            found += 1
            if found == size:
                break
        parts.append((block[rows], fits[rows], routes[rows]))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))
