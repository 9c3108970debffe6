"""Region-partitioned random networks with random link bandwidths.

Node ids 0..n-1 are split into contiguous regions; links are sampled with
separate densities for intra- and inter-region pairs, optionally on top of
a random spanning tree so every node pair stays reachable. Bandwidths are
drawn uniformly from a configurable range. All operations are pure and
deterministic per seed: they return new Network values and never mutate
their inputs. The `check_*` functions are the one place each network input
rule is written; the experiment config calls them too.
"""

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig
from .rng import BANDWIDTH, PERTURB, TOPOLOGY, check_seed, make_rng

DEFAULT_INTRA_DENSITY = 0.6
DEFAULT_INTER_DENSITY = 0.15
DEFAULT_BANDWIDTH_RANGE = (1.0, 100.0)


class InvalidNodeCount(InvalidConfig):
    """Node count too small to partition into regions."""


class InvalidBandwidthRange(InvalidConfig):
    """Bandwidth bounds outside the range check_bandwidth_range accepts."""


def check_node_count(n_nodes):
    if n_nodes < 4:
        raise InvalidNodeCount(f"need at least 4 nodes, got {n_nodes}")


def check_densities(intra_density, inter_density):
    if not (0.0 <= intra_density <= 1.0 and 0.0 <= inter_density <= 1.0):
        raise InvalidConfig("link densities must lie in [0, 1]")


def check_bandwidth_range(b_min, b_max, n_nodes):
    """Accept a finite, positive, ordered range on which every path fitness
    stays in (0, 1]: a path sums at most n_nodes - 1 bandwidths, and neither
    that sum nor b_min over it may leave the float range."""
    if not 0 < b_min <= b_max < math.inf:
        raise InvalidBandwidthRange(f"need finite 0 < b_min <= b_max, got [{b_min}, {b_max}]")
    longest = (n_nodes - 1) * b_max
    if not (longest < math.inf and b_min / longest > 0):
        raise InvalidBandwidthRange(
            f"bandwidths in [{b_min}, {b_max}] over {n_nodes - 1} links leave the float range")


def check_bandwidth_mode(mode):
    if mode not in ("static", "dynamic"):
        raise InvalidConfig(f"unknown bandwidth mode {mode!r}")


@dataclass(frozen=True)
class RegionLayout:
    """Contiguous node-id blocks covering 0..n_nodes-1, one block per region.

    Every region holds n_nodes // n_regions nodes; remainder nodes all land
    in the last region. `ranges` holds half-open (start, stop) intervals.
    """

    n_nodes: int
    n_regions: int
    sizes: tuple[int, ...]
    ranges: tuple[tuple[int, int], ...]

    @property
    def base_region_size(self) -> int:
        """Size shared by every region except possibly the last."""
        return self.sizes[0]


def partition_regions(n_nodes: int) -> RegionLayout:
    """Split n_nodes ids into floor(log2(n_nodes)) contiguous regions.

    Each region gets the same base size; any remainder nodes go to the last
    region, so e.g. 21 nodes make 4 regions sized [5, 5, 5, 6].
    """
    n_nodes = int(n_nodes)
    check_node_count(n_nodes)
    n_regions = n_nodes.bit_length() - 1  # floor(log2(n_nodes)), exact
    base = n_nodes // n_regions
    sizes = [base] * n_regions
    sizes[-1] += n_nodes % n_regions
    ranges = []
    start = 0
    for size in sizes:
        ranges.append((start, start + size))
        start += size
    return RegionLayout(n_nodes, n_regions, tuple(sizes), tuple(ranges))


@dataclass(eq=False, slots=True)
class Network:
    """Undirected weighted graph over a region layout.

    `bandwidths` is the network: a read-only, symmetric n x n matrix holding
    each link's finite, positive bandwidth at [u, v] and [v, u], and 0.0
    where there is no link. Derived once per link set: the sorted links' end
    arrays and an empty `move_tables` cache that `encoding` fills. Instances
    are treated as immutable values: operations that change bandwidths
    return new networks, which share what is derived from the link set with
    their parent.
    """

    layout: RegionLayout
    bandwidths: np.ndarray = field(repr=False)
    seed: int
    bandwidth_range: tuple[float, float] | None = None
    _link_ends: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    move_tables: dict = field(init=False, repr=False)

    def __post_init__(self):
        n = self.layout.n_nodes
        bw = np.array(self.bandwidths, dtype=float)
        if not (bw.shape == (n, n) and np.isfinite(bw).all() and (bw >= 0).all()
                and (bw == bw.T).all() and not bw.diagonal().any()):
            raise ValueError(f"bandwidths must be a symmetric {n} x {n} matrix of finite, "
                             "non-negative values with a zero diagonal")
        bw.flags.writeable = False
        self.bandwidths = bw
        self._link_ends = np.nonzero(np.triu(bw))  # row-major, so sorted by (u, v)
        self.move_tables = {}

    def __eq__(self, other):
        return (isinstance(other, Network) and self.layout == other.layout
                and self.seed == other.seed and self.bandwidth_range == other.bandwidth_range
                and np.array_equal(self.bandwidths, other.bandwidths))

    @property
    def n_nodes(self) -> int:
        return self.layout.n_nodes

    @property
    def links(self) -> dict[tuple[int, int], float]:
        """{(u, v): bandwidth} with u < v, in sorted order; a new dict per read."""
        u, v = self._link_ends
        return dict(zip(zip(u.tolist(), v.tolist()), self.bandwidths[u, v].tolist()))

    def neighbors(self, node: int) -> tuple[int, ...]:
        if not 0 <= node < self.n_nodes:
            raise KeyError(node)
        return tuple(np.flatnonzero(self.bandwidths[node]).tolist())

    def has_link(self, u: int, v: int) -> bool:
        return 0 <= min(u, v) and max(u, v) < self.n_nodes and bool(self.bandwidths[u, v] > 0)

    def bandwidth(self, u: int, v: int) -> float:
        if not self.has_link(u, v):
            raise KeyError((min(u, v), max(u, v)))
        return float(self.bandwidths[u, v])

    @classmethod
    def from_links(cls, n_nodes, links, seed=0, bandwidth_range=None):
        """Build from (u, v) or (u, v, bandwidth) tuples; default bandwidth 1.0.
        Rejects self-loops, unknown nodes, bad bandwidths, repeated links and
        a seed `check_seed` rejects."""
        check_seed(seed)
        layout = partition_regions(n_nodes)
        n = layout.n_nodes
        matrix = np.zeros((n, n))
        for item in links:
            u, v = int(item[0]), int(item[1])
            bw = item[2] if len(item) > 2 else 1.0
            if u == v:
                raise InvalidConfig(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidConfig(f"link ({u}, {v}) outside node range 0..{n - 1}")
            if not (math.isfinite(bw) and bw > 0):
                raise InvalidConfig(
                    f"bandwidth {bw} on link ({u}, {v}) is not finite and positive")
            u, v = min(u, v), max(u, v)
            if matrix[u, v]:
                raise InvalidConfig(f"duplicate link ({u}, {v})")
            matrix[u, v] = matrix[v, u] = bw
        return cls(layout=layout, bandwidths=matrix, seed=int(seed),
                   bandwidth_range=bandwidth_range)

    def to_json(self) -> dict:
        """JSON form: {pn, a, sizes, links, seed, bandwidth_range}, links sorted by (u, v)."""
        return {
            "pn": self.layout.n_nodes,
            "a": self.layout.n_regions,
            "sizes": list(self.layout.sizes),
            "links": [{"u": u, "v": v, "bandwidth": bw} for (u, v), bw in self.links.items()],
            "seed": self.seed,
            "bandwidth_range": (None if self.bandwidth_range is None
                                else list(self.bandwidth_range)),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Network":
        """Inverse of to_json; a form without `bandwidth_range` loads with None.
        A malformed document (a missing key, a wrong type, a non-integer node
        count, node id or seed, a negative seed) raises InvalidConfig."""
        try:
            layout = partition_regions(_json_field(data, "pn"))
            if layout.n_regions != data["a"] or list(layout.sizes) != list(data["sizes"]):
                raise InvalidConfig("region metadata does not match the node count")
            links = [(_json_field(l, "u"), _json_field(l, "v"),
                      float(_json_field(l, "bandwidth", (int, float)))) for l in data["links"]]
            seed = _json_field(data, "seed")
            bandwidth_range = data.get("bandwidth_range")
            if bandwidth_range is not None:
                b_min, b_max = (float(b) for b in bandwidth_range)
                check_bandwidth_range(b_min, b_max, layout.n_nodes)
                bandwidth_range = (b_min, b_max)
            return cls.from_links(layout.n_nodes, links, seed=seed,
                                  bandwidth_range=bandwidth_range)
        except InvalidConfig:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(f"malformed network JSON: {exc!r}") from None


def _json_field(obj, key, types=(int,)):
    """obj[key], which must be a JSON value of one of `types`: an integer
    field rejects 2.0 and true, a number field rejects "2.0"."""
    value = obj[key]
    if type(value) not in types:
        raise InvalidConfig(f"{key} must be {' or '.join(t.__name__ for t in types)}, "
                            f"got {value!r}")
    return value


def generate_topology(n_nodes, seed, intra_density=DEFAULT_INTRA_DENSITY,
                      inter_density=DEFAULT_INTER_DENSITY, ensure_connected=True) -> Network:
    """Sample a random region-based network.

    Each intra-region node pair is linked with probability intra_density,
    each inter-region pair with inter_density. With ensure_connected a
    random spanning tree is laid down first, so every pair of nodes is
    reachable. Links carry unit bandwidth until assign_bandwidths.

    Args:
        n_nodes: total node count (>= 4).
        seed: non-negative generation seed; identical inputs reproduce the
            identical network.
        intra_density, inter_density: link probabilities in [0, 1].
        ensure_connected: add a spanning-tree backbone before sampling.
    """
    check_densities(intra_density, inter_density)
    layout = partition_regions(n_nodes)
    gen = make_rng(seed, TOPOLOGY)
    adjacency = np.zeros((layout.n_nodes, layout.n_nodes), dtype=bool)

    if ensure_connected:
        order = gen.permutation(layout.n_nodes)
        for i in range(1, layout.n_nodes):
            u = int(order[i])
            v = int(order[int(gen.integers(0, i))])
            adjacency[u, v] = True

    region = np.repeat(np.arange(layout.n_regions), layout.sizes)
    iu, iv = np.triu_indices(layout.n_nodes, k=1)
    probs = np.where(region[iu] == region[iv], intra_density, inter_density)
    hits = gen.random(iu.size) < probs
    adjacency[iu[hits], iv[hits]] = True

    return Network(layout=layout, bandwidths=adjacency | adjacency.T, seed=int(seed))


def assign_bandwidths(network: Network, seed, b_min=DEFAULT_BANDWIDTH_RANGE[0],
                      b_max=DEFAULT_BANDWIDTH_RANGE[1]) -> Network:
    """New network with every link bandwidth drawn uniformly from [b_min, b_max]."""
    check_bandwidth_range(b_min, b_max, network.n_nodes)
    return _draw_bandwidths(network, make_rng(seed, BANDWIDTH), b_min, b_max)


def perturb_bandwidths(network: Network, seed, iteration: int, mode="dynamic") -> Network:
    """Re-sample every link bandwidth for one optimizer iteration.

    Dynamic mode draws a fresh uniform bandwidth per link from the network's
    assigned range, keyed by (seed, iteration) so any iteration's state can
    be reconstructed. Static mode is the identity.
    """
    if mode == "static":
        return network
    check_bandwidth_mode(mode)
    if network.bandwidth_range is None:
        raise ValueError("network has no assigned bandwidth range; run assign_bandwidths first")
    return _draw_bandwidths(network, make_rng(seed, PERTURB, iteration),
                            *network.bandwidth_range)


def _draw_bandwidths(network, gen, b_min, b_max):
    """Copy of `network` with one uniform [b_min, b_max] draw per link, in (u, v) order.

    Only the bandwidth matrix is new. The link set is unchanged, so the copy
    shares its parent's link ends and move tables and is not re-validated.
    """
    u, v = network._link_ends
    bandwidths = np.zeros_like(network.bandwidths)
    bandwidths[u, v] = bandwidths[v, u] = gen.uniform(b_min, b_max, size=u.size)
    bandwidths.flags.writeable = False
    out = copy.copy(network)
    out.bandwidths = bandwidths
    out.bandwidth_range = (float(b_min), float(b_max))
    return out


def build_network(n_nodes, seed, intra_density=DEFAULT_INTRA_DENSITY,
                  inter_density=DEFAULT_INTER_DENSITY, ensure_connected=True,
                  b_min=DEFAULT_BANDWIDTH_RANGE[0], b_max=DEFAULT_BANDWIDTH_RANGE[1]) -> Network:
    """generate_topology followed by assign_bandwidths under one seed."""
    net = generate_topology(n_nodes, seed, intra_density, inter_density, ensure_connected)
    return assign_bandwidths(net, seed, b_min, b_max)
