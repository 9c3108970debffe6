import math
import re

import networkx as nx
import numpy as np
import pytest

from swarmroute import DeadEnd, Network, NoPathFound, Path, build_network, path_fitness
from swarmroute.encoding import MAX_DRAWS, check_endpoints
from swarmroute.harness import DEFAULT_ORACLE_CAP, OracleTooLarge


@pytest.fixture
def diamond_net():
    """Four nodes, two source-to-destination routes: 0-1-3 (fitness 0.5)
    and 0-2-3 (fitness 0.6)."""
    return Network.from_links(4, [(0, 1, 10.0), (1, 3, 10.0), (0, 2, 30.0), (2, 3, 20.0)])


@pytest.fixture
def line_net():
    """Line 0-1-2-3 with unit bandwidths; a unique simple path end to end."""
    return Network.from_links(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def small_net():
    return build_network(12, seed=42)


def make_networks(count, n_nodes=21, start_seed=0, **kwargs):
    return [build_network(n_nodes, seed=start_seed + i, **kwargs) for i in range(count)]


def mask_times(text):
    """Blank every wall-time-derived field so CLI runs can be byte-compared."""
    text = re.sub(r'"(wall_ms|pso_ms|ga_ms|mean_ms|median_ms)": [0-9.eE+-]+', r'"\1": X', text)
    text = re.sub(r'"pso_mean_ms_le_ga": (true|false)', '"pso_mean_ms_le_ga": X', text)
    lines = text.split("\n")
    if lines and lines[0].startswith("budget,"):
        return "\n".join([lines[0]] + [",".join(l.split(",")[:6]) for l in lines[1:] if l])
    return text


# ---- independent oracles (kept free of the library's own path/graph logic) ----

def fitness_oracle(network, nodes):
    """Second implementation of the bandwidth-quality score: first link's
    bandwidth over the exact (fsum) total along the node sequence."""
    bws = [network.bandwidth(u, v) for u, v in zip(nodes, nodes[1:])]
    return bws[0] / math.fsum(bws)


def assert_valid_path(network, path, source, destination):
    nodes = list(path.nodes)
    assert nodes[0] == source, f"path starts at {nodes[0]}, not {source}"
    assert nodes[-1] == destination, f"path ends at {nodes[-1]}, not {destination}"
    assert len(set(nodes)) == len(nodes), f"path repeats a node: {nodes}"
    for u, v in zip(nodes, nodes[1:]):
        assert network.has_link(u, v), f"({u}, {v}) is not a network link"
    assert path.hop_count == len(nodes) - 1


def bfs_reachable(network, start):
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nb in network.neighbors(node):
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen


def to_nx(network):
    graph = nx.Graph()
    graph.add_nodes_from(range(network.n_nodes))
    graph.add_edges_from(network.links)
    return graph


# ---- reference decoder: the per-vector sentinel loop the library used before
# it decoded whole populations over a cached move table, kept verbatim so the
# batched `evaluate`/`draw_population` and the new `decode` are pinned to it ----

SENTINEL_PRIORITY = -999.0


def reference_heuristic_allows(source, destination, terminal, candidate, window) -> bool:
    if source < destination:
        return candidate - terminal > -window
    return candidate - terminal < window


def reference_eligible_neighbors(network, working_priorities, path_so_far, source, destination,
                                 params) -> set[int]:
    terminal = path_so_far[-1]
    out = set()
    for nb in network.neighbors(terminal):
        if working_priorities[nb] == SENTINEL_PRIORITY:
            continue
        if nb != destination and not reference_heuristic_allows(source, destination, terminal,
                                                                nb, params.window):
            continue
        out.add(nb)
    return out


def reference_decode(network, priorities, source, destination, params) -> Path:
    n = network.n_nodes
    source, destination = int(source), int(destination)
    check_endpoints(n, source, destination)
    pri = np.asarray(priorities, dtype=float)
    if pri.shape != (n,):
        raise ValueError(f"priority vector shape {pri.shape} does not match {n} nodes")

    working = pri.tolist()  # private copy; plain floats keep the loop cheap
    path = [source]
    working[source] = SENTINEL_PRIORITY
    while path[-1] != destination:
        candidates = reference_eligible_neighbors(network, working, path, source, destination,
                                                  params)
        if not candidates:
            raise DeadEnd(path, destination)
        nxt = max(candidates, key=lambda nb: (working[nb], -nb))
        path.append(nxt)
        working[nxt] = SENTINEL_PRIORITY
    return Path(tuple(path))


def reference_evaluate(network, vectors, source, destination, dparams):
    fits, paths = [], []
    for vec in vectors:
        try:
            path = reference_decode(network, vec, source, destination, dparams)
        except DeadEnd:
            fits.append(0.0)
            paths.append(None)
            continue
        fits.append(path_fitness(network, path))
        paths.append(path)
    return fits, paths


def reference_draw_population(network, size, source, destination, dparams, rng):
    """One `rng.random(n)` draw per attempt, MAX_DRAWS attempts per member."""
    vectors, paths = [], []
    for _ in range(size):
        for _ in range(MAX_DRAWS):
            pri = rng.random(network.n_nodes)
            try:
                path = reference_decode(network, pri, source, destination, dparams)
            except DeadEnd:
                continue
            vectors.append(pri)
            paths.append(path)
            break
        else:
            raise NoPathFound(source, destination, attempts=MAX_DRAWS)
    return vectors, [path_fitness(network, path) for path in paths], paths


# ---- reference oracle: the exhaustive enumeration `brute_force_best` ran before
# it carried bandwidth sums down the search and pruned, kept verbatim so the
# branch-and-bound oracle is pinned to it ----

def reference_brute_force_best(network: Network, source, destination, cap=DEFAULT_ORACLE_CAP):
    """Exhaustive search over all simple paths; returns (path, fitness).

    Depth-first enumeration in ascending neighbor order, so fitness ties
    resolve to the lexicographically smallest node sequence. Only meant for
    small networks; refuses anything above `cap` nodes.
    """
    if network.n_nodes > cap:
        raise OracleTooLarge(f"{network.n_nodes} nodes exceeds the enumeration cap {cap}")
    source, destination = int(source), int(destination)
    check_endpoints(network.n_nodes, source, destination)
    best_path: Path | None = None
    best_fitness = 0.0

    visited = {source}
    prefix = [source]

    def visit(node):
        nonlocal best_path, best_fitness
        for nb in network.neighbors(node):
            if nb == destination:
                candidate = Path(tuple(prefix) + (nb,))
                fit = path_fitness(network, candidate)
                if best_path is None or fit > best_fitness or (
                        fit == best_fitness and candidate.nodes < best_path.nodes):
                    best_path, best_fitness = candidate, fit
            elif nb not in visited:
                visited.add(nb)
                prefix.append(nb)
                visit(nb)
                prefix.pop()
                visited.discard(nb)

    visit(source)
    if best_path is None:
        raise NoPathFound(source, destination)
    return best_path, best_fitness
