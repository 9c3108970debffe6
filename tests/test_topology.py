import hashlib
import json
import math

import pytest

import numpy as np

from swarmroute import (InvalidBandwidthRange, InvalidConfig, InvalidNodeCount, Network,
                        assign_bandwidths, build_network, generate_topology, partition_regions,
                        perturb_bandwidths)

from conftest import bfs_reachable


class TestPartitionRegions:
    def test_21_nodes_gives_4_regions(self):
        layout = partition_regions(21)
        assert layout.n_regions == 4
        assert layout.sizes == (5, 5, 5, 6)
        assert layout.ranges == ((0, 5), (5, 10), (10, 15), (15, 21))

    def test_8_nodes_remainder_goes_last(self):
        layout = partition_regions(8)
        assert layout.n_regions == 3
        assert layout.sizes == (2, 2, 4)

    def test_9_nodes_exact_division(self):
        assert partition_regions(9).sizes == (3, 3, 3)

    def test_power_of_two_uses_floor(self):
        assert partition_regions(32).n_regions == 5

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_too_few_nodes_rejected(self, n):
        with pytest.raises(InvalidNodeCount):
            partition_regions(n)

    def test_invariants_over_full_range(self):
        for n in range(4, 2049):
            layout = partition_regions(n)
            assert sum(layout.sizes) == n
            assert layout.n_regions == n.bit_length() - 1
            base = layout.sizes[0]
            assert all(s == base for s in layout.sizes[:-1])
            assert layout.sizes[-1] == base + n % layout.n_regions
            # ranges tile 0..n-1 in order
            expect_start = 0
            for (start, stop), size in zip(layout.ranges, layout.sizes):
                assert start == expect_start
                assert stop - start == size
                expect_start = stop
            assert expect_start == n


class TestGenerateTopology:
    def test_full_density_is_complete_graph(self):
        net = generate_topology(4, seed=0, intra_density=1.0, inter_density=1.0)
        assert len(net.links) == 6
        assert all(net.has_link(u, v) for u in range(4) for v in range(u + 1, 4))

    def test_deterministic_per_seed(self):
        a = generate_topology(21, seed=123)
        b = generate_topology(21, seed=123)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_topology(21, seed=1)
        b = generate_topology(21, seed=2)
        assert a.links.keys() != b.links.keys()

    def test_connectivity_guarantee(self):
        net = generate_topology(12, seed=9, intra_density=0.5, inter_density=0.1)
        assert bfs_reachable(net, 0) == set(range(12))

    def test_adjacency_symmetric_no_self_loops(self):
        for seed in range(1000):
            net = generate_topology(21, seed=seed)
            for u in range(net.n_nodes):
                for v in net.neighbors(u):
                    assert v != u
                    assert u in net.neighbors(v)

    def test_all_nodes_reachable_many_seeds(self):
        for seed in range(1000):
            net = generate_topology(21, seed=seed, intra_density=0.3, inter_density=0.05)
            assert bfs_reachable(net, 0) == set(range(21))

    def test_density_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            generate_topology(8, seed=0, intra_density=1.5)

    def test_sparse_without_backbone_can_disconnect(self):
        net = generate_topology(8, seed=0, intra_density=0.0, inter_density=0.0,
                                ensure_connected=False)
        assert len(net.links) == 0


class TestAssignBandwidths:
    def test_degenerate_range(self):
        net = generate_topology(8, seed=0)
        net = assign_bandwidths(net, seed=0, b_min=5, b_max=5)
        assert all(bw == 5.0 for bw in net.links.values())

    def test_range_containment(self):
        net = generate_topology(64, seed=3, intra_density=0.9, inter_density=0.5)
        assert len(net.links) >= 1000
        net = assign_bandwidths(net, seed=3)
        assert all(1.0 <= bw <= 100.0 for bw in net.links.values())
        assert all(bw > 0 for bw in net.links.values())

    def test_deterministic(self):
        base = generate_topology(21, seed=11)
        assert assign_bandwidths(base, seed=4) == assign_bandwidths(base, seed=4)

    def test_input_not_mutated(self):
        base = generate_topology(8, seed=0)
        before = dict(base.links)
        assign_bandwidths(base, seed=1)
        assert base.links == before
        assert base.bandwidth_range is None

    @pytest.mark.parametrize("lo,hi", [(0, 10), (-1, 10), (10, 5), (float("nan"), 10),
                                       (1, float("inf")), (1e308, 1.7e308), (1e-300, 1e300)])
    def test_bad_range_rejected(self, lo, hi):
        net = generate_topology(8, seed=0)
        with pytest.raises(InvalidBandwidthRange):
            assign_bandwidths(net, seed=0, b_min=lo, b_max=hi)


class TestPerturbBandwidths:
    @pytest.fixture
    def net(self):
        return assign_bandwidths(generate_topology(21, seed=5), seed=5)

    def test_static_is_identity(self, net):
        assert perturb_bandwidths(net, seed=1, iteration=3, mode="static") is net

    def test_dynamic_deterministic(self, net):
        a = perturb_bandwidths(net, seed=1, iteration=3)
        b = perturb_bandwidths(net, seed=1, iteration=3)
        assert a == b

    def test_iterations_differ(self, net):
        a = perturb_bandwidths(net, seed=1, iteration=1)
        b = perturb_bandwidths(net, seed=1, iteration=2)
        changed = sum(1 for key in a.links if a.links[key] != b.links[key])
        assert changed >= 10

    def test_range_preserved(self, net):
        out = perturb_bandwidths(net, seed=1, iteration=1)
        assert out.bandwidth_range == net.bandwidth_range
        assert all(1.0 <= bw <= 100.0 for bw in out.links.values())

    def test_requires_assigned_range(self):
        bare = generate_topology(8, seed=0)
        with pytest.raises(ValueError):
            perturb_bandwidths(bare, seed=0, iteration=1)

    def test_resample_swaps_only_bandwidths(self, net):
        out = perturb_bandwidths(net, seed=1, iteration=1)
        assert list(out.links) == sorted(net.links)
        assert out.move_tables is net.move_tables
        assert out.neighbors(3) == net.neighbors(3)
        assert out._link_ends is net._link_ends
        links = [(u, v, bw) for (u, v), bw in out.links.items()]
        assert out == Network.from_links(net.n_nodes, links, seed=net.seed,
                                         bandwidth_range=net.bandwidth_range)
        assert (out.bandwidths != net.bandwidths).any()
        assert all(out.bandwidths[v, u] == bw for (u, v), bw in out.links.items())

    def test_unknown_mode_rejected(self, net):
        with pytest.raises(ValueError):
            perturb_bandwidths(net, seed=0, iteration=1, mode="wobble")


class TestNetworkValue:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Network.from_links(4, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Network.from_links(4, [(0, 4)])

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(ValueError):
            Network.from_links(4, [(0, 1, 0.0)])

    @pytest.mark.parametrize("bw", [math.nan, math.inf])
    def test_rejects_non_finite_bandwidth(self, bw):
        with pytest.raises(ValueError, match="not finite and positive"):
            Network.from_links(4, [(0, 1, bw)])
        data = Network.from_links(4, [(0, 1, 2.0)]).to_json()
        data["links"][0]["bandwidth"] = bw  # what json.loads makes of NaN / Infinity
        with pytest.raises(ValueError, match="not finite and positive"):
            Network.from_json(data)

    def test_rejects_duplicate_after_normalization(self):
        with pytest.raises(ValueError):
            Network.from_links(4, [(0, 1), (1, 0)])

    def test_rejects_repeated_link(self):
        with pytest.raises(ValueError, match="duplicate link"):
            Network.from_links(4, [(0, 1, 2.0), (0, 1, 3.0)])
        data = Network.from_links(4, [(0, 1, 2.0)]).to_json()
        data["links"].append(dict(data["links"][0]))
        with pytest.raises(ValueError, match="duplicate link"):
            Network.from_json(data)

    @pytest.mark.parametrize("bad", [
        np.zeros((4, 5)),
        np.triu(np.ones((4, 4)), k=1),  # one direction only
        np.eye(4),
        -(np.ones((4, 4)) - np.eye(4)),
        np.full((4, 4), math.nan),
    ])
    def test_rejects_bad_matrix(self, bad):
        with pytest.raises(ValueError, match="symmetric 4 x 4"):
            Network(layout=partition_regions(4), bandwidths=bad, seed=0)

    def test_matrices_mirror_links(self):
        # reversed pairs, given in unsorted order, come out as sorted u < v links
        small = Network.from_links(5, [(3, 0, 2.5), (4, 1, 1.5), (1, 2, 4.0)])
        assert list(small.links.items()) == [((0, 3), 2.5), ((1, 2), 4.0), ((1, 4), 1.5)]
        expected = np.zeros((5, 5))
        expected[0, 3] = expected[3, 0] = 2.5
        expected[1, 2] = expected[2, 1] = 4.0
        expected[1, 4] = expected[4, 1] = 1.5
        assert np.array_equal(small.bandwidths, expected)
        assert [small.neighbors(u) for u in range(5)] == [(3,), (2, 4), (1,), (0,), (1,)]
        for net in (small, build_network(21, seed=2)):
            links = net.links
            assert all(net.bandwidths[u, v] == net.bandwidths[v, u] == bw
                       for (u, v), bw in links.items())
            assert np.count_nonzero(net.bandwidths) == 2 * len(links)
            assert {(u, v) for u in range(net.n_nodes)
                    for v in net.neighbors(u) if u < v} == set(links)
            assert [(l["u"], l["v"], l["bandwidth"]) for l in net.to_json()["links"]] == [
                (u, v, bw) for (u, v), bw in links.items()]

    @pytest.mark.parametrize("node", [-1, 5, -6])
    def test_nodes_outside_range_have_no_links(self, node):
        # -1 would index node 4 of the matrix, which is linked to node 1
        net = Network.from_links(5, [(1, 4, 2.0), (0, 3)])
        for u, v in [(1, node), (node, 1)]:
            assert net.has_link(u, v) is False
            with pytest.raises(KeyError):
                net.bandwidth(u, v)
        with pytest.raises(KeyError):
            net.neighbors(node)

    def test_neighbors_sorted(self):
        net = Network.from_links(5, [(0, 3), (0, 1), (0, 2)])
        assert net.neighbors(0) == (1, 2, 3)

    def test_json_round_trip(self):
        net = assign_bandwidths(generate_topology(21, seed=8), seed=8)
        data = net.to_json()
        assert list(data) == ["pn", "a", "sizes", "links", "seed", "bandwidth_range"]
        pairs = [(l["u"], l["v"]) for l in data["links"]]
        assert pairs == sorted(pairs)
        back = Network.from_json(json.loads(json.dumps(data)))
        assert back.links == net.links
        assert back.layout == net.layout
        assert back.seed == net.seed
        assert back.bandwidth_range == net.bandwidth_range == (1.0, 100.0)

    @pytest.mark.parametrize("n", [4, 21, 64])
    def test_json_round_trip_is_lossless(self, n):
        net = build_network(n, seed=n)
        back = Network.from_json(json.loads(json.dumps(net.to_json())))
        assert back == net
        assert Network.from_json(net.to_json()) == net
        # the loaded network carries its range, so it can run in dynamic mode
        assert perturb_bandwidths(back, seed=3, iteration=2) == perturb_bandwidths(
            net, seed=3, iteration=2)

    def test_large_n_json_is_pinned(self):
        # sha256 of json.dumps(to_json()), computed at commit 42e3ea3, when networks
        # still stored a links dict: pins link order, draw order and float bits
        expected = {
            "n64": "ca70f8f26fe35a75029a8fdc38a9f9b09cd6f1baed0ce68807b450442d7bb5f3",
            "n256": "31f92edd7ba9365b757cdbd1692da429e77f3a50c6493db578d5550d1e76d327",
            "n256-resampled": "0bb6bf4994b8a638b975d25a98bd0a985208405900d4f571f8583efd17831a4b",
        }
        nets = {"n64": build_network(64, seed=64), "n256": build_network(256, seed=256)}
        nets["n256-resampled"] = perturb_bandwidths(nets["n256"], 3, 2)
        digests = {name: hashlib.sha256(json.dumps(net.to_json()).encode()).hexdigest()
                   for name, net in nets.items()}
        assert digests == expected

    def test_json_without_range_loads_unassigned(self):
        data = build_network(8, seed=1).to_json()
        del data["bandwidth_range"]
        assert Network.from_json(data).bandwidth_range is None
        bare = generate_topology(8, seed=1)
        assert bare.to_json()["bandwidth_range"] is None
        assert Network.from_json(bare.to_json()) == bare

    @pytest.mark.parametrize("bad", [[0.0, 10.0], [10.0, 5.0], [1.0, float("inf")]])
    def test_from_json_rejects_bad_range(self, bad):
        data = build_network(8, seed=1).to_json()
        data["bandwidth_range"] = bad
        with pytest.raises(InvalidBandwidthRange):
            Network.from_json(data)

    def test_json_byte_stable(self):
        a = assign_bandwidths(generate_topology(12, seed=2), seed=2)
        b = assign_bandwidths(generate_topology(12, seed=2), seed=2)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    @pytest.mark.parametrize("edit", [
        lambda d: d["links"][0].update(u=d["links"][0]["u"] + 0.5),
        lambda d: d["links"][0].update(v=True),
        lambda d: d.update(pn=d["pn"] + 0.7),
        lambda d: d.update(pn="8"),
        lambda d: d.update(seed=2.7),
        lambda d: d.update(seed=-3),
        lambda d: d.pop("seed"),
        lambda d: d["links"][0].pop("bandwidth"),
        lambda d: d.update(links=None),
        lambda d: d["links"].append([0, 1, 2.0]),
        lambda d: d["links"][0].update(bandwidth=None),
        lambda d: d["links"][0].update(bandwidth=str(d["links"][0]["bandwidth"])),
        lambda d: d.update(sizes=8),
        lambda d: d.update(bandwidth_range=[1.0]),
    ], ids=["u-fraction", "v-bool", "pn-fraction", "pn-string", "seed-fraction",
            "seed-negative", "no-seed", "no-bandwidth", "links-null", "link-as-list",
            "bandwidth-null", "bandwidth-string", "sizes-int", "range-one-value"])
    def test_from_json_rejects_malformed(self, edit):
        data = json.loads(json.dumps(build_network(8, seed=1).to_json()))
        edit(data)
        with pytest.raises(InvalidConfig):
            Network.from_json(data)

    @pytest.mark.parametrize("data", [None, [], "network"], ids=["null", "list", "string"])
    def test_from_json_rejects_a_non_object(self, data):
        with pytest.raises(InvalidConfig):
            Network.from_json(data)

    def test_from_json_rejects_bad_region_metadata(self):
        data = assign_bandwidths(generate_topology(8, seed=1), seed=1).to_json()
        data["a"] = 2
        with pytest.raises(ValueError):
            Network.from_json(data)
