import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmroute import (DeadEnd, DecodeParams, Network, NoPathFound, Path, build_network,
                        decode, eligible_neighbors, heuristic_allows, random_priorities)
from swarmroute.encoding import MAX_DRAWS, SENTINEL_PRIORITY, draw_valid_priorities
from swarmroute.rng import make_rng

from conftest import assert_valid_path


class TestHeuristicAllows:
    @pytest.mark.parametrize("window", [1, 3, 5, 8])
    def test_ascending_boundary(self, window):
        # candidate exactly window below the terminal is the first rejection
        assert not heuristic_allows(0, 9, 5, 5 - window, window)
        assert heuristic_allows(0, 9, 5, 5 - window + 1, window)

    @pytest.mark.parametrize("window", [1, 3, 5, 8])
    def test_descending_boundary(self, window):
        assert not heuristic_allows(9, 0, 5, 5 + window, window)
        assert heuristic_allows(9, 0, 5, 5 + window - 1, window)

    def test_window_five_rejects_distant_backstep(self):
        assert not heuristic_allows(0, 20, 10, 4, 5)  # 4 - 10 = -6 <= -5

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=300)
    def test_window_at_least_n_allows_everything(self, source, destination, terminal, candidate):
        assert heuristic_allows(source, destination, terminal, candidate, 64)


class TestEligibleNeighbors:
    def params(self, window=5):
        return DecodeParams(window=window)

    def test_destination_sole_neighbor(self):
        net = Network.from_links(4, [(0, 1), (1, 3), (2, 3)])
        working = [SENTINEL_PRIORITY, SENTINEL_PRIORITY, 0.5, 0.5]
        assert eligible_neighbors(net, working, [0, 1], 0, 3, self.params()) == {3}

    def test_all_selected_gives_empty_set(self):
        net = Network.from_links(4, [(0, 1), (0, 2), (1, 2)])
        working = [SENTINEL_PRIORITY] * 4
        assert eligible_neighbors(net, working, [0, 2, 1], 0, 3, self.params()) == set()

    def test_line_graph_excludes_selected(self):
        net = Network.from_links(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        working = [SENTINEL_PRIORITY, SENTINEL_PRIORITY, 0.3, 0.9, 0.1]
        assert eligible_neighbors(net, working, [0, 1], 0, 4, self.params(window=5)) == {2}

    def test_window_filters_backsteps(self):
        # from terminal 10, neighbor 4 trails by 6 >= window 5
        net = Network.from_links(21, [(10, 4), (10, 12)])
        working = [0.5] * 21
        got = eligible_neighbors(net, working, [0, 10], 0, 20, self.params(window=5))
        assert got == {12}

    def test_destination_exempt_from_window(self):
        # destination 2 trails terminal 5 by 3 >= window 2, but stays eligible
        net = Network.from_links(6, [(0, 5), (5, 2), (5, 1)])
        working = [SENTINEL_PRIORITY, 0.9, 0.9, 0.5, 0.5, SENTINEL_PRIORITY]
        got = eligible_neighbors(net, working, [0, 5], 0, 2, self.params(window=2))
        assert 2 in got
        assert got == {2}  # neighbor 1 trails by 4, filtered


class TestDecode:
    def test_direct_link(self):
        net = Network.from_links(4, [(0, 3), (1, 2)])
        path = decode(net, [0.1, 0.2, 0.3, 0.4], 0, 3)
        assert path.nodes == (0, 3)
        assert path.hop_count == 1

    def test_line_graph_forced(self, line_net):
        for seed in range(5):
            pri = random_priorities(4, seed)
            assert decode(line_net, pri, 0, 3).nodes == (0, 1, 2, 3)

    def test_diamond_follows_priority(self, diamond_net):
        path = decode(diamond_net, [0.5, 0.9, 0.1, 0.5], 0, 3)
        assert path.nodes == (0, 1, 3)
        path = decode(diamond_net, [0.5, 0.1, 0.9, 0.5], 0, 3)
        assert path.nodes == (0, 2, 3)

    def test_input_priorities_untouched(self, diamond_net):
        pri = np.array([0.5, 0.9, 0.1, 0.5])
        before = pri.tobytes()
        decode(diamond_net, pri, 0, 3)
        assert pri.tobytes() == before

    def test_pure_function(self, small_net):
        pri = random_priorities(12, 7)
        a = decode(small_net, pri, 0, 11)
        b = decode(small_net, pri, 0, 11)
        assert a == b

    def test_dead_end_raised(self):
        # picking 1 first strands the walk at 2; 3 only hangs off the source
        net = Network.from_links(4, [(0, 1), (1, 2), (0, 3)])
        with pytest.raises(DeadEnd) as exc:
            decode(net, [0.5, 0.9, 0.5, 0.1], 0, 3)
        assert exc.value.partial_path == (0, 1, 2)

    def test_same_endpoints_rejected(self, line_net):
        with pytest.raises(ValueError):
            decode(line_net, [0.1] * 4, 2, 2)

    def test_wrong_length_rejected(self, line_net):
        with pytest.raises(ValueError):
            decode(line_net, [0.1] * 5, 0, 3)

    def test_tie_breaks_to_lower_id(self):
        net = Network.from_links(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        path = decode(net, [0.5, 0.7, 0.7, 0.5], 0, 3)
        assert path.nodes == (0, 1, 3)

    def test_wide_window_matches_plain_greedy(self):
        # window >= n disables the id filter; compare against a greedy oracle
        def greedy(net, pri, source, destination):
            working = list(pri)
            walk = [source]
            working[source] = None
            while walk[-1] != destination:
                cands = [nb for nb in net.neighbors(walk[-1]) if working[nb] is not None]
                if not cands:
                    return None
                nxt = max(cands, key=lambda nb: (working[nb], -nb))
                walk.append(nxt)
                working[nxt] = None
            return tuple(walk)

        wide = DecodeParams(window=100)
        hits = 0
        for seed in range(200):
            net = build_network(12, seed=seed)
            pri = random_priorities(12, seed + 1000)
            expected = greedy(net, pri.tolist(), 0, 11)
            try:
                got = decode(net, pri, 0, 11, wide).nodes
            except DeadEnd:
                got = None
            assert got == expected
            hits += got is not None
        assert hits > 100  # the comparison must mostly exercise real paths

    def test_many_random_decodes_valid(self):
        ok = 0
        for seed in range(300):
            net = build_network(21, seed=seed)
            pri = random_priorities(21, seed + 5000)
            try:
                path = decode(net, pri, 0, 20)
            except DeadEnd:
                continue
            assert_valid_path(net, path, 0, 20)
            ok += 1
        assert ok > 150


class TestPathValue:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Path(())

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            Path((0, 1, 0))

    def test_renders_comma_separated(self):
        assert str(Path((0, 2, 3))) == "0,2,3"


class TestRandomPriorities:
    def test_deterministic(self):
        assert np.array_equal(random_priorities(50, 9), random_priorities(50, 9))

    def test_range(self):
        pri = random_priorities(100, 1)
        assert pri.shape == (100,)
        assert np.all((pri >= 0.0) & (pri < 1.0))

    def test_seeds_differ(self):
        assert not np.array_equal(random_priorities(100, 1), random_priorities(100, 2))

    def test_needs_positive_length(self):
        with pytest.raises(ValueError):
            random_priorities(0, 1)


class TestDrawValidPriorities:
    def test_returns_decodable(self, small_net):
        params = DecodeParams.for_network(small_net)
        pri, path = draw_valid_priorities(small_net, 0, 11, params, make_rng(0))
        assert_valid_path(small_net, path, 0, 11)
        assert decode(small_net, pri, 0, 11, params) == path

    def test_no_path_raises(self):
        net = Network.from_links(4, [(0, 1)])  # 3 is isolated
        params = DecodeParams(window=2)
        with pytest.raises(NoPathFound) as exc:
            draw_valid_priorities(net, 0, 3, params, make_rng(0))
        assert exc.value.attempts == MAX_DRAWS == 50


class TestDecodeParams:
    def test_window_from_layout(self, small_net):
        assert DecodeParams.for_network(small_net).window == 4  # 12 nodes, 3 regions

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            DecodeParams(window=0)
