import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmroute import (DeadEnd, DecodeParams, InvalidConfig, Network, NoPathFound, Path,
                        build_network, decode, perturb_bandwidths, random_priorities)
from swarmroute.encoding import (MAX_DRAWS, draw_population, draw_valid_priorities, evaluate,
                                 move_table, route_path)
from swarmroute.rng import make_rng

from conftest import (assert_valid_path, reference_decode, reference_draw_population,
                      reference_evaluate)


def complete_network(n):
    return Network.from_links(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


COMPLETE_64 = complete_network(64)


def allowed_moves(net, source, destination, window):
    """allowed[t, c]: whether c may follow terminal t, read off the move
    table's penalty (whose index 0 is the sink, node v index v + 1)."""
    return move_table(net, source, destination, window)[1:, 1:] == 0


def evaluate_paths(net, vectors, source, destination, dparams):
    """`evaluate` in the reference's form: fitness list and Path-or-None list."""
    fits, routes, reached = evaluate(net, vectors, source, destination, dparams)
    return fits.tolist(), [route_path(route) if ok else None
                           for route, ok in zip(routes, reached.tolist())]


class TestHeuristicAllows:
    """The id-window rule, read from the move table of a complete network."""

    @pytest.mark.parametrize("window", [1, 3, 5, 8])
    def test_ascending_boundary(self, window):
        # from terminal 10, a candidate exactly window below is the first rejection
        allowed = allowed_moves(complete_network(20), 0, 19, window)
        assert set(np.flatnonzero(allowed[10])) == {
            c for c in range(20) if c != 10 and c - 10 > -window}
        assert not allowed[10, 10 - window]

    @pytest.mark.parametrize("window", [1, 3, 5, 8])
    def test_descending_boundary(self, window):
        allowed = allowed_moves(complete_network(20), 19, 0, window)
        assert set(np.flatnonzero(allowed[10])) == {
            c for c in range(20) if c != 10 and (c - 10 < window or c == 0)}
        assert not allowed[10, 10 + window]

    def test_nothing_follows_the_destination(self):
        assert not allowed_moves(complete_network(8), 0, 5, 8)[5].any()

    def test_window_five_rejects_distant_backstep(self):
        net = Network.from_links(21, [(10, 4), (10, 12)])
        assert not allowed_moves(net, 0, 20, 5)[10, 4]  # 4 - 10 = -6 <= -5

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=300)
    def test_window_at_least_n_allows_everything(self, source, destination, terminal, candidate):
        allowed = allowed_moves(COMPLETE_64, source, destination, 64)
        assert allowed[terminal, candidate] == (terminal not in (candidate, destination))


class TestEligibleNeighbors:
    """Which nodes may be appended next: the terminal's move-table row minus
    the nodes already on the path (what `evaluate` reads each hop)."""

    def eligible(self, net, path, source, destination, window=5):
        row = move_table(net, source, destination, window)[path[-1] + 1, 1:]
        return {node for node in np.flatnonzero(row == 0).tolist() if node not in path}

    def test_destination_sole_neighbor(self):
        net = Network.from_links(4, [(0, 1), (1, 3), (2, 3)])
        assert self.eligible(net, [0, 1], 0, 3) == {3}

    def test_all_selected_gives_empty_set(self):
        net = Network.from_links(4, [(0, 1), (0, 2), (1, 2)])
        assert self.eligible(net, [0, 2, 1], 0, 3) == set()

    def test_line_graph_excludes_selected(self):
        net = Network.from_links(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert self.eligible(net, [0, 1], 0, 4, window=5) == {2}

    def test_window_filters_backsteps(self):
        # from terminal 10, neighbor 4 trails by 6 >= window 5
        net = Network.from_links(21, [(10, 4), (10, 12)])
        assert self.eligible(net, [0, 10], 0, 20, window=5) == {12}

    def test_destination_exempt_from_window(self):
        # destination 2 trails terminal 5 by 3 >= window 2, but stays eligible
        net = Network.from_links(6, [(0, 5), (5, 2), (5, 1)])
        got = self.eligible(net, [0, 5], 0, 2, window=2)
        assert 2 in got
        assert got == {2}  # neighbor 1 trails by 4, filtered


class TestMoveTable:
    def test_successors_match_allowed_rows(self, small_net):
        allowed = allowed_moves(small_net, 11, 0, 4)
        assert not (allowed & (small_net.bandwidths == 0)).any()
        assert set(np.unique(move_table(small_net, 11, 0, 4))) == {0.0, -np.inf}

    def test_sink_row_and_column_are_closed(self, small_net):
        # nothing leads into the sink and nothing leaves it: a walk enters it
        # only when all of its real candidates are -inf, through argmax's first index
        penalty = move_table(small_net, 0, 11, 4)
        assert penalty.shape == (13, 13)
        assert np.all(penalty[0] == -np.inf) and np.all(penalty[:, 0] == -np.inf)

    def test_cached_and_shared_by_resampled_networks(self, small_net):
        table = move_table(small_net, 0, 11, 4)
        assert move_table(small_net, 0, 11, 4) is table
        assert move_table(perturb_bandwidths(small_net, seed=1, iteration=2), 0, 11, 4) is table
        assert move_table(small_net, 0, 11, 3) is not table
        assert not table.flags.writeable

    def test_cache_holds_the_latest_table(self, small_net):
        move_table(small_net, 0, 11, 4)
        latest = move_table(small_net, 0, 10, 4)
        assert small_net.move_tables == {(0, 10, 4): latest}


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

    @pytest.mark.parametrize("priorities,source,destination,error,message", [
        ([0.1] * 3, 0, 0, InvalidConfig, "source and destination must differ"),
        ([0.1] * 3, 9, 3, InvalidConfig, "source 9 outside node range 0..3"),
        ([0.1] * 3, 0, 3, ValueError, "priority shape (3,) does not match 4 nodes"),
        ([0.1, float("nan"), 0.1, 0.1], 0, 3, ValueError,
         "priorities must be finite (no NaN or infinity)"),
    ], ids=["same-endpoints", "source-out-of-range", "wrong-length", "nan"])
    def test_endpoints_checked_before_priorities(self, priorities, source, destination, error,
                                                 message):
        net = Network.from_links(4, [(0, 1), (1, 3)])
        with pytest.raises(error) as exc:
            decode(net, priorities, source, destination)
        assert type(exc.value) is error
        assert str(exc.value) == message

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
        with pytest.raises(InvalidConfig):
            DecodeParams(window=0)


class TestNonFinitePriorities:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_decode_rejects(self, diamond_net, bad):
        with pytest.raises(ValueError, match="finite"):
            decode(diamond_net, [0.5, bad, 0.1, 0.5], 0, 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_evaluate_rejects(self, diamond_net, bad):
        vectors = [[0.5, 0.9, 0.1, 0.5], [0.5, 0.1, bad, 0.5]]
        with pytest.raises(ValueError, match="finite"):
            evaluate(diamond_net, vectors, 0, 3, DecodeParams(window=2))

    def test_minus_999_is_an_ordinary_priority(self, line_net):
        # it used to mark node 1 as already on the path and strand the walk at 0
        pri = [0.5, -999.0, 0.5, 0.5]
        assert decode(line_net, pri, 0, 3).nodes == (0, 1, 2, 3)
        fits, paths = evaluate_paths(line_net, [pri], 0, 3, DecodeParams(window=2))
        assert paths[0].nodes == (0, 1, 2, 3)
        assert fits == [1 / 3]

    def test_minus_999_loses_to_higher_priorities(self, diamond_net):
        assert decode(diamond_net, [0.5, 0.1, -999.0, 0.5], 0, 3).nodes == (0, 1, 3)


@st.composite
def decode_cases(draw):
    """A build_network network (4-64 nodes, maybe resampled once), random
    distinct endpoints in either id order, and a tie-heavy priority matrix."""
    n = draw(st.integers(4, 64))
    net = build_network(n, seed=draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        net = perturb_bandwidths(net, seed=draw(st.integers(0, 100)), iteration=1)
    source = draw(st.integers(0, n - 1))
    destination = draw(st.integers(0, n - 1).filter(lambda d: d != source))
    rows = draw(st.integers(1, 12))
    values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=rows * n,
                           max_size=rows * n))
    return net, source, destination, np.array(values).reshape(rows, n)


class TestBatchedDecoder:
    """`evaluate` and `decode` against the reference per-vector loop."""

    @given(decode_cases())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_reference(self, case):
        net, source, destination, matrix = case
        dparams = DecodeParams.for_network(net)
        fits, paths = evaluate_paths(net, matrix, source, destination, dparams)
        ref_fits, ref_paths = reference_evaluate(net, matrix, source, destination, dparams)
        assert paths == ref_paths
        assert [f.hex() for f in fits] == [f.hex() for f in ref_fits]  # bit-identical
        _, routes, _ = evaluate(net, matrix, source, destination, dparams)
        for vec, route, ref_path in zip(matrix, routes, ref_paths):
            if ref_path is None:
                with pytest.raises(DeadEnd) as exc:
                    decode(net, vec, source, destination, dparams)
                with pytest.raises(DeadEnd) as ref_exc:
                    reference_decode(net, vec, source, destination, dparams)
                assert exc.value.partial_path == ref_exc.value.partial_path
                # a dead-ended row's route is that partial path
                assert route_path(route).nodes == ref_exc.value.partial_path
            else:
                assert decode(net, vec, source, destination, dparams) == ref_path

    def test_uniform_priorities_on_paper_networks(self):
        decoded = 0
        for seed in range(40):
            net = build_network(21, seed=seed)
            matrix = make_rng(seed, 99).random((40, 21))
            dparams = DecodeParams.for_network(net)
            fits, paths = evaluate_paths(net, matrix, 0, 20, dparams)
            assert (fits, paths) == reference_evaluate(net, matrix, 0, 20, dparams)
            decoded += sum(path is not None for path in paths)
        assert decoded > 1000  # mostly real paths, some dead ends

    def test_dead_end_scores_zero(self):
        net = Network.from_links(4, [(0, 1), (1, 2), (0, 3)])
        fits, paths = evaluate_paths(net, [[0.5, 0.9, 0.5, 0.1], [0.5, 0.1, 0.5, 0.9]], 0, 3,
                                     DecodeParams(window=2))
        assert fits == [0.0, 1.0]
        assert paths == [None, Path((0, 3))]

    def test_walk_through_every_node(self):
        # on a line the walk takes all n - 1 hops, the last in the loop's last pass;
        # the bandwidths round away unless they are added left to right
        for n, bws in ((4, [3.0, 1.0, 2.0]), (12, [1.0, 2.0 ** 53] + [1.0] * 9),
                       (33, [1e-300, 1.0, 2.0 ** 53, 1e300] * 8)):
            net = Network.from_links(n, [(u, u + 1, bw) for u, bw in enumerate(bws)])
            dparams = DecodeParams(window=n)
            matrix = make_rng(n).random((5, n))
            for source, destination in ((0, n - 1), (n - 1, 0)):
                fits, routes, reached = evaluate(net, matrix, source, destination, dparams)
                step = 1 if source < destination else -1
                assert routes.tolist() == [list(range(source, destination + step, step))] * 5
                assert reached.all()
                fit_list, paths = evaluate_paths(net, matrix, source, destination, dparams)
                ref_fits, ref_paths = reference_evaluate(net, matrix, source, destination,
                                                         dparams)
                assert paths == ref_paths
                assert [f.hex() for f in fit_list] == [f.hex() for f in ref_fits]

    @pytest.mark.parametrize("links,source,destination,window", [
        ([(1, 2), (2, 3)], 0, 3, 2),  # the source has no link
        ([(3, 0), (0, 5)], 3, 5, 2),  # its one neighbour trails it by the window
    ])
    def test_every_row_stuck_at_the_source(self, links, source, destination, window):
        net = Network.from_links(6, links)
        matrix = make_rng(1).random((7, 6))
        fits, routes, reached = evaluate(net, matrix, source, destination,
                                         DecodeParams(window=window))
        assert fits.tolist() == [0.0] * 7
        assert not reached.any()
        assert routes.tolist() == [[source] + [-1] * 5] * 7

    def test_input_matrix_untouched(self, small_net):
        matrix = make_rng(3).random((8, 12))
        before = matrix.tobytes()
        evaluate(small_net, matrix, 0, 11, DecodeParams.for_network(small_net))
        assert matrix.tobytes() == before

    def test_wrong_width_rejected(self, line_net):
        with pytest.raises(ValueError):
            evaluate(line_net, [[0.1] * 5], 0, 3, DecodeParams(window=2))

    def test_same_endpoints_rejected(self, line_net):
        with pytest.raises(ValueError):
            evaluate(line_net, [[0.1] * 4], 2, 2, DecodeParams(window=2))


class TestDrawPopulation:
    @pytest.mark.parametrize("intra,inter", [(0.6, 0.15), (0.3, 0.05)])
    def test_matches_sequential_draws(self, intra, inter):
        outcomes = set()
        for seed in range(25):
            net = build_network(21, seed=seed, intra_density=intra, inter_density=inter)
            source, destination = seed % 21, 20 - seed % 7
            if source == destination:
                continue
            dparams = DecodeParams.for_network(net)
            try:
                expected = reference_draw_population(net, 40, source, destination, dparams,
                                                     make_rng(seed))
            except NoPathFound as ref_exc:
                with pytest.raises(NoPathFound) as exc:
                    draw_population(net, 40, source, destination, dparams, make_rng(seed))
                assert str(exc.value) == str(ref_exc)
                outcomes.add("raised")
                continue
            vectors, fits, routes = draw_population(net, 40, source, destination, dparams,
                                                    make_rng(seed))
            assert vectors.tobytes() == np.stack(expected[0]).tobytes()
            assert [f.hex() for f in fits.tolist()] == [f.hex() for f in expected[1]]
            assert [route_path(route) for route in routes] == expected[2]
            outcomes.add("drawn")
        assert "drawn" in outcomes

    def test_undecodable_pair_raises_like_sequential(self):
        net = Network.from_links(4, [(0, 1)])  # 3 is isolated
        dparams = DecodeParams(window=2)
        with pytest.raises(NoPathFound) as ref_exc:
            reference_draw_population(net, 5, 0, 3, dparams, make_rng(0))
        with pytest.raises(NoPathFound) as exc:
            draw_population(net, 5, 0, 3, dparams, make_rng(0))
        assert exc.value.attempts == ref_exc.value.attempts == MAX_DRAWS
        assert str(exc.value) == str(ref_exc.value)
