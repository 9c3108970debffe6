import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmroute import (ExperimentConfig, GaParams, InvalidConfig, Network, PsoParams,
                        build_network, run_ga, run_pso)
from swarmroute.rng import Words, check_seed, make_rng

# n = 3 * 2**30 makes Lemire's first draw land below the rejection threshold
# about a quarter of the time, so the redraw loop runs.
BOUNDS = st.one_of(st.integers(1, 300), st.just(3 * 2 ** 30))

# One draw as (method of Words, the same draw from numpy's Generator).
DRAWS = {
    "double": lambda n: (lambda w: w.double(), lambda g: g.random()),
    "below": lambda n: (lambda w: w.below(n), lambda g: int(g.integers(0, n))),
    # the GA's two-point cuts: two 32-bit draws through numpy's shared buffer
    "cuts": lambda n: (lambda w: (w.below(n) + 1, w.below(n) + 1),
                       lambda g: tuple(g.integers(1, n + 1, size=2).tolist())),
    "two_of": lambda n: (lambda w: w.two_of(n),
                         lambda g: tuple(g.choice(n, size=2, replace=False).tolist())),
}


@st.composite
def draw_sequences(draw):
    """Interleaved draws: a kind and a bound each; two_of needs n >= 2 and
    runs at n = 4 a third of the time, where Floyd's b == a case is common."""
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(sorted(DRAWS)))
        if kind == "two_of":
            n = draw(st.one_of(st.just(4), st.integers(2, 300), st.just(3 * 2 ** 30)))
        else:
            n = draw(BOUNDS)
        steps.append((kind, n))
    return steps


class TestWords:
    """The word reader against numpy's own Generator on the same stream."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 64), chunk=st.sampled_from([1, 2, 7, 64]),
           steps=draw_sequences())
    def test_same_values_as_generator(self, seed, chunk, steps):
        gen = np.random.default_rng(seed)
        words = Words(np.random.default_rng(seed).bit_generator, chunk)
        for kind, n in steps:
            ours, numpy_draw = DRAWS[kind](n)
            assert ours(words) == numpy_draw(gen), (kind, n)
        # and both stop at the same point of the stream
        assert words.double() == gen.random()

    def test_floyd_collision_swaps_in_last(self):
        # At n=4, b == a happens about one draw in four; the pair is then
        # (a, n - 1) in some order, and both orders occur.
        seen = set()
        for seed in range(200):
            gen = np.random.default_rng(seed)
            words = Words(np.random.default_rng(seed).bit_generator)
            for _ in range(5):
                pair = words.two_of(4)
                assert pair == tuple(gen.choice(4, size=2, replace=False).tolist())
                seen.add(pair)
        assert len(seen) == 12  # every ordered pair of distinct values in 0..3

    def test_below_one_draws_nothing(self):
        words = Words(np.random.default_rng(5).bit_generator)
        assert words.below(1) == 0
        assert words.double() == np.random.default_rng(5).random()


class TestMakeRng:
    @pytest.mark.parametrize("keys", [(), (9,), (6, 30)])
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 70 + 3, 10 ** 30])
    def test_equals_list_seeded_generator(self, seed, keys):
        ours = make_rng(seed, *keys)
        theirs = np.random.default_rng([seed, *keys])
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random(4).tolist() == theirs.random(4).tolist()

    def test_numpy_integer_seed(self):
        assert make_rng(np.int64(7), 2).random() == make_rng(7, 2).random()

    def test_negative_key_raises(self):
        with pytest.raises(ValueError):
            make_rng(1, -1)

    def test_negative_seed_raises_invalid_config(self):
        with pytest.raises(InvalidConfig):
            make_rng(-1)


NON_INTEGRAL_SEEDS = [2.5, 3.9, 1.0, "3", True, False, None]


class TestSeedMustBeInteger:
    """Non-integral seeds used to be truncated (2.5 ran as seed 2) or parsed."""

    @pytest.mark.parametrize("seed", NON_INTEGRAL_SEEDS)
    def test_check_seed(self, seed):
        with pytest.raises(InvalidConfig):
            check_seed(seed)

    @pytest.mark.parametrize("seed", NON_INTEGRAL_SEEDS)
    @pytest.mark.parametrize("entry", [
        lambda seed: make_rng(seed, 4),
        lambda seed: ExperimentConfig(n_nodes=12, seed=seed),
        lambda seed: build_network(21, seed),
        lambda seed: Network.from_links(3, [(0, 1), (1, 2)], seed=seed),
        lambda seed: run_ga(build_network(12, 1), 0, 11, GaParams(pop_size=4, kmax=1), seed),
        lambda seed: run_pso(build_network(12, 1), 0, 11,
                             PsoParams(n_particles=4, iterations=1), seed),
    ], ids=["make_rng", "ExperimentConfig", "build_network", "from_links", "run_ga",
            "run_pso"])
    def test_rejected_everywhere(self, entry, seed):
        with pytest.raises(InvalidConfig):
            entry(seed)

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 40, np.int64(7), np.uint32(7)])
    def test_integers_accepted(self, seed):
        check_seed(seed)
        assert build_network(8, seed).seed == int(seed)
