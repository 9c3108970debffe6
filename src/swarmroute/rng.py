"""Deterministic random-stream derivation.

Every randomized operation in the package draws from its own stream, keyed
by the caller's seed plus a per-operation tag. Reusing one seed across
e.g. topology sampling and bandwidth assignment therefore never replays
the same draws.

A stream's `SeedSequence` is built from one uint32 array: each of the seed
and the keys is split into 32-bit words, low word first, which is how numpy
converts each element of a list seed. `make_rng(seed, *keys)` is therefore
the generator `np.random.default_rng([seed, *keys])` gives, built without
numpy's per-element conversion.

`Words` reads a stream's raw 64-bit words in Python and decodes them into
the values numpy's `Generator` would have drawn, for loops that make many
scalar draws (GA's operator decisions), where each `Generator` call costs
far more than the arithmetic it does.
"""

import numpy as np

from .errors import InvalidConfig

# Stream tags, one per randomized operation.
TOPOLOGY = 1
BANDWIDTH = 2
PERTURB = 3
PRIORITY = 4
PSO_INIT = 5
PSO_STEP = 6
GA_INIT = 7
GA_SELECT = 8
GA_OPS = 9

_MASK32 = 0xFFFFFFFF


def check_seed(seed):
    """Seeds are non-negative integers: a Python or numpy int, not a bool,
    float or string, which would otherwise be truncated or parsed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidConfig(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise InvalidConfig(f"seed must be non-negative, got {seed}")


def make_rng(seed, *keys):
    """Generator for the stream identified by (seed, *keys).

    Keys must be non-negative integers (a negative one raises ValueError);
    a seed that `check_seed` rejects raises InvalidConfig.
    """
    check_seed(seed)
    words = []
    for value in (int(seed), *map(int, keys)):
        if value < 0:
            raise ValueError(f"stream keys must be non-negative, got {value}")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def derive_seed(*keys):
    """Collapse a key tuple into a single non-negative integer seed."""
    seq = np.random.SeedSequence([int(k) for k in keys])
    return int(seq.generate_state(1)[0])


class Words:
    """The draws of numpy's `Generator` on `bit_generator`, decoded in Python
    from its raw 64-bit words, `chunk` words fetched at a time.

    `double()` is `Generator.random()`, `below(m)` is `integers(0, m)`, and
    `two_of(n)` is `choice(n, 2, replace=False)`, value for value, in any
    interleaving, provided nothing else draws from `bit_generator` meanwhile.
    As in numpy, a 32-bit draw takes the high half of a word whose low half
    an earlier 32-bit draw took; a double always takes a whole new word.
    """

    __slots__ = ("_raw", "_chunk", "_words", "_high")

    def __init__(self, bit_generator, chunk=64):
        self._raw = bit_generator.random_raw
        self._chunk = chunk
        self._words = iter(())
        self._high = None  # the unused high half of the last word split

    def _word(self):
        word = next(self._words, None)
        if word is None:
            self._words = iter(self._raw(self._chunk).tolist())
            word = next(self._words)
        return word

    def double(self):
        """A float in [0, 1): the word's top 53 bits, scaled."""
        return (self._word() >> 11) * 2.0 ** -53

    def _u32(self):
        high = self._high
        if high is not None:
            self._high = None
            return high
        word = self._word()
        self._high = word >> 32
        return word & _MASK32

    def below(self, m):
        """An int in [0, m) for 1 <= m <= 2**32, by Lemire's multiply-and-
        reject on 32-bit draws; m == 1 draws nothing, as in numpy."""
        if m == 1:
            return 0
        x = self._u32() * m
        if (x & _MASK32) < m:
            threshold = (2 ** 32 - m) % m
            while (x & _MASK32) < threshold:
                x = self._u32() * m
        return x >> 32

    def two_of(self, n):
        """Two distinct ints in [0, n), n >= 2, in numpy's order: Floyd's
        sampling, then a shuffle whose one step swaps the pair unless
        below(2) draws 1."""
        a = self.below(n - 1)
        b = self.below(n)
        if b == a:
            b = n - 1
        return (a, b) if self.below(2) else (b, a)
