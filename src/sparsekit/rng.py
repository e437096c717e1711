"""Deterministic PRNG used by all graph generators.

xoshiro256** seeded through splitmix64, both computed in 64-bit
wrapping arithmetic. The algorithm is pinned (rather than relying on
the host language's default generator) so that a (spec, seed) pair
reproduces the same corpus byte-for-byte anywhere.
"""

_MASK = (1 << 64) - 1


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK


class Xoshiro256:
    """xoshiro256** with splitmix64 state expansion from a single seed."""

    def __init__(self, seed):
        s = seed & _MASK
        state = []
        for _ in range(4):
            # splitmix64 step
            s = (s + 0x9E3779B97F4A7C15) & _MASK
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            state.append(z ^ (z >> 31))
        self._s = state

    def next_u64(self):
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def randrange(self, n):
        """Uniform integer in [0, n) by rejection sampling (unbiased)."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n
