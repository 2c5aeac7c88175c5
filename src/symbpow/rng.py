"""Deterministic splittable random numbers.

Counter-based construction: every draw hashes (seed, stream path, counter)
with blake2b, so a stream is reproducible from its seed and path alone and
child streams are independent of how much the parent was consumed.  This is
what makes scan reports byte-identical across runs and platforms.
"""

from __future__ import annotations

import operator

_BLOCK_BITS = 128
WEIGHT_GRANULARITY = 12  # the largest raw weight


class SplitRng:
    def __init__(self, seed: int, path: tuple = ()):
        self.seed = operator.index(seed)  # 1.5 raises, not draws seed 1's stream
        self.path = tuple(str(p) for p in path)
        # the tag joins the labels with "/", so a label holding one would
        # draw another path's stream, ("a/b",) that of ("a", "b"), and so
        # would an empty one, ("",) that of (); the seed and the counter are
        # integers, so "|" around the path is unambiguous
        if not all(p and "/" not in p for p in self.path):
            raise ValueError(f"a stream label must be non-empty, without '/': {self.path}")
        self._tag = f"{self.seed}|{'/'.join(self.path)}|"
        self._counter = 0

    def child(self, *labels) -> SplitRng:
        """Independent substream; consuming it does not advance this one."""
        return SplitRng(self.seed, self.path + tuple(str(x) for x in labels))

    def _block(self) -> int:
        # imported at the first draw, not with the package: hashlib loads
        # OpenSSL, a few milliseconds that a command drawing nothing skips
        import hashlib
        tag = f"{self._tag}{self._counter}"
        self._counter += 1
        digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=16).digest()
        return int.from_bytes(digest, "big")

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], bias-free via rejection."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        limit = (1 << _BLOCK_BITS) - ((1 << _BLOCK_BITS) % span)
        while True:
            x = self._block()
            if x < limit:
                return lo + (x % span)

    def subset(self, items, size: int) -> list:
        """Uniform size-`size` subset, order-stable in the input order."""
        pool = list(items)
        order = {item: i for i, item in enumerate(pool)}
        picked = []
        for _ in range(size):
            picked.append(pool.pop(self.randint(0, len(pool) - 1)))
        picked.sort(key=order.__getitem__)
        return picked

    def raw_weights(self, count: int) -> list[int]:
        """Random integers in [0, WEIGHT_GRANULARITY] over `count` slots,
        not all zero: convex weights before they are divided by their total."""
        while True:
            raw = [self.randint(0, WEIGHT_GRANULARITY) for _ in range(count)]
            if any(raw):
                return raw

