"""8 B-line cache: the fine-grained ideal with prohibitive tag overhead.

Every 8-byte word gets its own tag, so only useful data is ever resident
-- the performance upper bound of Fig. 11 -- but the tag store costs
~45 % of the data capacity at 4 MB/48-bit addressing (Sec. V-A), which is
why Piccolo-cache exists.

Batched engine (docs/CACHE_ENGINES.md): the design is exactly a
conventional LRU cache specialised to 8 B lines, so it inherits
:class:`~repro.cache.conventional.ConventionalCache`'s first-touch
``access_many`` engine and replay hooks unchanged -- a one-word line
means the touched/dirty masks collapse to single bits and the
same-block run compression degenerates to same-word runs, with no
behavioural difference from the scalar loop.  Word-granular lines
thrash small caches: a victim is then often a word the call touches
again, so on the 1 KB Fig. 11 toy geometry about half the touched sets
fall back to the per-run replay, and the engine runs at about the
per-run loop's speed there.
"""

from __future__ import annotations

from repro.cache.conventional import ConventionalCache


class EightByteLineCache(ConventionalCache):
    """A conventional LRU cache specialised to 8 B lines."""

    def __init__(
        self,
        size_bytes: int,
        ways: int = 8,
        addr_bits: int = 48,
        capacity_scale: float = 1.0,
    ) -> None:
        # ``capacity_scale`` models designs that steal data capacity for
        # in-array metadata (amoeba/graphfire approximations).
        effective = int(size_bytes * capacity_scale)
        line = 8
        ways_total = ways * line
        effective -= effective % ways_total
        # Round down to a power-of-two set count.
        sets = effective // ways_total
        sets = 1 << max(0, sets.bit_length() - 1)
        super().__init__(
            size_bytes=sets * ways_total,
            ways=ways,
            line_bytes=line,
            addr_bits=addr_bits,
        )

    @property
    def tag_overhead_fraction(self) -> float:
        """Tag bits relative to data bits (the paper quotes 45.31 % for
        4 MB / 8-way / 48-bit)."""
        return self.tag_overhead_bits / (self.size_bytes * 8)
