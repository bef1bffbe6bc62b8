"""Unit constants used throughout the memory-system models."""

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: DDR burst (cache line) size in bytes.  All DDR-family devices transfer
#: 64 B per fixed-length burst; LPDDR4/GDDR5/HBM use 32 B (Sec. VII-G).
CACHE_LINE_BYTES = 64

#: Granularity of a vertex property element (8 B, Sec. IV-A).
WORD_BYTES = 8

#: Accesses per chunk of a tile stream.  The VCM engine's edge loop, a
#: system's Vtemp ids and a memory path's ``run`` work through a tile
#: this many accesses at a time, so per-chunk temporaries (event
#: arrays, replay-memo records, the DRAM phase's request stream) stay
#: bounded at any graph size.  No result depends on it
#: (docs/ARCHITECTURE.md, invariant 4); readers look it up on this
#: module at call time, so a test can set it in one place.
CHUNK_ACCESSES = 1 << 15


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return log2 of ``value``, raising ``ValueError`` if not a power of two."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return -(-numerator // denominator)
