"""Request-stream builders for engine validation and microbenchmarks.

These generate the same access patterns the paper's FPGA microbenchmark
uses (Fig. 9: strided reads of a fixed footprint, data either packed in
one row per bank or spread over many rows) plus random mixes for fuzz
testing, in both conventional (per-burst READ/WRITE) and Piccolo-FIM
(row-grouped GATHER/SCATTER) forms.
"""

from __future__ import annotations

import numpy as np

from repro.dram.address import AddressMapper
from repro.dram.engine.commands import Request, RequestType
from repro.dram.spec import DRAMConfig


def strided_addresses(
    config: DRAMConfig,
    total_bytes: int,
    stride_words: int,
    single_row: bool,
) -> np.ndarray:
    """Byte addresses of a Fig. 9-style strided read sweep.

    Every ``stride_words``-th 8-byte word is touched, reading
    ``total_bytes / stride`` of payload.  With ``single_row`` the walk
    wraps within the first row-stripe (one row per bank after
    interleaving) so every access is a row hit; otherwise the walk is
    spread over at least eight rows per bank so activations matter.
    """
    if stride_words < 1:
        raise ValueError("stride must be >= 1")
    n_words = max(1, total_bytes // (8 * stride_words))
    word_index = np.arange(n_words, dtype=np.int64) * stride_words
    stripe_words = (config.total_banks * config.spec.row_bytes) // 8
    if single_row:
        # Wrap inside one row-stripe across all banks: the footprint of
        # one open row per bank.
        word_index %= stripe_words
    else:
        # Spread the walk over >= 8 rows per bank regardless of the
        # requested footprint, so the series exercises activations.
        min_words = 8 * stripe_words
        span = max(1, n_words)
        scale = max(1, -(-min_words // span))  # ceil
        word_index = (word_index * scale) % (8 * stripe_words * scale)
    return word_index * 8


def conventional_requests(
    config: DRAMConfig,
    addrs: np.ndarray,
    is_write: np.ndarray | None = None,
) -> tuple[list[Request], np.ndarray]:
    """Burst-granularity requests touching the bursts covering ``addrs``.

    Consecutive duplicate bursts are collapsed (the cache/prefetcher
    would), matching the conventional baseline of the microbenchmark.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    burst = config.spec.burst_bytes
    blocks = (addrs // burst) * burst
    keep = np.ones(blocks.size, dtype=bool)
    keep[1:] = blocks[1:] != blocks[:-1]
    blocks = blocks[keep]
    if is_write is not None:
        is_write = np.asarray(is_write, dtype=bool)[keep]
    mapper = AddressMapper(config)
    channel, rank, bank, row, column = mapper.decode_many(blocks)
    requests: list[Request] = []
    for i in range(blocks.size):
        kind = (RequestType.WRITE if is_write is not None and is_write[i]
                else RequestType.READ)
        requests.append(Request(
            kind=kind, rank=int(rank[i]), bank=int(bank[i]),
            row=int(row[i]), column=int(column[i]), req_id=i,
        ))
    return requests, channel


def fim_requests(
    config: DRAMConfig,
    addrs: np.ndarray,
    scatter: bool = False,
) -> tuple[list[Request], np.ndarray]:
    """Row-grouped FIM operations covering the words of ``addrs``.

    Words are bucketed by (channel, rank, bank, row) in stream order and
    emitted as GATHER/SCATTER requests of up to ``fim_items_per_op``
    offsets -- what the collection-extended MSHR would produce.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    mapper = AddressMapper(config)
    channel, rank, bank, row, column = mapper.decode_many(addrs)
    words = mapper.word_in_row_many(addrs, column)
    items = config.fim_items_per_op
    kind = RequestType.SCATTER if scatter else RequestType.GATHER
    pending: dict[tuple[int, int, int, int], list[int]] = {}
    requests: list[Request] = []
    channels: list[int] = []

    def _flush(key: tuple[int, int, int, int]) -> None:
        offsets = pending.pop(key)
        ch, ra, ba, ro = key
        requests.append(Request(
            kind=kind, rank=ra, bank=ba, row=ro,
            offsets=tuple(offsets), req_id=len(requests),
        ))
        channels.append(ch)

    for i in range(addrs.size):
        key = (int(channel[i]), int(rank[i]), int(bank[i]), int(row[i]))
        bucket = pending.setdefault(key, [])
        bucket.append(int(words[i]))
        if len(bucket) == items:
            _flush(key)
    for key in list(pending):
        _flush(key)
    return requests, np.asarray(channels, dtype=np.int64)


def random_mix(
    config: DRAMConfig,
    n_requests: int,
    seed: int,
    write_fraction: float = 0.3,
    footprint_bytes: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Random (addrs, is_write) pair over a bounded footprint."""
    rng = np.random.default_rng(seed)
    if footprint_bytes is None:
        footprint_bytes = min(config.capacity_bytes, 1 << 26)
    n_words = footprint_bytes // 8
    addrs = rng.integers(0, n_words, size=n_requests, dtype=np.int64) * 8
    is_write = rng.random(n_requests) < write_fraction
    return addrs, is_write
