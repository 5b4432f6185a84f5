"""Vectorised pre-passes for :mod:`repro.sim.kernel`: a
:class:`~repro.sim.kernel.CompiledTrace`'s structure columns, and the
accesses a :class:`~repro.sim.kernel.ReuseOracle` must simulate.

The kernel's only pre-pass: :mod:`repro.sim.kernel` calls these two
functions and nothing else imports the module.  It is allow-listed by
the ``allocation-free-run-kernel`` lint rule -- numpy's array ops
allocate internally, but a pre-pass runs once per compiled chunk or
oracle, not per access.

The job: given the freshly-compiled positions ``[start, limit)`` of a
trace, append (as raw ``int64`` bytes onto its ``array('q')`` columns)
``prev[i]`` (position of the previous occurrence of
``vpns[i]``; -1 if first) and ``nxt[i]`` (position of the next
occurrence; ``inf`` sentinel if none yet), extend the per-page ``occ``
occurrence lists, and patch ``nxt`` entries of *earlier* extensions
whose page reappears in this one.
Within the extension the linking is a stable argsort over vpns -- equal
pages end up adjacent in trace order, so shifted equality masks recover
every (previous, next) pair without a Python-level loop.  Only the
per-distinct-page work (occurrence-list extension and cross-extension
stitching through ``_last_pos``) iterates in Python, over groups rather
than events.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Tuple

import numpy as np


def extend_structure(trace, start: int, limit: int, inf: int) -> None:
    """Append structure columns for positions ``[start, limit)``."""
    count = limit - start
    vpns = np.frombuffer(trace.vpns, dtype=np.int64, count=limit)[start:limit]

    # Stable sort groups equal vpns while preserving trace order inside
    # each group, so neighbours in sorted order with equal vpns are
    # consecutive occurrences of the same page.
    order = np.argsort(vpns, kind="stable")
    sorted_vpns = vpns[order]
    positions = order.astype(np.int64) + start
    same = sorted_vpns[1:] == sorted_vpns[:-1]

    prev_arr = np.full(count, -1, dtype=np.int64)
    nxt_arr = np.full(count, inf, dtype=np.int64)
    prev_arr[order[1:][same]] = positions[:-1][same]
    nxt_arr[order[:-1][same]] = positions[1:][same]

    first_mask = np.empty(count, dtype=bool)
    first_mask[0] = True
    first_mask[1:] = ~same
    group_starts = np.flatnonzero(first_mask)
    group_ends = np.append(group_starts[1:], count)

    # Per-group (per distinct page) work: extend its occurrence list and
    # stitch this extension's first occurrence to the chain tail left by
    # an earlier extension.
    last_pos = trace._last_pos
    occ = trace.occ
    nxt_col = trace.nxt
    group_vpns = sorted_vpns[group_starts].tolist()
    heads = positions[group_starts].tolist()
    tails = positions[group_ends - 1].tolist()
    pos_bytes = positions.tobytes()
    first_indices = order[first_mask]
    for which, (gs, ge) in enumerate(
        zip(group_starts.tolist(), group_ends.tolist())
    ):
        vpn = group_vpns[which]
        earlier = last_pos.get(vpn, -1)
        if earlier >= 0:
            prev_arr[first_indices[which]] = earlier
            nxt_col[earlier] = heads[which]
        last_pos[vpn] = tails[which]
        chain = occ.get(vpn)
        if chain is None:
            occ[vpn] = chain = array("q")
        chain.frombytes(pos_bytes[gs * 8:ge * 8])

    trace.prev.frombytes(prev_arr.tobytes())
    nxt_col.frombytes(nxt_arr.tobytes())


#: Stream positions one :func:`lru_changes` step compares at once, so its
#: temporaries stay near 200 KiB however long a chunk is (16x that cost
#: RSA-only Figure 7 cells 0.65 MiB of peak resident set, for no speed).
SPAN = 1 << 12


def lru_changes(
    chunks: Iterable[Tuple[array, int]], nsets: int
) -> Iterator[Tuple[int, memoryview, memoryview]]:
    """For each ``(column, offset)`` chunk of a key stream -- keys
    ``column[i] + offset``, non-negative, in set ``key % nsets`` --
    its length and the positions in it, with their keys, at which a
    per-set LRU stack over the stream can change.

    Every access but an MRU re-touch -- one whose set's previous access
    was to the same key -- may reorder its set, miss or evict; a
    re-touch is a hit that moves nothing, so :class:`ReuseOracle`
    skips it without looking.  Like the structure pre-pass, a stable
    argsort by set puts each set's accesses side by side in stream
    order, so one shifted comparison finds the re-touches; each set's
    latest key carries from one :data:`SPAN` (and chunk) to the next.
    Positions and keys are views of ``int64`` arrays, positions
    ascending, whose items iterate as Python ints.
    """
    latest = np.full(nsets, -1, dtype=np.int64)
    for column, offset in chunks:
        stream = np.frombuffer(column, dtype=np.int64)
        if offset:
            stream = stream + offset
        keep = np.empty(len(stream), dtype=bool)
        for low in range(0, len(stream), SPAN):
            span = stream[low:low + SPAN]
            sets = span % nsets
            order = np.argsort(sets, kind="stable")
            grouped = span[order]
            grouped_sets = sets[order]
            # In set order, an access's predecessor in its set is the one
            # before it, or -- heading its set's group -- the set's
            # latest key from earlier spans.
            heads = np.ones(len(span), dtype=bool)
            heads[1:] = grouped_sets[1:] != grouped_sets[:-1]
            before = np.empty_like(grouped)
            before[1:] = grouped[:-1]
            before[heads] = latest[grouped_sets[heads]]
            keep[low + order] = grouped != before
            tails = np.roll(heads, -1)
            latest[grouped_sets[tails]] = grouped[tails]
        positions = np.flatnonzero(keep)
        yield len(stream), memoryview(positions), memoryview(stream[positions])
