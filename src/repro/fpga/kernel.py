"""The FAST kernel modules (Algorithms 4-8), chunk-vectorised.

The paper decomposes matching into *Generator*, *Visited Validator*,
*Edge Validator* and *Synchronizer* so that each step processes
thousands of partial results per round with no loop-carried
dependencies. This module implements those four steps over numpy
arrays, one call per *chunk* of consecutive rounds (spanning any
number of buffer windows) rather than one per ``N_o`` round, and
splits the work in two:

*Functional* - what the card computes. A chunk is a contiguous range
of a depth's *extension stream*: partial ``j`` of the depth's *feed*
(the partials handed down by one chunk one depth up) owns extensions
``[P[j], P[j + 1])``, where ``P`` is the prefix sum of its anchor-row
lengths.

* :func:`generate` expands an extension range through the anchor
  adjacency rows (Algorithm 5), returning only the parent index and
  the new candidate of each extension - no full rows;
* :func:`visited_validate` marks injectivity violations (Algorithm 6);
* :func:`edge_validate` probes CST candidate edges for every
  previously-matched non-anchor neighbour (Algorithm 7);
* :func:`synchronize` gathers full partials for the extensions both
  validators passed, and for those only (Algorithm 8).

*Accounting* - when the card computes it. :func:`round_schedule`
replays the deepest-first rounds of Section VI-B from ``P`` alone: a
depth buffer is refilled only once drained, so it receives one
*window* (one round's at most ``N_o`` survivors) at a time and every
round pops a contiguous ``N_o``-extension slice of that window's
stream. Each depth is therefore a FIFO and its rounds, in DFS order,
are its extension stream cut at window boundaries and every ``N_o``
extensions inside a window. Per-round ``N``, ``M`` and pops - all
that Equations 2-4 consume - follow from ``P`` with one vectorised
``searchsorted``, independent of how the stream is chunked.

Everything is positional: a set of partial results is stored column
by column, one array of candidate *positions* per matched query vertex
in matching order; a data-vertex id is read through the column's
candidate set when the visited check needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import DeviceError, QueryError
from repro.cst.structure import CST
from repro.query.ordering import validate_order
from repro.query.query_graph import QueryGraph


@dataclass(frozen=True)
class MatchPlan:
    """Static per-depth expansion metadata for one (query, order) pair.

    For step ``i`` (matching ``order[i]``): ``anchor_vertex[i]`` is the
    earliest-matched query neighbour whose CST adjacency supplies the
    extension candidates; ``anchor_col[i]`` its column in the partial-
    result matrix; ``checks[i]`` the remaining matched neighbours as
    ``(query_vertex, column)`` pairs, each of which costs one edge-
    validation task per new partial result.
    """

    order: tuple[int, ...]
    anchor_vertex: tuple[int, ...]
    anchor_col: tuple[int, ...]
    checks: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def num_steps(self) -> int:
        return len(self.order)

    def tasks_per_partial(self, step: int) -> int:
        """Edge-validation tasks generated per partial at ``step``."""
        return len(self.checks[step])


def build_plan(query: QueryGraph, order: tuple[int, ...]) -> MatchPlan:
    """Derive the :class:`MatchPlan` for a connected matching order."""
    validate_order(query, order)
    rank = {u: i for i, u in enumerate(order)}
    anchor_vertex = [-1]
    anchor_col = [-1]
    checks: list[tuple[tuple[int, int], ...]] = [()]
    for i, u in enumerate(order):
        if i == 0:
            continue
        matched = [w for w in query.neighbors(u) if rank[w] < i]
        if not matched:
            raise QueryError("order is not connected")  # pragma: no cover
        anchor = min(matched, key=rank.__getitem__)
        anchor_vertex.append(anchor)
        anchor_col.append(rank[anchor])
        checks.append(
            tuple((w, rank[w]) for w in matched if w != anchor)
        )
    return MatchPlan(
        order=tuple(order),
        anchor_vertex=tuple(anchor_vertex),
        anchor_col=tuple(anchor_col),
        checks=tuple(checks),
    )


def _gather_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + lens[i])`` segments."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = np.concatenate(
        ([np.int64(0)], np.cumsum(lens[:-1], dtype=np.int64))
    )
    return np.repeat(starts - shift, lens) + np.arange(total, dtype=np.int64)


def round_schedule(
    ext_prefix: np.ndarray, windows: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replay the ``N_o``-round schedule of one depth's feed.

    ``ext_prefix`` is ``P`` (length ``F + 1``, ``P[0] == 0``) over the
    feed's ``F`` partials and ``windows`` the feed-row boundaries of
    its buffer windows (length ``W + 1``, ``windows[0] == 0``). Returns
    ``(ext_end, n_new, n_pop, round_offsets)``: per round, in DFS
    order, the end of its extension slice, ``|P_o|`` and the buffer
    entries it fully consumed, plus each window's round range
    ``round_offsets[w]:round_offsets[w + 1]``.

    A window of ``T`` extensions takes ``ceil(T / N_o)`` rounds, or
    one round if all its rows are empty; an empty window takes none.
    An entry is consumed by the round whose slice reaches its row end
    (zero-length rows included), and the window's last round drains
    the buffer.
    """
    if budget < 1:
        raise DeviceError("generator budget must be >= 1")
    rows_end = ext_prefix[1:]
    w_start = ext_prefix[windows[:-1]]
    w_end = ext_prefix[windows[1:]]
    per_window = np.where(
        np.diff(windows) > 0,
        np.maximum(1, -(-(w_end - w_start) // budget)),
        0,
    )
    round_offsets = np.concatenate(([0], np.cumsum(per_window)))
    owner = np.repeat(np.arange(len(per_window)), per_window)
    k = np.arange(round_offsets[-1]) - round_offsets[owner]
    start = w_start[owner] + k * budget
    ext_end = np.minimum(start + budget, w_end[owner])
    row_end = np.where(
        k == per_window[owner] - 1,
        windows[owner + 1],
        np.searchsorted(rows_end, ext_end, side="right"),
    )
    n_pop = np.diff(row_end, prepend=0)
    return ext_end, ext_end - start, n_pop, round_offsets


def generate(
    cst: CST,
    plan: MatchPlan,
    step: int,
    anchor_pos: np.ndarray,
    ext_prefix: np.ndarray,
    ext_lo: int,
    ext_hi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 5: expand extensions ``[ext_lo, ext_hi)`` of a feed.

    ``anchor_pos`` is the feed's anchor column (the candidate position
    of ``plan.anchor_vertex[step]`` in every partial) and
    ``ext_prefix`` its ``P``. A slice may start or end inside a
    partial's anchor row - exactly where a round budget cuts it.
    Returns ``(parent, new_pos, new_ids)``: each extension's feed row
    and the position and data-vertex id of its new candidate.
    """
    u = plan.order[step]
    adj = cst.adjacency[(plan.anchor_vertex[step], u)]
    lo = int(np.searchsorted(ext_prefix, ext_lo, side="right")) - 1
    hi = int(np.searchsorted(ext_prefix, ext_hi, side="left"))
    row_lo = np.maximum(ext_prefix[lo:hi], ext_lo)
    lens = np.minimum(ext_prefix[lo + 1: hi + 1], ext_hi) - row_lo
    starts = adj.indptr[anchor_pos[lo:hi]] + (row_lo - ext_prefix[lo:hi])
    new_pos = adj.targets[_gather_ranges(starts, lens)]
    parent = np.repeat(np.arange(lo, hi, dtype=np.int64), lens)
    return parent, new_pos, cst.candidates[u][new_pos]


def visited_validate(
    cst: CST,
    plan: MatchPlan,
    pos: list[np.ndarray],
    parent: np.ndarray,
    new_ids: np.ndarray,
) -> np.ndarray:
    """Algorithm 6: one bit per extension - new vertex not yet used.

    Each matched column's data-vertex ids are read through its
    candidate set; the per-column comparison is the simulated form of
    the array-partitioned parallel compare against every element of
    the partial.
    """
    ok = np.ones(len(parent), dtype=bool)
    for u, column in zip(plan.order, pos):
        ok &= cst.candidates[u][column[parent]] != new_ids
    return ok


def edge_validate(
    cst: CST,
    plan: MatchPlan,
    step: int,
    pos: list[np.ndarray],
    parent: np.ndarray,
    new_pos: np.ndarray,
    alive: np.ndarray,
) -> np.ndarray:
    """Algorithm 7: the extensions among ``alive`` (ascending indices)
    whose new candidate is CST-adjacent to every previously-matched
    non-anchor neighbour.

    Every check is a batched O(1) probe into the (BRAM array-
    partitioned) adjacency of the corresponding query edge; a partial
    fails if any of its tasks fails, so later checks probe only the
    partials every earlier one passed.
    """
    u = plan.order[step]
    for w, col in plan.checks[step]:
        ok = cst.adjacency[(u, w)].contains_batch(
            new_pos[alive], pos[col][parent[alive]]
        )
        alive = alive[ok]
    return alive


def synchronize(
    pos: list[np.ndarray],
    parent: np.ndarray,
    new_pos: np.ndarray,
    kept: np.ndarray,
) -> list[np.ndarray]:
    """Algorithm 8: gather full partials for the ``kept`` extensions.

    Rows are gathered column by column for the survivors only; the
    engine routes them to the next depth or to the result store.
    """
    sel = parent[kept]
    return [column[sel] for column in pos] + [new_pos[kept]]
