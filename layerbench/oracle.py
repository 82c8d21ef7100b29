"""Correctness oracle: embedding counts from the ``reference`` backend.

The brute-force ``reference`` backend takes 11-23 s per dataset for the
nine queries, so it never runs inside a timed section. Counts are keyed
by a digest of the data graph, so a table can never be applied to a
graph it was not computed for:

* ``oracle_seed7.json`` (committed) holds the counts of the datasets at
  the generator's default seed, the ones the workloads use;
* a graph the table does not know (after a change to the generator) is
  counted after the timed section and kept in ``.layerbench/oracle/``
  of the checkout, so later runs reuse the counts.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

TABLE = Path(__file__).with_name("oracle_seed7.json")


def graph_digest(graph: Any) -> str:
    """SHA-256 over a graph's CSR arrays and labels."""
    h = hashlib.sha256()
    for array in (graph.indptr, graph.indices, graph.labels):
        h.update(array.astype("<i8", copy=False).tobytes())
        h.update(b"|")
    return h.hexdigest()[:32]


def _load(path: Path) -> dict[str, dict[str, int]]:
    if not path.exists():
        return {}
    with path.open() as fh:
        return json.load(fh)


def _reference_count(graph: Any, query: str) -> int:
    from repro.ldbc.queries import get_query
    from repro.runtime.registry import REGISTRY

    return REGISTRY.run("reference", get_query(query).graph, graph).embeddings


def reference_counts(
    graphs: dict[str, Any], queries: list[str], cache_dir: Path
) -> dict[tuple[str, str], int]:
    """``(dataset, query) -> count`` for every dataset in ``graphs``.

    Counts found in the committed table or the checkout cache are
    reused; the rest are computed by the ``reference`` backend.
    """
    known: dict[str, dict[str, int]] = _load(TABLE)
    digests = {name: graph_digest(g) for name, g in graphs.items()}
    for digest in set(digests.values()):
        cached = _load(cache_dir / f"{digest}.json")
        known.setdefault(digest, {}).update(cached)

    fresh = set()
    for name in graphs:
        counts = known.setdefault(digests[name], {})
        for q in queries:
            if q not in counts:
                counts[q] = _reference_count(graphs[name], q)
                fresh.add(digests[name])
    if fresh:
        cache_dir.mkdir(parents=True, exist_ok=True)
        for digest in fresh:
            path = cache_dir / f"{digest}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(known[digest], sort_keys=True))
            os.replace(tmp, path)

    return {
        (name, q): known[digests[name]][q]
        for name in graphs for q in queries
    }
