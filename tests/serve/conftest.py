"""Shared fixtures for the serve tests."""

import pytest

from repro.graph.modifiers import EdgeInsert
from repro.serve.registry import build_graph


@pytest.fixture
def clean_mods():
    """``clean_mods(spec, n, start=0)``: ``n`` insert-only edges absent
    from the graph ``spec`` builds, never repeating.

    Replay cost accounting is exact for such poison-free streams: a
    degraded window's failed forward attempts are real work that
    recovery and failover intentionally do not re-run.
    """

    def make(spec, n, start=0):
        nv = spec["args"]["num_vertices"]
        graph = build_graph(spec)
        out, seen, candidate = [], set(), start
        while len(out) < n:
            u = candidate % nv
            v = (u + 17 + candidate // nv) % nv
            candidate += 1
            key = (min(u, v), max(u, v))
            if u == v or key in seen or graph.has_edge(u, v):
                continue
            seen.add(key)
            out.append(EdgeInsert(u=u, v=v))
        return out

    return make
