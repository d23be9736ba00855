"""4/3-approximation of the dissociation number for bipartite graphs.

Remove a maximum matching M, return a maximum independent set I of G - M.
Every such I is a dissociation set of G (each vertex keeps at most its M
partner), and diss(G) is at most 4/3 |I|; so |I| >= (3/4) diss(G). M
certifies the bound: |I| is alpha(G - M).
"""

from __future__ import annotations

from .exact import is_dissociation_set
from .graph import Graph, remove_edges
from .matching import Matching, maximum_independent_set_bipartite, maximum_matching

__all__ = ["approx_dissociation_bipartite"]


def approx_dissociation_bipartite(g: Graph) -> tuple[frozenset[int], Matching]:
    """Dissociation set of size at least (3/4) diss(g), and the maximum
    matching M removed: the set is a maximum independent set of g - M.

    Raises NotBipartiteError for non-bipartite input. The result is a
    deterministic function of g (matching tie-breaks are pinned).
    """
    m = maximum_matching(g)
    reduced = remove_edges(g, m.edges)
    independent = maximum_independent_set_bipartite(reduced)
    if not is_dissociation_set(g, independent):
        raise RuntimeError("independent set of g - M is not a dissociation set of g")
    return independent, m
