"""4/3-approximation of the dissociation number for bipartite graphs.

Remove a maximum matching M, return a maximum independent set I of G - M.
Every such I is a dissociation set of G (each vertex keeps at most its M
partner), and diss(G) is at most 4/3 |I|; so |I| >= (3/4) diss(G).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import is_dissociation_set
from .graph import Graph, remove_edges
from .matching import Matching, maximum_independent_set_bipartite, maximum_matching

__all__ = ["ApproxCertificate", "approx_dissociation_bipartite"]


@dataclass(frozen=True)
class ApproxCertificate:
    """The matching removed and the independence number achieved on g - M."""

    matching: Matching
    alpha_g_minus_m: int


def approx_dissociation_bipartite(
    g: Graph,
) -> tuple[frozenset[int], ApproxCertificate]:
    """Dissociation set of size at least (3/4) diss(g), with certificate.

    Raises NotBipartiteError for non-bipartite input. The result is a
    deterministic function of g (matching tie-breaks are pinned).
    """
    m = maximum_matching(g)
    reduced = remove_edges(g, m.edges)
    independent = maximum_independent_set_bipartite(reduced)
    if not is_dissociation_set(g, independent):
        raise RuntimeError("independent set of g - M is not a dissociation set of g")
    return independent, ApproxCertificate(m, len(independent))
