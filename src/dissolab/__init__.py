"""dissolab: dissociation-number invariants, approximation, recognition,
and hardness gadgets, with exhaustive oracles for desk-scale verification."""

from .graph import (
    Graph,
    NotBipartiteError,
    ParseError,
    SplitMix64,
    new_graph,
    bipartition,
    remove_edges,
    parse_edge_list,
    render_edge_list,
    to_dot,
    random_bipartite,
    random_graph,
)
from .matching import (
    Matching,
    matching_from_edges,
    is_matching,
    is_induced_matching,
    maximum_matching,
    koenig_cover,
    maximum_independent_set_bipartite,
    has_augmenting_path,
)
from .exact import (
    InstanceTooLarge,
    InvariantReport,
    is_dissociation_set,
    is_independent_set,
    dissociation_number_exact,
    independence_number_exact,
    induced_matching_number_exact,
    diss_via_induced_matchings,
    check_inequality_chain,
    matching_number_bruteforce,
)
from .twosat import (
    TwoSatFormula,
    solve_2sat,
    satisfies,
    cnf_satisfiable,
)
from .recognizer import (
    SixClass,
    AlternatingDecomposition,
    NotExtremalReason,
    NotExtremal,
    Extremal,
    RecognitionOutcome,
    decompose_alternating,
    check_component_lengths,
    label_path_components,
    check_path_path_edges,
    build_2sat,
    recognize_extremal,
)
from .approx import approx_dissociation_bipartite
from .reductions import (
    CnfFormula,
    GadgetInstance,
    cnf_formula,
    parse_cnf,
    gadget_diss_2alpha,
    gadget_diss_alpha,
    gadget_diss_alpha_plus_nus,
    gadget_join_kn,
    render_gadget,
    parse_gadget_metadata,
)

__version__ = "0.1.0"
