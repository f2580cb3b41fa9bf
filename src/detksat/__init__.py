"""Deterministic k-SAT toolkit: exact chain characteristics, covering-code
local search, and branching solvers."""

__version__ = "0.1.0"

from .bounds import BoundRow, balance_check, c3, ck_recurrence, degeneration_check, nu_k
from .branching3 import (
    Br3Stats,
    PhiConfig,
    br_3,
    condition_phi,
    member,
    procedure_p_tracked,
    rule_upsilon,
    tb_set,
)
from .branching_k import (
    SolveStats,
    br_k,
    greedy_maximal_1chains,
    solve_ksat,
)
from .chains import (
    Chain,
    ChainTypeRecord,
    ChainVector,
    Instance,
    SolutionSpace,
    branch_number,
    build_chain,
    build_instance,
    canonical_realization,
    canonical_zeta,
    eta_of_zeta,
    generate_chain_types,
    overlap_symbol,
    solution_space,
    transform,
    zeta,
)
from .characteristic import (
    Characteristic,
    closed_form_1chain,
    lambda_for_zeta,
    reproduce_table2,
    solve_characteristic,
)
from .covering import (
    CodeFamily,
    CubeFactor,
    PowerFactor,
    StructuredSpace,
    build_generalized_code,
    cover_cube,
    ell_cover_spaces,
    product_code,
    verify_coverage,
)
from .formula import (
    Clause,
    Formula,
    brute_force_sat,
    clause,
    formula,
    hamming,
    parse_dimacs,
    restrict,
    satisfies,
    serialize_dimacs,
    solve_2sat,
)
from .generator import Lcg, gen_random_kcnf
from .local_search import ball_searcher, dls
from .outcomes import SolveResult
