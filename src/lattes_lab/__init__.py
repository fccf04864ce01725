"""lattes-lab: Lattes maps of elliptic curves over Q and their permutation
behavior on the projective line over prime fields.

The package builds the maps L_k with L_k(x(P)) = x([k]P) from division
polynomials, decides whether a reduced map permutes P^1(F_p) both by brute
force and by the trace criterion gcd((p+1)^2 - a_p^2, k) = 1, carries the
imaginary-quadratic and Eisenstein residue-symbol machinery behind the CM
analysis, and reproduces the bundled reference tables, including the
obstructed families where rational torsion does not explain the failure of
exceptionality.
"""

import os

# numpy's OpenBLAS starts a worker thread per extra core when numpy is
# imported, and each spins for about 0.1 s before it sleeps.  The package's
# one BLAS call, polyrat's float32 product of at most 2 x 251 by 251 x 251,
# is too small to share out, so those threads only burn CPU on every CLI
# call.  One BLAS thread starts none; a value the user set wins, and once
# numpy is loaded this changes nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .eisenstein import (
    SymbolValue,
    cubic_reciprocity_check,
    e_primary_associate,
    ed_count_check,
    eis,
    lemma_ab_witness,
    power_residue_symbol,
    primary_associate,
    sextic_reciprocity_check,
    symbol_tower_check,
)
from .elliptic import (
    CATALOG,
    CATALOG_BY_NAME,
    CatalogEntry,
    Curve,
    add_points,
    cm_model,
    count_points,
    division_poly,
    format_curve,
    frobenius_trace,
    lattes_map,
    negate_point,
    noncm_family,
    parse_curve,
    quadratic_twist,
    random_point,
    scalar_mul,
    torsion_classify_Ed,
    torsion_x_rational,
)
from .exceptionality import (
    ExceptionalityReport,
    PermutationVerdict,
    ScanRow,
    TraceCache,
    TraceRecord,
    exceptionality_report,
    frobenius_scan,
    is_cubic_residue,
    permutes,
    scan,
    strategy_primes,
    trace_record,
    twist_product_check,
    verify_d11_obstruction,
    verify_noncm_counterexample,
)
from .galois import (
    Mat2Zm,
    SubgroupSpec,
    cm_density_full,
    cm_density_subgroup,
    coprime_verdicts,
    diag_witness,
    empirical_density,
    frobenius_congruence_check,
    in_Cm,
    k2_verdict,
    torsion_roots,
)
from .intmath import is_prime, kronecker, primes_upto, sqrt_mod
from .polyrat import GF, INFINITY, Poly, QQ, RatMap, format_ratmap, rational_roots
from .quadorder import (
    QuadInt,
    QuadOrder,
    congruent,
    cornacchia,
    deuring_consistency,
    find_prime_element,
    format_quadint,
    parse_quadint,
    prime_above,
    quad_order,
    splitting_type,
)
from .tables import TABLE_IDS, check_all_tables, check_table

__version__ = "0.1.0"
