"""Exact shift-parameterized binomial transforms of integer, rational,
polynomial and quadratic-field sequences.

The central operator maps a prefix (a_0, ..., a_N) to

    b_n = sum_{k=0}^{n} C(n, k) * r**(n-k) * a_k

for a shift r.  Shifts compose additively, invert at -r, and tie together
several views of the same sequence: root-shifted recurrences, moved Binet
roots, matrices shifted by r*I, generating-function substitution, and a
colored-subset count.  Everything is computed exactly; floating point is
rejected throughout.

Quick start::

    from binshift import apply_transform, family_prefix

    fib = family_prefix("fibonacci", 9)
    print(apply_transform(fib, 1).values)   # (0, 1, 3, 8, 21, ...)
"""

from .errors import (
    BinshiftError,
    DivisionByZero,
    DomainMismatch,
    EnumerationTooLarge,
    KindMismatch,
    NegativeInput,
    NonInvertibleDomain,
    NonMonic,
    OrderMismatch,
    PrefixTooShort,
    UnknownFamily,
)
from .exactnum import (
    INT,
    RAT,
    Domain,
    Poly,
    Quad,
    Scalar,
    domain_of,
    indeterminate,
    is_squarefree,
    join_domains,
    parse_scalar,
    poly_domain,
    promote,
    quad_domain,
    render_scalar,
    scalar_inv,
    one,
    unify,
    zero,
)
from .families import (
    FamilySpec,
    INTEGER_FAMILIES,
    TABLE1_GOLDEN,
    TABLE2_GOLDEN,
    family_binet_form,
    family_char_poly,
    family_names,
    family_prefix,
    family_recurrence,
    generalized_mersenne_transformed,
    get_family,
    recurrences_table,
    segment_row,
    special_identities_report,
    table_initial_segments,
    transformed_family_recurrence,
)
from .models import (
    ENUMERATION_LIMIT,
    BinetForm,
    MatrixModel,
    binet_eval,
    binet_shift,
    colored_count_bruteforce,
    companion_matrix,
    matrix_transform_eval,
    model_from_recurrence,
)
from .recurrence import (
    CharPoly,
    Recurrence,
    apply_char_operator,
    intertwine_residual,
    monic_normalized,
    second_order_template,
    shift_characteristic,
    transform_recurrence,
    unroll,
)
from .series import (
    EGF,
    OGF,
    TruncSeries,
    egf_transform,
    prefix_from_series,
    riordan_entry,
    series_compose_geometric,
    series_from_prefix,
    series_mul,
)
from .transform import (
    SequencePrefix,
    apply_transform,
    as_prefix,
    compose_transforms,
    inverse_transform,
    iterated_binomial,
)
from .verify import SUITE_NAMES, PropertyResult, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "BinshiftError",
    "DivisionByZero",
    "DomainMismatch",
    "EnumerationTooLarge",
    "KindMismatch",
    "NegativeInput",
    "NonInvertibleDomain",
    "NonMonic",
    "OrderMismatch",
    "PrefixTooShort",
    "UnknownFamily",
    # exact scalars
    "Domain",
    "INT",
    "RAT",
    "Poly",
    "Quad",
    "Scalar",
    "domain_of",
    "indeterminate",
    "is_squarefree",
    "join_domains",
    "one",
    "parse_scalar",
    "poly_domain",
    "promote",
    "quad_domain",
    "render_scalar",
    "scalar_inv",
    "unify",
    "zero",
    # prefixes and the transform
    "SequencePrefix",
    "apply_transform",
    "as_prefix",
    "compose_transforms",
    "inverse_transform",
    "iterated_binomial",
    # series
    "EGF",
    "OGF",
    "TruncSeries",
    "egf_transform",
    "prefix_from_series",
    "riordan_entry",
    "series_compose_geometric",
    "series_from_prefix",
    "series_mul",
    # recurrences
    "CharPoly",
    "Recurrence",
    "apply_char_operator",
    "intertwine_residual",
    "monic_normalized",
    "second_order_template",
    "shift_characteristic",
    "transform_recurrence",
    "unroll",
    # models
    "ENUMERATION_LIMIT",
    "BinetForm",
    "MatrixModel",
    "binet_eval",
    "binet_shift",
    "colored_count_bruteforce",
    "companion_matrix",
    "matrix_transform_eval",
    "model_from_recurrence",
    # families
    "FamilySpec",
    "INTEGER_FAMILIES",
    "TABLE1_GOLDEN",
    "TABLE2_GOLDEN",
    "family_binet_form",
    "family_char_poly",
    "family_names",
    "family_prefix",
    "family_recurrence",
    "generalized_mersenne_transformed",
    "get_family",
    "recurrences_table",
    "segment_row",
    "special_identities_report",
    "table_initial_segments",
    "transformed_family_recurrence",
    # verification
    "PropertyResult",
    "SUITE_NAMES",
    "SuiteReport",
    "run_suite",
]
