"""The flat ``binshift`` namespace: one name per submodule export."""

import importlib

import binshift

SUBMODULES = (
    "errors",
    "exactnum",
    "families",
    "models",
    "recurrence",
    "series",
    "transform",
    "verify",
)

# The package API before it was derived from the submodules' ``__all__``:
# every name here stays exported.
REFERENCE_NAMES = (
    "__version__",
    # errors
    "BinshiftError", "DivisionByZero", "DomainMismatch", "EnumerationTooLarge",
    "KindMismatch", "NegativeInput", "NonInvertibleDomain", "NonMonic",
    "OrderMismatch", "PrefixTooShort", "UnknownFamily",
    # exact scalars
    "Domain", "INT", "RAT", "Poly", "Quad", "Scalar", "domain_of", "indeterminate",
    "is_squarefree", "join_domains", "one", "parse_scalar", "poly_domain", "promote",
    "quad_domain", "render_scalar", "scalar_inv", "unify", "zero",
    # prefixes and the transform
    "SequencePrefix", "apply_transform", "as_prefix", "compose_transforms",
    "inverse_transform", "iterated_binomial",
    # series
    "EGF", "OGF", "TruncSeries", "egf_transform", "prefix_from_series",
    "riordan_entry", "series_compose_geometric", "series_from_prefix", "series_mul",
    # recurrences
    "CharPoly", "Recurrence", "apply_char_operator", "intertwine_residual",
    "monic_normalized", "second_order_template", "shift_characteristic",
    "transform_recurrence", "unroll",
    # models
    "ENUMERATION_LIMIT", "BinetForm", "MatrixModel", "binet_eval", "binet_shift",
    "colored_count_bruteforce", "companion_matrix", "matrix_transform_eval",
    "model_from_recurrence",
    # families
    "FamilySpec", "INTEGER_FAMILIES", "TABLE1_GOLDEN", "TABLE2_GOLDEN",
    "family_binet_form", "family_char_poly", "family_names", "family_prefix",
    "family_recurrence", "generalized_mersenne_transformed", "get_family",
    "recurrences_table", "segment_row", "special_identities_report",
    "table_initial_segments", "transformed_family_recurrence",
    # verification
    "PropertyResult", "SUITE_NAMES", "SuiteReport", "run_suite",
)  # fmt: skip


def _modules():
    return [importlib.import_module(f"binshift.{name}") for name in SUBMODULES]


def test_no_duplicate_names():
    assert len(binshift.__all__) == len(set(binshift.__all__))
    assert len(REFERENCE_NAMES) == len(set(REFERENCE_NAMES)) == 84


def test_all_is_version_plus_submodule_exports():
    expected = ["__version__"]
    for module in _modules():
        expected.extend(module.__all__)
    assert binshift.__all__ == expected


def test_names_bound_to_their_defining_objects():
    for module in _modules():
        for name in module.__all__:
            assert getattr(binshift, name) is getattr(module, name), name


def test_reference_names_kept():
    assert not set(REFERENCE_NAMES) - set(binshift.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from binshift import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(binshift.__all__)
    assert namespace["__version__"] == binshift.__version__
