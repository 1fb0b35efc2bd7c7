"""The public API of ``deltamat``: the exported names and the public attributes of
each exported class.  A change to either shows here as a diff."""

import dataclasses

import deltamat

EXPORTED = [
    "ActivityRecord", "AdmissibleSet", "AxiomReport", "ComplexReport", "DeltaMatroid", "FVector",
    "Gf2SymMatrix", "GuardLimitError", "InertiaTriple", "LorentzianReport", "Matroid", "MultiPoly",
    "RankTable", "SignedPermutation", "ValidationReport", "activity", "activity_expansion",
    "activity_zero_complex", "check_g_axioms", "check_h_axioms", "combine", "conjecture_check",
    "delta_from_rank", "deltamatroid", "dm_from_gf2", "dm_from_matroid", "efls_gen_poly",
    "enumerate_admissible", "env_project", "enveloping_check", "enveloping_search", "example15_rank",
    "example15_upoly", "greedy_check", "ground", "hessian_inertia", "indep_gen_poly",
    "independence_fvector", "interlace", "invariants", "is_lorentzian", "lorentzian", "lp", "matroid",
    "mconvex_support", "poly", "polytope_membership", "pure_o_inequalities", "rank_generating", "rankfn",
    "two_var_ulc_check", "upoly", "upper_matroid", "validate_matroid",
]  # fmt: skip

CLASS_ATTRIBUTES = {
    "ActivityRecord": ["a", "active", "set"],
    "AdmissibleSet": [
        "bar", "elements", "from_elements", "is_subset", "n", "neg", "pos", "render", "size", "sort_key",
        "underline", "union", "vector", "with_element",
    ],
    "AxiomReport": ["even", "from_violations", "passed", "violations"],
    "ComplexReport": ["fvector", "pure"],
    "DeltaMatroid": [
        "feasible", "feasible_sets", "from_feasible_sets", "from_signed_lists", "g", "h_table",
        "independents", "is_even", "is_independent", "lattice_point_test", "loops_coloops", "minor", "n",
        "product", "rank", "rank_table", "twist", "validate",
    ],
    "FVector": ["counts", "from_sizes", "render"],
    "Gf2SymMatrix": ["from_lists", "n", "rows"],
    "GuardLimitError": [],
    "InertiaTriple": ["negative", "positive", "render", "zero"],
    "LorentzianReport": [
        "hessian_ok", "hessian_witness", "homogeneous", "mconvex", "mconvex_witness", "nonneg_coeffs",
        "passed", "render",
    ],
    "Matroid": ["bases", "ground", "is_independent", "pair_partition", "plain", "rank", "rank_of", "signed", "uniform"],
    "MultiPoly": [
        "coefficient", "coefficient_list", "constant", "degree", "evaluate", "from_json_obj",
        "is_homogeneous", "is_zero", "json_obj", "multiaffine_part", "sorted_terms", "substitute", "terms",
        "text", "var", "variables", "zero",
    ],
    "RankTable": ["items", "n", "values"],
    "SignedPermutation": [
        "apply", "bar_swap", "compose", "identity", "image", "inverse", "map_element", "n",
    ],
    "ValidationReport": ["message", "method", "ok", "witness"],
}  # fmt: skip


def _public_attributes(cls):
    """The names a deltamat class defines itself (methods, properties, slots, fields), without
    the ones inherited from builtins, which vary between Python versions."""
    names = {name for k in cls.__mro__ if k.__module__.startswith("deltamat") for name in vars(k)}
    if dataclasses.is_dataclass(cls):
        names.update(f.name for f in dataclasses.fields(cls))
    return sorted(name for name in names if not name.startswith("_"))


def test_exported_names_are_pinned():
    assert sorted(deltamat.__all__) == EXPORTED


def test_exported_class_attributes_are_pinned():
    classes = {name: getattr(deltamat, name) for name in EXPORTED if isinstance(getattr(deltamat, name), type)}
    assert {name: _public_attributes(cls) for name, cls in classes.items()} == CLASS_ATTRIBUTES
