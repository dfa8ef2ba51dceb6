"""Scale-by-scale estimation of regularity moduli of set-valued maps,
primal-dual subregularity constants, and constructive destabilizing
perturbations with machine-checkable certificates.
"""

from .geometry import ScaleLadder, derive_seed, norming_functional
from .mappings import GraphPoint, SetValuedMap, catalog, resolve_map_spec
from .moduli import (
    Estimate,
    check_relations,
    eckart_young_check,
    estimate_all_constants,
    estimate_clm,
    estimate_lip,
    estimate_rg,
    estimate_srg,
    estimate_ssrg,
)
from .perturb import (
    Perturbation,
    WitnessError,
    build_fclm_perturbation,
    build_lip_perturbation,
    build_ss_perturbation,
    build_ssr_destabilizer,
    extract_witness,
    firmly_calm_test,
    load_perturbation,
    verify_builder,
)
from .variational import CoderivElement, positive_homogeneity_test, semismooth_star_test

__version__ = "0.1.0"

__all__ = [
    "ScaleLadder", "derive_seed", "norming_functional",
    "GraphPoint", "SetValuedMap", "catalog", "resolve_map_spec",
    "Estimate", "check_relations", "eckart_young_check", "estimate_all_constants",
    "estimate_clm", "estimate_lip", "estimate_rg", "estimate_srg", "estimate_ssrg",
    "Perturbation", "WitnessError", "build_fclm_perturbation",
    "build_lip_perturbation", "build_ss_perturbation", "build_ssr_destabilizer",
    "extract_witness", "firmly_calm_test", "load_perturbation", "verify_builder",
    "CoderivElement", "positive_homogeneity_test", "semismooth_star_test",
    "__version__",
]
