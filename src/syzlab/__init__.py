"""syzlab: executable checks for semi-flat torus-fibration constructions.

Modules
-------
charts, fields, quadrature   expression nodes, scalar fields and quadrature on charts
algebra                      bigraded dy/polyvector algebra and its operators
semiflat                     beta-structures, structure equations, Hessian
                             structures and the coupling integral
duality                      base metrics, periods, dual structures
complexes, fibre_models      integer cohomology of singular fibre models
sheaf                        local systems on the sphere and Leray tables
k3                           lattice-level K3 mirror map
scenarios, cli               JSON scenario runner and command line

Names and submodules are imported on first use (PEP 562), so the integer
layers (intlinalg, complexes, fibre_models, sheaf), k3 (its surds are its own
root type), and the cli and scenarios on those kinds run without loading
sympy or numpy.
Expressions are syzlab's own nodes (``fields``), the one exact type: every
exact check and report text runs on them, so every sampled check (charts,
fields, algebra, quadrature, semiflat, duality) loads numpy, and sympy is
imported only to convert library input and to integrate (base_potential,
action_coordinates, symmetric_class): it is the optional "symbolic" extra.
"""

import importlib

__version__ = "0.1.0"

# the singular fibre models: name -> ((b1, b2) expected, description).  Kept
# here so listing and validating models loads no integer layer.
MODEL_TABLE = {
    "M22": ((2, 2), "nodal-curve model times a circle"),
    "M12": ((1, 2), "circle times 2-torus with a point-times-torus collapse"),
    "M21": ((2, 1), "3-torus pinched along a figure eight"),
    "M11a": ((1, 1), "one-point-curve model times a circle"),
    "M11b": ((1, 1), "figure-eight pinch with one loop contracted"),
    "M01": ((0, 1), "figure-eight times circle collapsed to a point"),
    "M10": ((1, 0), "fibrewise figure-eight collapse over the last circle"),
    "M00": ((0, 0), "2-skeleton collapsed; sphere pattern"),
}

_EXPORTS = {
    "charts": ("Chart",),
    "algebra": (
        "BigradedElement", "FormElement", "bracket", "d_x", "d_x_prime", "d_y",
        "exp_nilpotent", "from_form", "phi2", "phi3", "to_form",
    ),
    "semiflat": (
        "BetaStructure", "HitchinPotential", "SemiflatReport", "YukawaFamily",
        "action_coordinates", "build_omega", "closedness_residuals", "flatness_probe",
        "hitchin", "integrability_residual", "pointwise_checks", "reglue_check",
        "structure_equations", "translate_by_section", "yukawa",
    ),
    "duality": (
        "CycleSpec", "SymTensorField", "dual_structure_check", "duality_identities",
        "mclean_metrics", "period_one_form", "symmetric_class", "wedge_with_minus_omega",
    ),
    "complexes": (
        "CellularMap", "ChainComplex", "circle_complex", "product_complex",
        "quotient_complex", "torus_complex",
    ),
    "fibre_models": (
        "CohomologyResult", "build_model", "fibre_type_report",
        "integral_cohomology", "model_cohomology",
    ),
    "sheaf": (
        "E2Table", "LocalSystemOnSphere", "duality_checks", "e2_assemble",
        "euler_characteristic", "pushforward_cohomology",
    ),
    "k3": (
        "GramLattice", "K3MirrorInput", "MirrorClasses", "double_mirror_check",
        "hyperkahler_rotate", "k3_lattice", "mirror_classes", "sublattice_quotient",
        "validate_and_align",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"fields", "quadrature", "intlinalg", "scenarios", "cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
