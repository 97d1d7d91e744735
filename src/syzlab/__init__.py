"""syzlab: executable checks for semi-flat torus-fibration constructions.

Modules
-------
charts, fields, quadrature   symbolic scalar fields and quadrature on charts
algebra                      bigraded dy/polyvector algebra and its operators
semiflat                     beta-structures and their structure equations
duality                      base metrics, periods, dual structures, coupling
complexes, fibre_models      integer cohomology of singular fibre models
sheaf                        local systems on the sphere and Leray tables
k3                           lattice-level K3 mirror map
scenarios, cli               JSON scenario runner and command line
"""

__version__ = "0.1.0"

from .charts import Chart
from .algebra import (
    BigradedElement,
    FormElement,
    bracket,
    d_x,
    d_x_prime,
    d_y,
    exp_nilpotent,
    from_form,
    phi2,
    phi3,
    to_form,
)
from .semiflat import (
    BetaStructure,
    SemiflatReport,
    action_coordinates,
    build_omega,
    closedness_residuals,
    flatness_probe,
    integrability_residual,
    pointwise_checks,
    reglue_check,
    structure_equations,
    translate_by_section,
)
from .duality import (
    CycleSpec,
    HitchinPotential,
    SymTensorField,
    YukawaFamily,
    dual_structure_check,
    duality_identities,
    hitchin,
    mclean_metrics,
    period_one_form,
    symmetric_class,
    wedge_with_minus_omega,
    yukawa,
)
from .complexes import (
    CellularMap,
    ChainComplex,
    circle_complex,
    product_complex,
    quotient_complex,
    torus_complex,
)
from .fibre_models import (
    CohomologyResult,
    build_model,
    fibre_type_report,
    integral_cohomology,
    model_cohomology,
)
from .sheaf import (
    E2Table,
    LocalSystemOnSphere,
    duality_checks,
    e2_assemble,
    euler_characteristic,
    pushforward_cohomology,
)
from .k3 import (
    GramLattice,
    K3MirrorInput,
    MirrorClasses,
    double_mirror_check,
    hyperkahler_rotate,
    k3_lattice,
    mirror_classes,
    sublattice_quotient,
    validate_and_align,
)
