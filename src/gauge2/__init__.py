"""gauge2: exact 2-group/torsor algebra and numerical surface holonomy.

Two layers share one crossed-module interface:

* exact: finite-table crossed modules, 2-group arithmetic, and the
  regular-model 2-torsor calculus with exhaustive law checking;
* numerical: matrix crossed-module families with local 2-connection data
  over a chart, 1- and 2-transport, curvature and 3-curvature, gauge
  morphisms, and verifiers for the surface Stokes identities.
"""

from .errors import (BranchError, ComposabilityError, ConfigError,
                     DomainError, EquivarianceError, EvalError, Gauge2Error,
                     MathDomainError, MembershipError, ParseError,
                     SamplingError, StructureError, UnboundVariableError)
from .dsl import Expr, evaluate, parse
from .groups import FiniteGroup, MatrixGroup, cyclic_group
from .twogroup import (CrossedModule, TwoGroupElement, check_crossed_module,
                       interchange_defect, two_group_compose,
                       two_group_multiply, whisker_scalar)
from .lie2 import LieAlgebra, LieTwoAlgebra
from .families import (FAMILY_NAMES, MatrixFamily, finite_crossed_module,
                       finite_demo_module, matrix_family)
from .torsor import (EtaH, Torsor2, TorsorMorphism, eta_to_etaH, etaH_to_eta,
                     horizontal_compose_etaH, selftest, torsor_divide,
                     vertical_compose_etaH)
from .geometry import (Chart, ParamMap, reparameterize, source_path,
                       straight_path, target_path)
from .fields import CoefficientField, GroupValuedField, chart_grid, group_field
from .forms import (TransitionData, TwoConnection, check_local_data,
                    fake_flatness_residual)
from .transport import (ambrose_singer_check, holonomy2_H, horizontal_lift,
                        path_ordered_exp, reconstruct_A, reconstruct_B,
                        surface_transport, verify_higher_stokes,
                        verify_nonabelian_stokes)
from .morphisms import (OneMorphism, TwoMorphismA, apply_twomorphism,
                        compose_onemorphisms, gauge_transform,
                        horizontal_compose_twomorphisms, rho_from_phi,
                        vertical_compose_twomorphisms,
                        verify_onemorphism_compat)

__version__ = "0.1.0"
