"""starchain: exact chain-level computer algebra for deformation quantization.

Star products on formal Weyl algebras and quantized tori, cyclic and
group-cohomology complexes of their crossed products, trace cocycles and
characteristic-class series, all over an exact cyclotomic scalar tower.
"""

__version__ = "0.1.0"

from .scalars import (
    FieldElement,
    HbarLaurent,
    ULaurent,
    LevelOverflow,
    MAX_CYCLOTOMIC_LEVEL,
    to_text,
)
from .groups import CyclicGroup
from .weyl import WeylElement, Derivation
from .torus import (
    TorusElement,
    CrossedElement,
    TranslationAction,
    TorusForm,
    WeylSection,
)
from .cyclic import (
    ChainContext,
    CyclicChain,
    EquivariantChain,
    homogeneous_projection,
    homogeneous_to_coinvariants,
    coinvariants_to_homogeneous,
    equivariant_embed,
    q_map,
    alexander_whitney,
    d_map,
    chern_coefficients,
    chern_word_chain,
    chern_character,
)
from .forms import (
    FormalForm,
    hkr,
    j_shift,
    mu_normalization_chain,
)
from .group_coh import (
    GroupCochain,
    EquivariantClassCocycle,
    TraceFunctional,
    form_pullback,
    equivariant_theta,
    equivariant_ahat,
    cap,
    word_to_form,
    trace_pair,
    phi_pair,
)
from .lie_gf import (
    TRACE,
    LieCochain,
    lie_differential,
    theta_hat_cochain,
    InvariantConnection,
    gf_form,
    a_hat_series,
    gelfand_fuks_equivariant,
    i_xi,
)
from .scenarios import (
    CheckRecord,
    ConfigError,
    Report,
    ScenarioConfig,
    available_suites,
    emit_fixtures,
    emit_report,
    index_check,
    run_suite,
)

__all__ = [
    "FieldElement",
    "HbarLaurent",
    "ULaurent",
    "LevelOverflow",
    "MAX_CYCLOTOMIC_LEVEL",
    "to_text",
    "CyclicGroup",
    "WeylElement",
    "Derivation",
    "TorusElement",
    "CrossedElement",
    "TranslationAction",
    "TorusForm",
    "WeylSection",
    "ChainContext",
    "CyclicChain",
    "EquivariantChain",
    "homogeneous_projection",
    "homogeneous_to_coinvariants",
    "coinvariants_to_homogeneous",
    "equivariant_embed",
    "q_map",
    "alexander_whitney",
    "d_map",
    "chern_coefficients",
    "chern_word_chain",
    "chern_character",
    "FormalForm",
    "hkr",
    "j_shift",
    "mu_normalization_chain",
    "GroupCochain",
    "EquivariantClassCocycle",
    "TraceFunctional",
    "form_pullback",
    "equivariant_theta",
    "equivariant_ahat",
    "cap",
    "word_to_form",
    "trace_pair",
    "phi_pair",
    "TRACE",
    "LieCochain",
    "lie_differential",
    "theta_hat_cochain",
    "InvariantConnection",
    "gf_form",
    "a_hat_series",
    "gelfand_fuks_equivariant",
    "i_xi",
    "CheckRecord",
    "ConfigError",
    "Report",
    "ScenarioConfig",
    "available_suites",
    "emit_fixtures",
    "emit_report",
    "index_check",
    "run_suite",
    "__version__",
]
