"""specklewalk: seeded simulation of single-photon wavefront shaping.

Pipeline: draw a random scattering medium, measure its transfer matrix
by phase-stepping interferometry, compute phase-only conjugation masks
that focus a heralded photon into one or two chosen output modes,
simulate coincidence counting, and certify the entanglement of the
resulting two-mode single-photon state through its concurrence.
"""

__version__ = "0.10.0"

from .errors import (
    ConfigError,
    DegenerateFieldError,
    DegenerateTargetError,
    DimensionError,
    FormatError,
    StatisticsError,
)
from .medium import (
    MediumConfig,
    ScatteringMatrix,
    generate_medium,
    load_smx,
    propagate,
    save_smx,
    speckle_contrast,
)
from .slm import (
    apply_mask,
    canonicalize_phases,
    conjugate_fields,
    conjugate_phases,
    dual_target_weights,
    enhancement,
    load_mask_csv,
    random_mask,
    save_mask_csv,
)
from .calibration import CalibrationConfig, SmEstimate, measure_sm, sm_fidelity
from .quantum import (
    CountRecord,
    SourceConfig,
    TwoModeState,
    estimate_state,
    mode_probabilities,
    simulate_counts,
)
from .tomography import (
    FringeScan,
    VisibilityFit,
    coherence_from_visibility,
    concurrence,
    concurrence_error,
    concurrence_threshold,
    fit_visibility,
    poisson_upper_limit,
    positivity_confidence,
    scan_fringes,
)
from .harness import (
    ExperimentConfig,
    NoiseConfig,
    RunReport,
    load_config,
    parse_config_text,
    config_to_dict,
    config_to_ini,
    run,
    run_focus,
    run_fringes,
    run_full,
    run_scan,
    run_tomo,
    target_rows,
)

__all__ = [name for name in dir() if not name.startswith("_")]
