"""Mixture sequential changepoint detection for general stochastic models.

Library + CLI for the mixture Shiryaev (MS) and mixture Shiryaev-Roberts
(MSR) detection rules: log-domain recursive statistics over a discrete
mixing grid of post-change parameters, exact threshold calibration from
false-alarm bounds or Bayes delay costs, built-in observation models
(Gaussian i.i.d. mean shift, multichannel signals in AR noise, two-state
HMM), and a reproducible Monte Carlo harness for operating characteristics.
"""

__version__ = "0.1.0"

from .calibration import (
    ThresholdSpec,
    bayes_threshold,
    d_constant,
    fixed_threshold,
    integrated_cost_proxy,
    ms_threshold,
    msr_threshold,
)
from .detectors import (
    AlarmRecord,
    MsrState,
    MsState,
    NonFiniteIncrements,
    PriorSupportExhausted,
    brute_force_ms,
    brute_force_msr,
    ms_update,
    msr_update,
    multicyclic_run,
    posterior_no_change,
    run_detector,
)
from .measures import (
    ChangePrior,
    Cp2Report,
    MixingGrid,
    check_cp2_partial,
    geometric_prior,
    grid_from_atoms,
    heavy_tail_prior,
    point_mass_prior,
    uniform_grid,
)
from .models import (
    ArChannelSpec,
    GaussianIidModel,
    HarmonicSignal,
    Hmm2Spec,
    MultichannelArModel,
    ObservationModel,
    QLimit,
    TwoStateHmmModel,
    gaussian_iid_model,
    hmm2_model,
    info_number,
    multichannel_ar_model,
    q_limit,
    sample_path,
)
from .montecarlo import (
    Estimate,
    EstimationError,
    ExperimentConfig,
    SlopeFit,
    estimate_average_delay_risk,
    estimate_delay_moments,
    estimate_integrated_risk,
    estimate_pfa_posterior,
    estimate_pfa_tail,
    slope_regression,
)
from .theory import (
    Prediction,
    delay_rate,
    integrated_risk_prediction,
    ms_delay_prediction,
    msr_delay_prediction,
)
