"""dqsim: communication-efficient distributed SGD with dynamic quantization.

A numpy library plus a small CLI that simulate a synchronous multi-worker
parameter server exchanging stochastically quantized gradients, allocate
per-round bit widths against a quantization-error budget, account every
transmitted bit exactly, and verify the runs against closed-form
convergence and communication-cost predictions.
"""

__version__ = "0.1.0"

from .objective import (
    GradientOracle,
    LogisticObjective,
    QuadraticObjective,
    make_dataset,
)
from .quant import (
    CorruptionError,
    FramingError,
    QuantizedGradient,
    QuantizerConfig,
    WireRangeError,
    decode,
    dequantize,
    dequantized_draws,
    encode,
    frame_bytes,
    lp_norm,
    quantize,
    sign_quantize,
    variance_bound,
)
from .schedule import (
    DynamicSchedule,
    FixedSchedule,
    SignSchedule,
    alpha_closed_form,
    alpha_estimate,
    budget_satisfaction,
    continuous_bits,
    fixed_bits_for_budget,
    quantization_budget,
)
from .sim import (
    DivergenceError,
    ObjectiveSpec,
    OracleSpec,
    ReplayMismatchError,
    RunConfig,
    RunTrace,
    ScheduleSpec,
    aggregate,
    replay,
    run,
    theory_report_for,
    trace_csv,
)
from .streams import worker_stream
from .theory import (
    Lemma1Report,
    TheoryReport,
    am_alpha,
    dq_total_cost_bound,
    fixed_total_cost_bound,
    gm_alpha,
    lemma1_mc_check,
    quantization_noise_covariance_trace,
    theorem1_bound,
    theorem3_exact_isotropic,
    theorem3_exact_series,
)
