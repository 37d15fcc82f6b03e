"""Subband spectral-balance and level-vs-distance analysis toolkit."""

from .balance import (
    BalanceResult,
    WeightEvolution,
    balance_difference,
    spectral_balance,
    weight_evolution,
)
from .campaign import (
    CampaignResult,
    ComparisonReport,
    ComparisonRow,
    IngestReport,
    SeriesAnalysis,
    SeriesError,
    analyze,
    analyze_report,
    compare_to_stimulus,
    export,
    ingest,
)
from .errors import BandscopeError
from .filterbank import (
    BAND_PRESETS,
    DEFAULT_TAPS,
    BandMapping,
    FilterBank,
    apply_zero_phase,
    decompose,
    design_bank,
    load_mapping,
)
from .level import (
    LevelPoint,
    ValidityVerdict,
    measured_level_curve,
    theoretical_amplification,
    validity_limit,
)
from .series import Measurement, MeasurementSeries, SeriesMeasurement
from .signal import Signal, mean_level_dbfs, normalize_to_level
from .stimuli import StimulusSpec, gen_pink, gen_sine, gen_stimulus
from .synthfield import (
    DirectivityModel,
    DistanceProfile,
    GroundTruth,
    SynthCampaignSpec,
    directivity_gain,
    load_campaign_spec,
    synth_campaign,
)
from .wavio import WavHeader, load_wav, read_header, save_wav

__version__ = "0.1.0"

__all__ = [
    "BAND_PRESETS",
    "DEFAULT_TAPS",
    "BalanceResult",
    "BandMapping",
    "BandscopeError",
    "CampaignResult",
    "ComparisonReport",
    "ComparisonRow",
    "DirectivityModel",
    "DistanceProfile",
    "FilterBank",
    "GroundTruth",
    "IngestReport",
    "LevelPoint",
    "Measurement",
    "MeasurementSeries",
    "SeriesAnalysis",
    "SeriesError",
    "SeriesMeasurement",
    "Signal",
    "StimulusSpec",
    "SynthCampaignSpec",
    "ValidityVerdict",
    "WavHeader",
    "WeightEvolution",
    "analyze",
    "analyze_report",
    "apply_zero_phase",
    "balance_difference",
    "compare_to_stimulus",
    "decompose",
    "design_bank",
    "directivity_gain",
    "export",
    "gen_pink",
    "gen_sine",
    "gen_stimulus",
    "ingest",
    "load_campaign_spec",
    "load_mapping",
    "load_wav",
    "mean_level_dbfs",
    "measured_level_curve",
    "normalize_to_level",
    "read_header",
    "save_wav",
    "spectral_balance",
    "synth_campaign",
    "theoretical_amplification",
    "validity_limit",
    "weight_evolution",
]
