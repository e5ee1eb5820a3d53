"""Microbubble OOK communication toolkit.

A desk-scale chain for bubble-based data transmission experiments: a
seeded channel simulator for recirculating-bolus sensor traces, a
time-based on-off-keying modem, moving-average and Kalman smoothing with
peak detection, and precision/recall/F1 plus BER/BSR evaluation.
"""

from .channel import ChannelParams, mean_flow_velocity, simulate
from .dsp import (
    KalmanParams,
    MafParams,
    PeakDetectParams,
    detect_peaks,
    kalman_filter,
    moving_average,
)
from .errors import (
    FormatError,
    ResourceLimitError,
    UndefinedMetricError,
    ValidationError,
)
from .metrics import MatchResult, MetricsReport, ber, bsr, build_report, f1_score, match_peaks
from .modem import (
    InjectionEvent,
    InjectionSchedule,
    TimingParams,
    decode,
    duty_efficiency,
    effective_bit_rate,
    encode,
    max_channel_bit_rate,
    raw_bit_rate,
    time_overhead,
    uniform_avg_bit_duration,
)
from .pipeline import run_pipeline
from .signals import Peak, PeakSet, SensorTrace

__version__ = "0.1.0"
