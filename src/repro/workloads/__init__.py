"""Synthetic personal-device workloads and trace handling.

App profiles calibrated to the mobile-wear literature the paper cites,
user-intensity mixes (light/typical/heavy/adversarial), a generator
producing both per-day volume arrays for the epoch engine and
replayable op traces, and JSON trace (de)serialization.
"""

from .apps import APP_PROFILES, USER_MIXES, AppProfile, daily_write_gb
from .content import COMPRESSIBILITY_CLASS, generate_content
from .mobile import MobileWorkload, WorkloadConfig
from .traces import OpKind, TraceOp, load_trace, save_trace

__all__ = [
    "APP_PROFILES",
    "USER_MIXES",
    "AppProfile",
    "daily_write_gb",
    "COMPRESSIBILITY_CLASS",
    "generate_content",
    "MobileWorkload",
    "WorkloadConfig",
    "OpKind",
    "TraceOp",
    "load_trace",
    "save_trace",
]
