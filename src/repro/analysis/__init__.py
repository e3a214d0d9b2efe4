"""Race-freedom analyses: Shasha-Snir delay sets and Eraser-style locksets."""

from repro import _lazy_exports

_EXPORTS = {
    "delay_sets": ("DelayAnalysis", "DelayPair", "analyze", "delay_pairs_for"),
    "lockset": (
        "LocationState", "LocksetReport", "LocksetWarning",
        "analyze_execution", "analyze_program",
    ),
}
__all__ = _lazy_exports(__name__, _EXPORTS)
