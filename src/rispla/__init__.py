"""RIS-assisted physical-layer authentication lab.

Closed-form false-alarm and missed-detection probabilities for pathloss- and
CIR-based hypothesis tests, a deterministic Monte-Carlo engine that
cross-validates them, and phase-shift optimizers that drive missed detection
to zero.
"""

__version__ = "0.1.0"
