"""Information-energy capacity regions of the two-user Gaussian MAC with
channel-output feedback, plus a Monte Carlo simulator of the power-splitting
feedback coding scheme."""

__version__ = "0.1.0"
