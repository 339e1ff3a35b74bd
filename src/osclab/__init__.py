"""Numerical laboratory for the geometry of oscillator Lie groups."""

__version__ = "0.1.0"
