"""Spatial index substrate: the uniform point grid."""

from repro.spatial.grid import GridIndex

__all__ = ["GridIndex"]
