"""Trajectory re-sampling and GPS noise injection.

The paper's queries are produced by re-sampling high-rate GeoLife
trajectories "to the desired sampling rates" (Sec. IV-B).  We mirror that
protocol: :func:`downsample` keeps one observation per target interval, and
:func:`add_gps_noise` perturbs positions with gaussian error to emulate GPS
measurement noise (the reason map matching exists at all).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.geo.point import Point
from repro.trajectory.model import GPSPoint, Trajectory

__all__ = ["downsample", "add_gps_noise", "shift_time"]


def downsample(trajectory: Trajectory, interval_s: float) -> Trajectory:
    """Thin a trajectory so consecutive points are >= ``interval_s`` apart.

    The first and last observations are always retained (the final gap may
    therefore be shorter than ``interval_s``).

    Raises:
        ValueError: If ``interval_s`` is not positive (or is NaN).
    """
    # Negated, so that NaN (every comparison false) is refused too.
    if not interval_s > 0:
        raise ValueError("interval must be positive")
    pts = trajectory.points
    if len(pts) <= 2:
        return trajectory
    kept: List[GPSPoint] = [pts[0]]
    for p in pts[1:-1]:
        if p.t - kept[-1].t >= interval_s:
            kept.append(p)
    if pts[-1].t > kept[-1].t:
        kept.append(pts[-1])
    return Trajectory(trajectory.traj_id, tuple(kept))


def add_gps_noise(
    trajectory: Trajectory,
    sigma_m: float,
    rng: Optional[np.random.Generator] = None,
) -> Trajectory:
    """Add isotropic gaussian position noise with std-dev ``sigma_m``.

    Raises:
        ValueError: If ``sigma_m`` is negative.
    """
    if sigma_m < 0:
        raise ValueError("sigma must be non-negative")
    if sigma_m == 0:
        return trajectory
    rng = rng if rng is not None else np.random.default_rng(0)
    noisy = tuple(
        GPSPoint(
            Point(
                p.point.x + float(rng.normal(0.0, sigma_m)),
                p.point.y + float(rng.normal(0.0, sigma_m)),
            ),
            p.t,
        )
        for p in trajectory.points
    )
    return Trajectory(trajectory.traj_id, noisy)


def shift_time(trajectory: Trajectory, offset_s: float) -> Trajectory:
    """Translate all timestamps by ``offset_s`` (used to stagger fleets)."""
    shifted = tuple(GPSPoint(p.point, p.t + offset_s) for p in trajectory.points)
    return Trajectory(trajectory.traj_id, shifted)
