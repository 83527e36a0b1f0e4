"""Scalar diagnostics of a flowing curve: winding, norms, margins, rates.

Everything here is a pure function of immutable snapshots; nothing touches
the time stepper, so these quantities can cross-check it independently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .curve import (
    DiscreteCurve,
    GeometryProfile,
    _chords,
    _running_sum,
    boundary_residuals,
    integrate,
)

# positive root of 174 c^2 + 74 c - 2 = 0; the small-energy threshold is
# C0 * pi^3 and the margin is delta = C0 * pi^3 - |k_s|_2^2 * L_ref^3
C0 = (math.sqrt(1717.0) - 37.0) / 174.0
C0_PI3 = C0 * math.pi ** 3


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar state of the curve at one instant."""

    time: float
    omega: float                # winding number, conserved along the flow
    length: float
    energy: float               # half the squared L2 norm of k_s
    knorm2: float
    ksnorm2: float
    kssnorm2: float
    k_inf: float
    ks_inf: float
    speed_inf: float            # sup of |F|, integrates to a displacement bound
    delta_margin: float         # small-energy margin against the reference length
    delta_margin_current: float  # same margin against the instantaneous length
    dissipation: float          # integral of F^2 over the curve
    bc_residuals: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("length", "energy", "knorm2", "ksnorm2", "kssnorm2",
                     "k_inf", "ks_inf", "speed_inf", "dissipation"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


@dataclass(frozen=True)
class Snapshot:
    """One recorded instant of a run."""

    time: float
    curve: DiscreteCurve
    record: DiagnosticsRecord


@dataclass(frozen=True)
class Trajectory:
    """Ordered snapshots of a run plus run metadata."""

    snapshots: tuple[Snapshot, ...]
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        times = [snap.time for snap in self.snapshots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return np.array([snap.time for snap in self.snapshots])

    @property
    def records(self) -> list[DiagnosticsRecord]:
        return [snap.record for snap in self.snapshots]

    def series(self, name: str) -> np.ndarray:
        """Time series of one DiagnosticsRecord field."""
        return np.array([getattr(snap.record, name) for snap in self.snapshots])


def winding_number(profile: GeometryProfile) -> float:
    """Total turning of the tangent divided by 2*pi.

    For curves meeting both lines perpendicularly the quadrature telescopes
    to half the difference of the contact branches, so the result is exactly
    a half-integer and is conserved by the flow.
    """
    return integrate(profile.k, profile) / (2.0 * math.pi)


def small_energy_margin(ksnorm2: float, length_ref: float) -> float:
    """Margin of the small-energy condition: C0*pi^3 - ksnorm2 * length_ref^3.

    Positive margin is the hypothesis under which length decreases and the
    curve straightens exponentially; a negative value is meaningful output,
    not an error.
    """
    if not length_ref > 0.0:
        raise ValueError(f"reference length must be positive, got {length_ref}")
    return C0_PI3 - ksnorm2 * length_ref ** 3


def make_record(time: float, profile: GeometryProfile, speed: np.ndarray,
                length_ref: float) -> DiagnosticsRecord:
    """Assemble the full diagnostics record for one instant.

    `speed` is the normal speed field F at the profile's nodes; `length_ref`
    is the run's initial length, fixing the margin the decay theorem uses.
    """
    k = profile.k
    k_s = profile.k_s
    ksnorm2 = integrate(k_s * k_s, profile)
    return DiagnosticsRecord(
        time=float(time),
        omega=float(winding_number(profile)),
        length=float(profile.length),
        energy=float(0.5 * ksnorm2),
        knorm2=float(integrate(k * k, profile)),
        ksnorm2=float(ksnorm2),
        kssnorm2=float(integrate(profile.k_ss * profile.k_ss, profile)),
        k_inf=float(np.abs(k).max()),
        ks_inf=float(np.abs(k_s).max()),
        speed_inf=float(np.abs(speed).max()),
        delta_margin=float(small_energy_margin(ksnorm2, length_ref)),
        delta_margin_current=float(small_energy_margin(ksnorm2, profile.length)),
        dissipation=float(integrate(np.asarray(speed) ** 2, profile)),
        bc_residuals=boundary_residuals(profile),
    )


def fit_decay_rate(times: np.ndarray, values: np.ndarray,
                   window: slice | None = None) -> tuple[float, float]:
    """Least-squares exponential decay rate of a positive series.

    Fits log(value) against time over the index window (a contiguous slice,
    such as `decay_window` returns; None for the whole series) and returns
    (rate, r_squared) with rate = -slope, so decaying series give a positive
    rate.  Rejects windows shorter than 5 samples or containing nonpositive
    values (the offending index is named).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-d arrays of equal length")
    start, stop, stride = (slice(None) if window is None else window).indices(t.size)
    if stride != 1:
        raise ValueError("window must be contiguous (stride 1)")
    if stop - start < 5:
        raise ValueError(f"window [{start}, {stop}) has fewer than 5 samples")
    bad = np.nonzero(v[start:stop] <= 0.0)[0]
    if bad.size:
        raise ValueError(f"nonpositive value at index {start + int(bad[0])}; "
                         "cannot fit a decay rate")
    tw = t[start:stop]
    logv = np.log(v[start:stop])
    slope, intercept = np.polyfit(tw, logv, 1)
    fitted = slope * tw + intercept
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    # a roundoff-flat series has no variance to explain; report a perfect fit
    degenerate = logv.size * (1e-13 * max(1.0, float(np.abs(logv).max()))) ** 2
    r2 = 1.0 if ss_tot <= degenerate else 1.0 - ss_res / ss_tot
    return float(-slope), float(r2)


def decay_window(values: np.ndarray, upper_frac: float = 0.5,
                 lower_frac: float = 0.0) -> slice:
    """Index window of a decaying series between two fractions of its start.

    Starts where the series first drops below upper_frac times its initial
    value (discarding the transient) and stops where it drops below
    lower_frac times the initial value (discarding the roundoff floor).
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0 or v[0] <= 0.0:
        raise ValueError("series must start with a positive value")
    below = np.nonzero(v < upper_frac * v[0])[0]
    start = int(below[0]) if below.size else v.size
    floor = np.nonzero(v < lower_frac * v[0])[0]
    stop = int(floor[0]) if floor.size else v.size
    return slice(start, max(stop, start))


def _fractional_positions(curve: DiscreteCurve, fractions: np.ndarray) -> np.ndarray:
    """Node positions interpolated at given arc-length fractions."""
    pts = curve.points
    s = _running_sum(_chords(pts)[0])
    u = s / s[-1]
    return np.column_stack([np.interp(fractions, u, pts[:, 0]),
                            np.interp(fractions, u, pts[:, 1])])


def displacement_integral(trajectory: Trajectory, cumulative: bool = False):
    """Largest node displacement since the start, and the integrated speed bound.

    Nodes are matched across snapshots by normalized arc-length fraction
    (resampling renumbers nodes, fractions are the stable label).  Returns
    (sup_displacement, speed_integral); with cumulative=True both come back
    as per-snapshot arrays, the displacement being a running maximum.  The
    triangle inequality forces sup_displacement <= speed_integral.
    """
    snaps = trajectory.snapshots
    if len(snaps) < 2:
        raise ValueError("need at least 2 snapshots to measure displacement")
    counts = {snap.curve.points.shape[0] for snap in snaps}
    if len(counts) != 1:
        raise ValueError(f"snapshots disagree on node count: {sorted(counts)}")
    n_nodes = counts.pop()
    fractions = np.linspace(0.0, 1.0, n_nodes)
    base = _fractional_positions(snaps[0].curve, fractions)
    sup = np.empty(len(snaps))
    sup[0] = 0.0
    for i, snap in enumerate(snaps[1:], start=1):
        diff = _fractional_positions(snap.curve, fractions) - base
        sup[i] = float(np.hypot(diff[:, 0], diff[:, 1]).max())
    running = np.maximum.accumulate(sup)
    times = trajectory.times
    speeds = trajectory.series("speed_inf")
    increments = 0.5 * (speeds[1:] + speeds[:-1]) * np.diff(times)
    speed_int = _running_sum(increments)
    if cumulative:
        return running, speed_int
    return float(running[-1]), float(speed_int[-1])
