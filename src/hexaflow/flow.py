"""Time integration of the sixth-order straightening flow.

The curve moves with normal speed F = k_s4 + k^2 k_ss - (1/2) k k_s^2
between the lines x = -1 and 1 (the flow is invariant under x -> c x,
t -> c^6 t, so `cli` maps other lines to these).  Each step treats the stiff
leading term implicitly through the sixth arc-length difference of position
(an explicit method would need dt of order h^6), solves one septa-diagonal
system per coordinate, re-pins the endpoints and resamples to uniform spacing.

One step, two loops.  `_advance` steps a (B, n+1, 2) stack of curves: the
right-hand side, the re-pinning and the geometry and resampling kernels of
`curve`, each written once over the batch axis, with a validity mask where a
curve is rejected; only the solve is passed in.  `run_flow` steps one curve
as a stack of one through `step`, which solves both systems with scipy's
`solve_banded`.  `run_ensemble` steps the curves that share a configuration
in lockstep, one `_advance` call on the whole stack of running curves per
step, and solves every member's mirror-folded systems, circulant on the
2n-periodic mirror extension, by one real FFT pair; only rejected members
are stepped again, at halved dt, and the stack is compacted only when
members finish.  Each curve of an ensemble keeps its own step size, clock,
rejections, snapshots and termination.

The loops stay two because numpy's array powers and Python's float powers
differ in the last bit: of 200,000 random values of h within 1% of 2/256,
169 give a different h**2 and 10,145 a different h**6 (numpy 2.4).
`run_flow` forms dt = dt_safety * h**2 and the banded solve's lambda =
dt / h**6 in Python floats, `run_ensemble` both in arrays, and a merged loop
would change the bits of one of them.

scipy serves only the banded solve: `_solve_banded` imports `solve_banded`
when it first runs, so importing this module, and every ensemble run, never
loads scipy.
"""
from __future__ import annotations

import time as _time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .curve import (
    DiscreteCurve,
    GeometryProfile,
    GeometryStack,
    compute_geometry,
    compute_geometry_stack,
    resample_uniform,
    resample_uniform_stack,
)
from .diagnostics import Snapshot, Trajectory, make_record, winding_number

SIXTH_DIFF = np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0])  # offsets -3..3

MAX_HALVINGS = 40
DT_FLOOR_FACTOR = 1e-14


@dataclass(frozen=True)
class FlowConfig:
    """Immutable parameters of one run, t_end and stop_knorm in the frame of x = -1 and 1."""

    n: int
    t_end: float
    dt_safety: float = 0.1
    snapshot_every: int = 100
    stop_knorm: float = 0.0
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.n < 16:
            raise ValueError(f"n must be >= 16, got {self.n}")
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError(f"dt_safety must be in (0, 1], got {self.dt_safety}")
        if not 0.0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        if not self.stop_knorm >= 0.0:
            raise ValueError(f"stop_knorm must be >= 0, got {self.stop_knorm}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


def normal_speed(profile: GeometryProfile | GeometryStack) -> np.ndarray:
    """Normal speed F = k_s4 + k^2 k_ss - (1/2) k k_s^2 at every node."""
    k = profile.k
    k_s = profile.k_s
    return profile.k_s4 + k * k * profile.k_ss - 0.5 * k * k_s * k_s


@lru_cache(maxsize=16)
def _sixth_difference_template(n: int, fold_sign: float, pin: bool) -> np.ndarray:
    """Banded 7-point sixth-difference stencil with mirror ghosts folded in.

    Ghost columns beyond the ends are eliminated by the reflection identity
    u(-j) = fold_sign * u(j) (and its right-end analogue), which keeps the
    matrix square with bandwidth 3.  With pin=True the endpoint rows are
    left empty so the caller's identity diagonal turns them into constraints.
    Layout matches scipy.linalg.solve_banded: ab[3 + i - j, j] = A[i, j].
    """
    ab = np.zeros((7, n + 1))
    for i in range(n + 1):
        if pin and i in (0, n):
            continue
        for d in range(-3, 4):
            j = i + d
            c = SIXTH_DIFF[d + 3]
            if j < 0:
                j = -j
                c *= fold_sign
            elif j > n:
                j = 2 * n - j
                c *= fold_sign
            ab[3 + i - j, j] += c
    ab.setflags(write=False)
    return ab


def _implicit_matrix(n: int, fold_sign: float, pin: bool, lam: float) -> np.ndarray:
    """Banded form of I - lam * (folded sixth difference)."""
    ab = _sixth_difference_template(n, fold_sign, pin) * (-lam)
    ab[3, :] += 1.0
    return ab


@lru_cache(maxsize=16)
def _mirror_symbol(n: int) -> np.ndarray:
    """(2 - 2 cos theta)^3 at the frequencies theta = pi j / n, j = 0..n, of period 2n."""
    c = (2.0 - 2.0 * np.cos(np.pi * np.arange(n + 1) / n)) ** 3
    c.setflags(write=False)
    return c


def _solve_banded(rhs: np.ndarray, dt: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Solve I - lam_b * (folded sixth difference) for every member of a (B, 2, 2n) buffer.

    The first n+1 entries of row 0 of member b hold its x right-hand side
    (odd fold, pinned ends: its end values must be zero), those of row 1 its
    y right-hand side (even fold); the solutions replace them and come back
    as a (B, 2, n+1) view.  lam_b = dt_b / h_b^6 is formed in Python floats,
    as `run_flow` forms dt.
    """
    from scipy.linalg import solve_banded  # single runs only; cached after the first step

    n = rhs.shape[-1] // 2
    out = rhs[..., :n + 1]
    for b in range(rhs.shape[0]):
        lam = float(dt[b]) / float(h[b]) ** 6
        for row, fold, pin in ((0, -1.0, True), (1, 1.0, False)):
            out[b, row] = solve_banded((3, 3), _implicit_matrix(n, fold, pin, lam), out[b, row],
                                       overwrite_ab=True, overwrite_b=True, check_finite=False)
    return out


def _solve_mirror(rhs: np.ndarray, dt: np.ndarray, h: np.ndarray) -> np.ndarray:
    """`_solve_banded` by one real FFT pair, with lam = dt / h^6 formed as an array.

    Either fold makes the system the restriction of a circulant on the
    2n-periodic mirror extension with symbol 1 + lam (2 - 2 cos theta)^3.
    The right-hand sides are extended in place, odd for x and even for y,
    and one FFT pair solves every member, each with its own lam.
    """
    n = rhs.shape[-1] // 2
    np.negative(rhs[:, 0, n - 1:0:-1], out=rhs[:, 0, n + 1:])
    rhs[:, 1, n + 1:] = rhs[:, 1, n - 1:0:-1]
    spectrum = np.fft.rfft(rhs, axis=-1)
    spectrum /= 1.0 + (dt / h ** 6)[:, None, None] * _mirror_symbol(n)
    return np.fft.irfft(spectrum, n=2 * n, axis=-1)[..., :n + 1]


def _advance(points: np.ndarray, geometry: GeometryStack, dt: np.ndarray,
             solve) -> tuple[np.ndarray, GeometryStack]:
    """One linearly-implicit step of every curve of a (B, n+1, 2) stack, member b by dt[b].

    Solves (I - dt * D6) applied to the position increment against dt * F * nu
    per coordinate, with D6 the folded sixth difference in the arc length
    frozen at the step's start; `solve` is `_solve_banded` or
    `_solve_mirror`.  The x system carries odd folds and pinned endpoint rows
    (endpoints slide on their lines), the y system even folds.  Afterwards
    endpoints are re-pinned exactly and the curves are resampled to uniform
    spacing.  Returns the new nodes and their geometry; a member whose moved
    curve fails a geometric validity check has `valid` False.
    """
    rows, n = points.shape[0], points.shape[1] - 1
    # dt F nu goes straight into the solve's buffer: the first n+1 entries of
    # each 2n-wide row, the rest is room for the mirror extension
    rhs = np.empty((rows, 2, 2 * n))
    rhs_x, rhs_y = rhs[:, 0, :n + 1], rhs[:, 1, :n + 1]
    speed = dt[:, None] * normal_speed(geometry)
    np.negative(np.multiply(speed, np.sin(geometry.theta), out=rhs_x), out=rhs_x)
    np.multiply(speed, np.cos(geometry.theta), out=rhs_y)
    rhs_x[:, 0] = 0.0
    rhs_x[:, n] = 0.0
    moved = points + solve(rhs, dt, geometry.h).transpose(0, 2, 1)
    moved[:, 0, 0] = -1.0
    moved[:, -1, 0] = 1.0
    resampled, valid = resample_uniform_stack(moved, n)
    new_geometry = compute_geometry_stack(resampled)
    np.logical_and(new_geometry.valid, valid, out=new_geometry.valid)
    return resampled, new_geometry


def step(points: np.ndarray, geometry: GeometryStack,
         dt: float) -> tuple[np.ndarray, GeometryStack]:
    """One step of size dt of the curve of a (1, n+1, 2) stack: `_advance` with banded solves."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return _advance(points, geometry, np.array([dt]), _solve_banded)


def _initial_curve(config: FlowConfig,
                   initial: DiscreteCurve) -> tuple[DiscreteCurve, GeometryProfile]:
    """Start of a run: the initial curve at the config's resolution, checked, and its geometry."""
    if initial.line_left != -1.0 or initial.line_right != 1.0:
        raise ValueError("runs step between the lines x = -1 and 1, not "
                         f"{initial.line_left} and {initial.line_right}")
    curve = initial if initial.n == config.n else resample_uniform(initial, config.n)
    profile = compute_geometry(curve)
    omega0 = winding_number(profile)
    if abs(omega0) > 0.1:
        raise ValueError(
            f"initial winding number {omega0:.3f} is not 0; the straightening "
            "regime requires zero total turning"
        )
    return curve, profile


def _snapshot(time: float, curve: DiscreteCurve, profile: GeometryProfile,
              length_ref: float) -> Snapshot:
    rec = make_record(time, profile, normal_speed(profile), length_ref)
    return Snapshot(time, curve, rec)


def _trajectory(snaps: list[Snapshot], config: FlowConfig, termination: str, steps: int,
                final_time: float, rejections: int, wall_time: float,
                extra_metadata: dict | None) -> Trajectory:
    metadata = {
        "config": asdict(config),
        "termination": termination,
        "steps": steps,
        "final_time": final_time,
        "rejections": rejections,
        "wall_time": wall_time,
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return Trajectory(tuple(snaps), metadata)


def run_flow(config: FlowConfig, initial: DiscreteCurve,
             extra_metadata: dict | None = None) -> Trajectory:
    """Run the flow from an initial curve until a termination condition.

    Records a snapshot with a full diagnostics record at the start, every
    snapshot_every-th step and at the final step.  Terminates on the time
    horizon, the step cap, or the curvature dropping below stop_knorm
    (0 disables that test).  Each step is one `step` call with dt =
    dt_safety * h^2, capped so the run cannot overshoot t_end: the implicit
    sixth-order part is unconditionally stable, and the explicit remainder
    behaves no worse than second-order transport.  Rejected steps retry with
    halved dt; more than 40 halvings abort the run with the partial
    trajectory and reason "dt_underflow".
    """
    curve, profile = _initial_curve(config, initial)
    length_ref = profile.length
    wall_start = _time.perf_counter()
    snaps = [_snapshot(0.0, curve, profile, length_ref)]
    points = curve.points[None]
    geometry = compute_geometry_stack(points)
    clock = 0.0

    def record() -> None:
        curve = DiscreteCurve(points[0])
        snaps.append(_snapshot(clock, curve, compute_geometry(curve), length_ref))

    steps = 0
    rejections = 0
    t_slack = 1e-12 * config.t_end
    while True:
        if config.stop_knorm > 0.0 and float(np.abs(geometry.k).max()) < config.stop_knorm:
            termination = "stop_knorm"
            break
        if clock >= config.t_end - t_slack:
            termination = "t_end"
            break
        if steps >= config.max_steps:
            termination = "max_steps"
            break
        h2 = float(geometry.h[0]) ** 2
        dt = min(config.dt_safety * h2, config.t_end - clock)
        for _ in range(MAX_HALVINGS + 1):
            new_points, new_geometry = step(points, geometry, dt)
            if new_geometry.valid[0]:
                break
            rejections += 1
            dt *= 0.5
            if dt < DT_FLOOR_FACTOR * h2:
                break
        if not new_geometry.valid[0]:
            termination = "dt_underflow"
            break
        points, geometry = new_points, new_geometry
        clock += dt
        steps += 1
        if steps % config.snapshot_every == 0:
            record()
    if snaps[-1].time < clock:
        record()

    return _trajectory(snaps, config, termination, steps, clock, rejections,
                       _time.perf_counter() - wall_start, extra_metadata)


def run_ensemble(config: FlowConfig, initials: Sequence[DiscreteCurve],
                 extra_metadata: Sequence[dict | None] | None = None) -> list[Trajectory]:
    """Run the flow from several initial curves in lockstep; one trajectory each.

    Every member keeps the rules of `run_flow`: its own dt = dt_safety * h^2,
    clock, snapshot cadence and termination, and a rejected step retries
    with halved dt for that member alone, down to the same "dt_underflow"
    abort that keeps its partial trajectory.  Each step is one `_advance`
    call with the FFT solve on the stack of running members; only rejected
    members are stepped again, and the stack is compacted when members
    finish.  The FFT solve differs from the banded one only by rounding; no
    member's result depends on its batch-mates.  Snapshot records come from
    `compute_geometry` and `make_record`, as in `run_flow`.  `extra_metadata`
    holds one dict (or None) per member; `wall_time` is that of the whole
    ensemble.
    """
    starts = [_initial_curve(config, initial) for initial in initials]
    if not starts:
        raise ValueError("an ensemble needs at least one initial curve")
    extras = list(extra_metadata) if extra_metadata is not None else [None] * len(starts)
    if len(extras) != len(starts):
        raise ValueError(f"{len(extras)} metadata entries for {len(starts)} curves")
    wall_start = _time.perf_counter()
    # row r of points, geometry and clock belongs to member live[r]
    live = np.arange(len(starts))
    points = np.stack([curve.points for curve, _ in starts])
    geometry = compute_geometry_stack(points)
    clock = np.zeros(len(starts))
    final_times = np.zeros(len(starts))
    rejections = np.zeros(len(starts), dtype=int)
    length_refs = [profile.length for _, profile in starts]
    snaps = [[_snapshot(0.0, curve, profile, ref)]
             for (curve, profile), ref in zip(starts, length_refs)]
    endings: list[tuple[str, int] | None] = [None] * len(starts)

    def record(row: int) -> None:
        b = live[row]
        curve = DiscreteCurve(points[row])
        snaps[b].append(_snapshot(float(clock[row]), curve, compute_geometry(curve),
                                  length_refs[b]))

    def finish(row: int, termination: str) -> None:
        b = live[row]
        endings[b] = (termination, steps)
        final_times[b] = clock[row]
        if snaps[b][-1].time < clock[row]:
            record(row)

    steps = 0
    t_slack = 1e-12 * config.t_end
    while live.size:
        reached = clock >= config.t_end - t_slack
        flat = (np.abs(geometry.k).max(axis=1) < config.stop_knorm if config.stop_knorm > 0.0
                else np.zeros_like(reached))
        ended = flat | reached
        capped = steps >= config.max_steps
        if capped or ended.any():
            for row in np.flatnonzero(ended | capped):
                finish(row, "stop_knorm" if flat[row] else "t_end" if reached[row] else "max_steps")
            if capped:
                break
            keep = ~ended
            live, points, clock, geometry = (live[keep], points[keep], clock[keep],
                                             geometry.take(keep))
            if not live.size:
                break
        h2 = geometry.h ** 2
        dt = np.minimum(config.dt_safety * h2, config.t_end - clock)
        new_points, new_geometry = _advance(points, geometry, dt, _solve_mirror)
        # a rejected member retries at halved dt, MAX_HALVINGS times at most, as in run_flow
        retry = np.flatnonzero(~new_geometry.valid)
        for attempt in range(MAX_HALVINGS + 1):
            if not retry.size:
                break
            rejections[live[retry]] += 1
            dt[retry] *= 0.5
            retry = retry[dt[retry] >= DT_FLOOR_FACTOR * h2[retry]]
            if attempt == MAX_HALVINGS or not retry.size:
                break
            retried_points, retried = _advance(points[retry], geometry.take(retry), dt[retry],
                                               _solve_mirror)
            ok = retried.valid
            new_points[retry[ok]] = retried_points[ok]
            new_geometry.put(retry[ok], retried.take(ok))
            retry = retry[~ok]
        accepted = new_geometry.valid
        if accepted.all():
            points, geometry = new_points, new_geometry
            clock += dt
        else:
            for row in np.flatnonzero(~accepted):
                finish(row, "dt_underflow")
            live, points, clock, geometry = (live[accepted], new_points[accepted],
                                             clock[accepted] + dt[accepted],
                                             new_geometry.take(accepted))
        steps += 1
        if steps % config.snapshot_every == 0:
            for row in range(live.size):
                record(row)

    wall_time = _time.perf_counter() - wall_start
    return [_trajectory(snaps[b], config, termination, member_steps, float(final_times[b]),
                        int(rejections[b]), wall_time, extras[b])
            for b, (termination, member_steps) in enumerate(endings)]
