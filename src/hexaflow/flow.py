"""Time integration of the sixth-order straightening flow.

The curve moves with normal speed F = k_s4 + k^2 k_ss - (1/2) k k_s^2
between the lines x = -1 and 1 (the flow is invariant under x -> c x,
t -> c^6 t, so `cli` maps other lines to these).  Each step treats the stiff
leading term implicitly through the sixth arc-length difference of position
(an explicit method would need dt of order h^6), solves one septa-diagonal
system per coordinate, re-pins the endpoints and resamples to uniform spacing.

One step, one loop.  `_advance` steps a (B, n+1, 2) stack of curves: the
right-hand side, the re-pinning and the geometry and resampling kernels of
`curve`, each written once over the batch axis, with a validity mask where a
curve is rejected; only the solve is passed in.  `_run` steps the curves
that share a configuration in lockstep, each with its own step size, clock,
rejections, snapshots and termination.  One way in and one way out: every
snapshot record, the first one included, reads the member's row of a
geometry stack, and every member ends through one retirement.  `run_flow`
is that loop on a stack of one, stepped by `step`; `run_ensemble` steps by
`_advance` with the FFT solve.

The solves still differ.  `step` solves both systems with scipy's
`solve_banded` and serves runs alone, every `run` and `verify`, whose
recorded outputs it keeps bit for bit.  The FFT solve, circulant on the
2n-periodic mirror extension of every member's folded systems, places nodes
a rounding error away.  Moving runs alone to one solve waits on a
benchmark that does not read verify's speed as failures and on the angle
engine that replaces both solves (ROADMAP items 1 and 10).

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
    MIN_SEGMENTS,
    DiscreteCurve,
    GeometryProfile,
    GeometryStack,
    compute_geometry,
    compute_geometry_stack,
    resample_uniform,
    resample_uniform_stack,
)
from .diagnostics import Snapshot, Trajectory, make_record

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
        if self.n < MIN_SEGMENTS:
            raise ValueError(f"n must be >= {MIN_SEGMENTS}, got {self.n}")
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
    whose h^6 differs from numpy's array power in the last bit.
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


def _initial_curve(config: FlowConfig, initial: DiscreteCurve) -> DiscreteCurve:
    """The initial curve between the lines x = -1 and 1, at the config's resolution.

    Its geometry and winding are checked by `_run`, on its row of the initial stack.
    """
    if initial.line_left != -1.0 or initial.line_right != 1.0:
        raise ValueError("runs step between the lines x = -1 and 1, not "
                         f"{initial.line_left} and {initial.line_right}")
    return initial if initial.n == config.n else resample_uniform(initial, config.n)


def run_flow(config: FlowConfig, initial: DiscreteCurve,
             extra_metadata: dict | None = None) -> Trajectory:
    """Run the flow from one initial curve: `_run` on a stack of one, stepped by `step`."""
    # `step` and `_advance` are looked up at each call, so a replaced module
    # attribute (a test double, a tracer) sees every step
    return _run(config, [initial], [extra_metadata],
                lambda points, geometry, dt: step(points, geometry, dt[0]))[0]


def run_ensemble(config: FlowConfig, initials: Sequence[DiscreteCurve],
                 extra_metadata: Sequence[dict | None] | None = None) -> list[Trajectory]:
    """Run the flow from several initial curves: `_run` stepped by `_advance` with the FFT solve.

    No member's result depends on its batch-mates.  `extra_metadata` holds
    one dict (or None) per member; `wall_time` is that of the whole ensemble.
    """
    if not initials:
        raise ValueError("an ensemble needs at least one initial curve")
    extras = list(extra_metadata) if extra_metadata is not None else [None] * len(initials)
    if len(extras) != len(initials):
        raise ValueError(f"{len(extras)} metadata entries for {len(initials)} curves")
    return _run(config, initials, extras,
                lambda points, geometry, dt: _advance(points, geometry, np.array(dt),
                                                      _solve_mirror))


def _run(config: FlowConfig, initials: Sequence[DiscreteCurve],
         extras: Sequence[dict | None], advance) -> list[Trajectory]:
    """Run the curves of `initials` in lockstep, one `advance` call per step; one trajectory each.

    The initial curves are stacked and measured at once; a row the stack
    rejects raises the typed error `compute_geometry` gives for its curve,
    and a nonzero winding number is refused.  Each member records a
    snapshot with a full diagnostics record at the start, every
    snapshot_every-th step and at its end, each read from its row of the
    geometry stack, with the margin measured against the first record's
    length.  `retire` ends a member at the time horizon, the step cap, or
    sup|k| below stop_knorm (0 disables that test).  Its dt
    = dt_safety * h^2 is capped at t_end: the implicit sixth-order part is
    unconditionally stable, and the explicit remainder behaves no worse than
    second-order transport.  A rejected member alone retries at halved dt;
    more than 40 halvings retire it as "dt_underflow", with its partial
    trajectory.  The stack is compacted only when members end.
    """
    curves = [_initial_curve(config, initial) for initial in initials]
    wall_start = _time.perf_counter()
    # Row r of points, geometry, clock and dt belongs to member live[r].  Clocks
    # and step sizes are Python floats: on a stack of a few curves they cost
    # less than numpy calls, and numpy's square of h can differ in the last bit.
    live = np.arange(len(curves))
    points = np.stack([curve.points for curve in curves])
    geometry = compute_geometry_stack(points)
    clock = [0.0] * len(curves)
    rejections = [0] * len(curves)
    snaps: list[list[Snapshot]] = [[] for _ in curves]
    endings: list[tuple[str, int, float] | None] = [None] * len(curves)
    steps = 0

    def record(row: int) -> None:
        # the record reads the row the run built, which is the stored curve's
        # geometry; the margin is measured against the first record's length
        b = live[row]
        profile = geometry.profile(row)
        length_ref = snaps[b][0].record.length if snaps[b] else profile.length
        rec = make_record(clock[row], profile, normal_speed(profile), length_ref)
        snaps[b].append(Snapshot(clock[row], DiscreteCurve(points[row]), rec))

    def retire(reasons: Sequence[str | None]) -> list[int]:
        # every member with a reason ends here, its last state recorded once;
        # the rows of the others come back, to keep
        for row, reason in enumerate(reasons):
            if reason is not None:
                b = live[row]
                if snaps[b][-1].time < clock[row]:
                    record(row)
                endings[b] = (reason, steps, clock[row])
        return [row for row, reason in enumerate(reasons) if reason is None]

    for row, curve in enumerate(curves):
        if not geometry.valid[row]:
            compute_geometry(curve)  # raises the typed error that rejects the row
        record(row)
        omega0 = snaps[row][0].record.omega
        if abs(omega0) > 0.1:
            raise ValueError(f"initial winding number {omega0:.3f} is not 0; the straightening "
                             "regime requires zero total turning")

    t_limit = config.t_end - 1e-12 * config.t_end
    while live.size:
        capped = steps >= config.max_steps
        flat = ((np.abs(geometry.k).max(axis=1) < config.stop_knorm).tolist()
                if config.stop_knorm > 0.0 else [False] * live.size)
        if capped or max(clock) >= t_limit or any(flat):
            keep = retire(["stop_knorm" if stop else "t_end" if time >= t_limit
                           else "max_steps" if capped else None
                           for stop, time in zip(flat, clock)])
            live, points, geometry = live[keep], points[keep], geometry.take(keep)
            clock = [clock[row] for row in keep]
            continue
        spacing = geometry.h.tolist()
        dt = [min(config.dt_safety * h ** 2, config.t_end - time)
              for h, time in zip(spacing, clock)]
        new_points, new_geometry = advance(points, geometry, dt)
        valid = new_geometry.valid.tolist()
        if not all(valid):
            # a rejected member retries at halved dt, MAX_HALVINGS times at most
            retry = [row for row, ok in enumerate(valid) if not ok]
            for attempt in range(MAX_HALVINGS + 1):
                for row in retry:
                    rejections[live[row]] += 1
                    dt[row] *= 0.5
                retry = [row for row in retry if dt[row] >= DT_FLOOR_FACTOR * spacing[row] ** 2]
                if attempt == MAX_HALVINGS or not retry:
                    break
                new_points[retry], retried = advance(points[retry], geometry.take(retry),
                                                     [dt[row] for row in retry])
                new_geometry.put(retry, retried)
                retry = [row for row, ok in zip(retry, retried.valid.tolist()) if not ok]
            keep = retire([None if ok else "dt_underflow" for ok in new_geometry.valid.tolist()])
            live, new_points, new_geometry = live[keep], new_points[keep], new_geometry.take(keep)
            clock, dt = [clock[row] for row in keep], [dt[row] for row in keep]
        points, geometry = new_points, new_geometry
        clock = [time + step_size for time, step_size in zip(clock, dt)]
        steps += 1
        if steps % config.snapshot_every == 0:
            for row in range(live.size):
                record(row)

    wall_time = _time.perf_counter() - wall_start
    return [Trajectory(tuple(snaps[b]), {
        "config": asdict(config), "termination": termination, "steps": member_steps,
        "final_time": final_time, "rejections": rejections[b], "wall_time": wall_time,
        **(extras[b] or {})}) for b, (termination, member_steps, final_time) in enumerate(endings)]
