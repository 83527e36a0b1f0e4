"""Time integration of the sixth-order straightening flow.

The curve moves with normal speed F = k_s4 + k^2 k_ss - (1/2) k k_s^2.  Each
step treats the stiff leading term implicitly through the sixth arc-length
difference of position (an explicit method would need dt of order h^6),
solves one septa-diagonal system per coordinate, re-pins the endpoints and
resamples to uniform spacing.

Two run loops share that scheme and its formulas: the right-hand side, the
endpoint re-pinning, and the geometry and resampling kernels of `curve`,
each written once over a leading batch axis.  `run_flow` steps one curve and
solves the two banded systems with `solve_banded`.  `run_ensemble` steps a
stack of curves that share one configuration in lockstep: both
mirror-folded systems, which are circulant on the 2n-periodic mirror
extension, are solved for every curve by one real FFT pair.  Each lockstep
step is one `_step_stack` call on the whole stack of running curves; only
the rows it rejects are stepped again, at halved dt, and the stack is
compacted only when curves finish.  Each curve of an ensemble keeps its own
step size, clock, rejections, snapshots and termination.  The loops and the
solves stay separate because running a single curve as an ensemble of one
would change the cost of every `run` and `verify`.

scipy serves only the banded solve: `step` imports `solve_banded` when it
first runs, so importing this module, and every ensemble run, never loads
scipy.
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
    _pin,
    check_lines,
    compute_geometry,
    compute_geometry_stack,
    resample_uniform,
    resample_uniform_stack,
)
from .diagnostics import Snapshot, Trajectory, make_record, winding_number

SIXTH_DIFF = np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0])  # offsets -3..3

MAX_HALVINGS = 40
DT_FLOOR_FACTOR = 1e-14


class StepRejected(Exception):
    """A step produced a geometrically invalid curve; retry with smaller dt."""

    def __init__(self, reason: str, step_index: int):
        self.reason = reason
        self.step_index = int(step_index)
        super().__init__(f"step {step_index} rejected: {reason}")


@dataclass(frozen=True)
class FlowConfig:
    """Immutable parameters of one run."""

    n: int
    t_end: float
    dt_safety: float = 0.1
    snapshot_every: int = 100
    line_left: float = -1.0
    line_right: float = 1.0
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
        check_lines(self.line_left, self.line_right)
        if not self.stop_knorm >= 0.0:
            raise ValueError(f"stop_knorm must be >= 0, got {self.stop_knorm}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass(frozen=True)
class FlowState:
    """Curve, clock and cached geometry at one step."""

    curve: DiscreteCurve
    time: float
    step_index: int
    profile: GeometryProfile


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


def _solve_mirror(rhs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Solve I - lam_b * (folded sixth difference) for a (B, 2, n+1) stack.

    Row 0 of each member is the x system (odd fold, pinned ends: its end
    values must be zero), row 1 the y system (even fold), as in `step`.
    Either fold makes the system the restriction of a circulant on the
    2n-periodic mirror extension with symbol 1 + lam (2 - 2 cos theta)^3, so
    one real FFT pair solves every member, each with its own lam.
    """
    n = rhs.shape[-1] - 1
    ext = np.empty(rhs.shape[:-1] + (2 * n,))
    ext[..., :n + 1] = rhs
    ext[:, 0, n + 1:] = -rhs[:, 0, n - 1:0:-1]
    ext[:, 1, n + 1:] = rhs[:, 1, n - 1:0:-1]
    spectrum = np.fft.rfft(ext, axis=-1)
    spectrum /= 1.0 + lam[:, None, None] * _mirror_symbol(n)
    return np.fft.irfft(spectrum, n=2 * n, axis=-1)[..., :n + 1]


def select_dt(state: FlowState, config: FlowConfig) -> float:
    """Step size dt_safety * h^2, capped so the run cannot overshoot t_end.

    The implicit sixth-order part is unconditionally stable; the explicit
    remainder behaves no worse than second-order transport, so an h^2 cap
    suffices.
    """
    dt = config.dt_safety * state.profile.h ** 2
    remaining = config.t_end - state.time
    return min(dt, remaining)


def _rhs(geometry: GeometryProfile | GeometryStack, dt) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides dt * F * nu of the x and y systems, zero at the pinned x ends."""
    speed = normal_speed(geometry)
    rhs_x = (-dt) * speed * np.sin(geometry.theta)
    rhs_y = dt * speed * np.cos(geometry.theta)
    rhs_x[..., 0] = 0.0
    rhs_x[..., -1] = 0.0
    return rhs_x, rhs_y


def step(state: FlowState, dt: float) -> FlowState:
    """Advance one linearly-implicit step of size dt.

    Solves (I - dt * D6) applied to the position increment against dt * F * nu
    per coordinate, with D6 the folded sixth difference in the arc length
    frozen at the step's start.  The x system carries odd folds and pinned
    endpoint rows (endpoints slide on their lines), the y system even folds.
    Afterwards endpoints are re-pinned exactly and the curve is resampled to
    uniform spacing.  Raises StepRejected when the moved curve fails a
    geometric validity check.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    from scipy.linalg import solve_banded  # single runs only; cached after the first step

    profile = state.profile
    curve = state.curve
    n = curve.n
    rhs_x, rhs_y = _rhs(profile, dt)
    lam = dt / profile.h ** 6
    ab_x = _implicit_matrix(n, -1.0, True, lam)
    ab_y = _implicit_matrix(n, 1.0, False, lam)
    try:
        dx = solve_banded((3, 3), ab_x, rhs_x, overwrite_ab=True,
                          overwrite_b=True, check_finite=False)
        dy = solve_banded((3, 3), ab_y, rhs_y, overwrite_ab=True,
                          overwrite_b=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"implicit solve failed at step {state.step_index}: {exc}"
        ) from exc
    pts = curve.points + np.column_stack([dx, dy])
    _pin(pts, curve.line_left, curve.line_right)
    try:
        moved = DiscreteCurve(pts, curve.line_left, curve.line_right)
        resampled = resample_uniform(moved, n)
        new_profile = compute_geometry(resampled)
    except ValueError as exc:
        raise StepRejected(str(exc), state.step_index) from exc
    return FlowState(
        curve=resampled,
        time=state.time + dt,
        step_index=state.step_index + 1,
        profile=new_profile,
    )


def _step_stack(points: np.ndarray, geometry: GeometryStack, dt: np.ndarray,
                line_left: float, line_right: float) -> tuple[np.ndarray, GeometryStack]:
    """`step` for every curve of a (B, n+1, 2) stack, member b with step dt[b].

    Solves both coordinate systems of all members with `_solve_mirror`, then
    re-pins, resamples and measures the moved curves along the batch axis.
    Returns the new nodes and their geometry; a member whose moved curve
    `step` would reject has `valid` False.
    """
    rhs = np.stack(_rhs(geometry, dt[:, None]), axis=1)
    moved = points + _solve_mirror(rhs, dt / geometry.h ** 6).transpose(0, 2, 1)
    _pin(moved, line_left, line_right)
    resampled, valid = resample_uniform_stack(moved, points.shape[1] - 1,
                                              line_left, line_right)
    new_geometry = compute_geometry_stack(resampled)
    np.logical_and(new_geometry.valid, valid, out=new_geometry.valid)
    return resampled, new_geometry


def _initial_state(config: FlowConfig, initial: DiscreteCurve) -> FlowState:
    """Start of a run: the initial curve at the config's resolution, checked."""
    if (initial.line_left != config.line_left
            or initial.line_right != config.line_right):
        raise ValueError("initial curve and config disagree on the boundary lines")
    curve = initial if initial.n == config.n else resample_uniform(initial, config.n)
    state = FlowState(curve, 0.0, 0, compute_geometry(curve))
    omega0 = winding_number(state.profile)
    if abs(omega0) > 0.1:
        raise ValueError(
            f"initial winding number {omega0:.3f} is not 0; the straightening "
            "regime requires zero total turning"
        )
    return state


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
    (0 disables that test).  Rejected steps retry with halved dt; more than
    40 halvings abort the run with the partial trajectory and reason
    "dt_underflow".
    """
    state = _initial_state(config, initial)
    length_ref = state.profile.length
    wall_start = _time.perf_counter()

    snaps: list[Snapshot] = []

    def record(st: FlowState) -> None:
        snaps.append(_snapshot(st.time, st.curve, st.profile, length_ref))

    record(state)
    rejections = 0
    t_slack = 1e-12 * config.t_end
    termination = None
    while termination is None:
        if config.stop_knorm > 0.0 and float(np.abs(state.profile.k).max()) < config.stop_knorm:
            termination = "stop_knorm"
            break
        if state.time >= config.t_end - t_slack:
            termination = "t_end"
            break
        if state.step_index >= config.max_steps:
            termination = "max_steps"
            break
        dt = select_dt(state, config)
        dt_floor = DT_FLOOR_FACTOR * state.profile.h ** 2
        advanced = None
        for _ in range(MAX_HALVINGS + 1):
            try:
                advanced = step(state, dt)
                break
            except StepRejected:
                rejections += 1
                dt *= 0.5
                if dt < dt_floor:
                    break
        if advanced is None:
            termination = "dt_underflow"
            break
        state = advanced
        if state.step_index % config.snapshot_every == 0:
            record(state)
    if not snaps or snaps[-1].time < state.time:
        record(state)

    return _trajectory(snaps, config, termination, state.step_index, state.time, rejections,
                       _time.perf_counter() - wall_start, extra_metadata)


def run_ensemble(config: FlowConfig, initials: Sequence[DiscreteCurve],
                 extra_metadata: Sequence[dict | None] | None = None) -> list[Trajectory]:
    """Run the flow from several initial curves in lockstep; one trajectory each.

    Every member keeps the rules of `run_flow`: its own dt = dt_safety * h^2,
    clock, snapshot cadence and termination, and a rejected step retries
    with halved dt for that member alone, down to the same "dt_underflow"
    abort that keeps its partial trajectory.  Each step is one `_step_stack`
    call on the stack of running members; only rejected members are stepped
    again, and the stack is compacted when members finish.  The FFT solve
    differs from the banded one only by rounding; no member's result depends
    on its batch-mates.  Snapshot records come from `compute_geometry` and
    `make_record`, as in `run_flow`.  `extra_metadata` holds one dict (or
    None) per member; `wall_time` is that of the whole ensemble.
    """
    states = [_initial_state(config, initial) for initial in initials]
    if not states:
        raise ValueError("an ensemble needs at least one initial curve")
    extras = list(extra_metadata) if extra_metadata is not None else [None] * len(states)
    if len(extras) != len(states):
        raise ValueError(f"{len(extras)} metadata entries for {len(states)} curves")
    wall_start = _time.perf_counter()
    lines = (config.line_left, config.line_right)
    # row r of points, geometry and clock belongs to member live[r]
    live = np.arange(len(states))
    points = np.stack([st.curve.points for st in states])
    geometry = compute_geometry_stack(points)
    clock = np.zeros(len(states))
    final_times = np.zeros(len(states))
    rejections = np.zeros(len(states), dtype=int)
    length_refs = [st.profile.length for st in states]
    snaps = [[_snapshot(st.time, st.curve, st.profile, ref)]
             for st, ref in zip(states, length_refs)]
    endings: list[tuple[str, int] | None] = [None] * len(states)

    def record(row: int) -> None:
        b = live[row]
        curve = DiscreteCurve(points[row], *lines)
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
        new_points, new_geometry = _step_stack(points, geometry, dt, *lines)
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
            retried_points, retried = _step_stack(points[retry], geometry.take(retry),
                                                  dt[retry], *lines)
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
