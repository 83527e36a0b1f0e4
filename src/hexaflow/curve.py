"""Discrete open curves pinned to two vertical lines, and their geometry.

A curve is a polyline of n+1 nodes whose endpoints sit exactly on the
boundary lines x = line_left and x = line_right.  All geometry (curvature
and its arc-length derivatives up to fifth order) is computed from
tangent-angle differences on a mirror-extended node set, so that the
odd-order derivative conditions at the boundary hold by stencil symmetry.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

GHOSTS = 3  # widest stencil is the 7-point fifth derivative: 3 ghosts per side

TWO_PI = 2.0 * np.pi

SPACING_TOL = 0.01  # default relative deviation from uniform spacing the stencils accept

# one-sided estimates of f', f''', f''''' at s=0 from samples at h..(m+2)h,
# second-order accurate; used for boundary residuals where the mirrored
# stencils vanish identically and would hide a violated contact condition
_ONESIDED_1 = np.array([-2.5, 4.0, -1.5])
_ONESIDED_3 = np.array([-3.5, 13.0, -18.0, 11.0, -2.5])
_ONESIDED_5 = np.array([-4.5, 26.0, -62.5, 80.0, -57.5, 22.0, -3.5])

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


class CurveError(ValueError):
    """Base class for geometric rejections."""


class DegenerateCurveError(CurveError):
    """Two consecutive nodes coincide."""

    def __init__(self, index: int):
        self.index = int(index)
        super().__init__(f"degenerate segment: nodes {index} and {index + 1} coincide")


class SpacingError(CurveError):
    """Node spacing is not uniform enough; resample before computing geometry."""


class ResolutionError(CurveError):
    """Tangent angle jumps by more than pi/2 between neighbours; refine the curve."""


@dataclass(frozen=True)
class DiscreteCurve:
    """Polyline with endpoints pinned exactly to two vertical lines."""

    points: np.ndarray          # (n+1, 2) float64 node positions
    line_left: float
    line_right: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n+1, 2), got {pts.shape}")
        if pts.shape[0] < 17:
            raise ValueError(f"need at least 17 nodes (n >= 16), got {pts.shape[0]}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain non-finite values")
        if not (np.isfinite(self.line_left) and np.isfinite(self.line_right)):
            raise ValueError("boundary lines must be finite")
        if not self.line_right > self.line_left:
            raise ValueError(
                f"line_right ({self.line_right}) must exceed line_left ({self.line_left})"
            )
        if pts[0, 0] != self.line_left or pts[-1, 0] != self.line_right:
            raise ValueError("endpoints must lie exactly on their boundary lines")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        """Number of segments."""
        return self.points.shape[0] - 1


@dataclass(frozen=True)
class GeometryProfile:
    """Arc-length geometry of a curve: spacing, angles, curvature and derivatives."""

    s: np.ndarray               # (n+1,) node arc-length positions, s[0] = 0
    ds: np.ndarray              # (n,) segment lengths
    h: float                    # mean spacing; stencils assume near-uniform nodes
    phi: np.ndarray             # (n,) chord tangent angles, continuously unwrapped
    theta: np.ndarray           # (n+1,) node tangent angles (mirror-consistent)
    k: np.ndarray               # (n+1,) curvature = turning rate of theta
    k_derivs: np.ndarray        # (5, n+1) arc-length derivatives of k, orders 1..5
    length: float
    branch_left: int = field(default=0)   # pi-multiple of the left contact angle
    branch_right: int = field(default=0)  # pi-multiple of the right contact angle

    @property
    def k_s(self) -> np.ndarray:
        return self.k_derivs[0]

    @property
    def k_ss(self) -> np.ndarray:
        return self.k_derivs[1]

    @property
    def k_sss(self) -> np.ndarray:
        return self.k_derivs[2]

    @property
    def k_s4(self) -> np.ndarray:
        return self.k_derivs[3]

    @property
    def k_s5(self) -> np.ndarray:
        return self.k_derivs[4]


def _segment_data(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment lengths and raw chord angles; rejects coincident neighbours."""
    d = points[1:] - points[:-1]
    ds = np.hypot(d[:, 0], d[:, 1])
    if not (ds > 0.0).all():
        raise DegenerateCurveError(int(np.argmin(ds)))
    return ds, np.arctan2(d[:, 1], d[:, 0])


def _unwrap_angles(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuous angle branch and the wrapped node turns."""
    turns = raw[1:] - raw[:-1]
    turns = (turns + np.pi) % TWO_PI - np.pi
    phi = np.empty_like(raw)
    phi[0] = raw[0]
    turns.cumsum(out=phi[1:])
    phi[1:] += raw[0]
    return phi, turns


@lru_cache(maxsize=8)
def _fractions(m: int) -> np.ndarray:
    f = np.linspace(0.0, 1.0, m + 1)
    f.setflags(write=False)
    return f


def mirror_extend(curve: DiscreteCurve, ghosts: int = GHOSTS) -> np.ndarray:
    """Node set extended by reflection across each boundary line.

    Ghost j steps beyond the left endpoint is the reflection of node j across
    x = line_left (x -> 2*line_left - x, y unchanged), and likewise on the
    right.  Returns an array of n+1+2*ghosts points; row `ghosts` is node 0.
    """
    pts = curve.points
    n = pts.shape[0] - 1
    if not 1 <= ghosts <= n:
        raise ValueError(f"ghost count must be in [1, {n}], got {ghosts}")
    left = pts[ghosts:0:-1].copy()
    left[:, 0] = 2.0 * curve.line_left - left[:, 0]
    right = pts[n - 1:n - 1 - ghosts:-1].copy()
    right[:, 0] = 2.0 * curve.line_right - right[:, 0]
    return np.concatenate([left, pts, right])


def compute_geometry(curve: DiscreteCurve, spacing_tol: float = SPACING_TOL) -> GeometryProfile:
    """Curvature and derivatives of a near-uniformly sampled curve.

    Chord angles are extended across each endpoint by the exact reflection
    identity of mirror ghosts, which makes the discrete curvature an even
    sequence about both boundary nodes.  Derivatives then come from central
    stencils on that even extension, so odd orders vanish exactly at the
    boundary nodes.

    Raises SpacingError when spacing deviates from uniform by more than
    spacing_tol (resample first), and ResolutionError when the tangent angle
    turns by more than pi/2 between neighbours.
    """
    pts = curve.points
    ds, raw = _segment_data(pts)
    h = float(ds.mean())
    dev = float(np.abs(ds - h).max())
    if dev > spacing_tol * h:
        raise SpacingError(
            f"spacing deviates {dev / h:.3%} from uniform (tolerance {spacing_tol:.1%}); "
            "resample the curve first"
        )

    phi, turns = _unwrap_angles(raw)
    m_left = int(round(phi[0] / np.pi))
    m_right = int(round(phi[-1] / np.pi))
    # mirror ghosts reflect chord angles through the contact branch:
    # one ghost angle per side is enough to evaluate curvature at every node
    phi_ghost_l = TWO_PI * m_left - phi[0]
    phi_ghost_r = TWO_PI * m_right - phi[-1]
    worst = max(float(np.abs(turns).max(initial=0.0)),
                abs(phi[0] - phi_ghost_l), abs(phi[-1] - phi_ghost_r))
    if worst > 0.5 * np.pi:
        raise ResolutionError(
            f"tangent angle jumps by {worst:.3f} rad (> pi/2); curve is under-resolved "
            "or violates perpendicular contact"
        )

    phi_e = np.empty(phi.size + 2)
    phi_e[0] = phi_ghost_l
    phi_e[1:-1] = phi
    phi_e[-1] = phi_ghost_r
    ds_e = np.empty(ds.size + 2)
    ds_e[0] = ds[0]
    ds_e[1:-1] = ds
    ds_e[-1] = ds[-1]

    w = 0.5 * (ds_e[:-1] + ds_e[1:])
    k = (phi_e[1:] - phi_e[:-1]) / w
    theta = 0.5 * (phi_e[:-1] + phi_e[1:])

    # even extension reproduces curvature of the mirror-extended node set exactly
    k_e = np.concatenate([k[GHOSTS:0:-1], k, k[-2:-2 - GHOSTS:-1]])
    h2 = h * h
    h3 = h2 * h
    k_derivs = np.empty((5, k.size))
    k_derivs[0] = (k_e[4:-2] - k_e[2:-4]) / (2.0 * h)
    k_derivs[1] = (k_e[4:-2] - 2.0 * k_e[3:-3] + k_e[2:-4]) / h2
    # Odd-order stencils difference mirrored pairs first so that the even
    # extension cancels bitwise at the endpoints.
    k_derivs[2] = ((k_e[5:-1] - k_e[1:-5]) - 2.0 * (k_e[4:-2] - k_e[2:-4])) / (2.0 * h3)
    k_derivs[3] = (k_e[5:-1] - 4.0 * k_e[4:-2] + 6.0 * k_e[3:-3]
                   - 4.0 * k_e[2:-4] + k_e[1:-5]) / (h2 * h2)
    k_derivs[4] = ((k_e[6:] - k_e[:-6]) - 4.0 * (k_e[5:-1] - k_e[1:-5])
                   + 5.0 * (k_e[4:-2] - k_e[2:-4])) / (2.0 * h2 * h3)

    s = np.empty(pts.shape[0])
    s[0] = 0.0
    ds.cumsum(out=s[1:])
    for arr in (s, ds, phi, theta, k, k_derivs):
        arr.setflags(write=False)
    return GeometryProfile(
        s=s, ds=ds, h=h, phi=phi, theta=theta, k=k, k_derivs=k_derivs,
        length=float(s[-1]), branch_left=m_left, branch_right=m_right,
    )


@dataclass(frozen=True)
class GeometryStack:
    """The stepper's geometry of B curves with n+1 nodes each, one row per curve.

    Rows hold what `compute_geometry` returns for that curve, bit for bit,
    limited to the fields the normal speed and the step need.  A row whose
    curve that function would reject has `valid` False and meaningless values.
    """

    valid: np.ndarray           # (B,) the curve passed every validity check
    h: np.ndarray               # (B,) mean spacing
    theta: np.ndarray           # (B, n+1) node tangent angles
    k: np.ndarray               # (B, n+1) curvature
    k_s: np.ndarray             # (B, n+1) first arc-length derivative of k
    k_ss: np.ndarray            # (B, n+1) second
    k_s4: np.ndarray            # (B, n+1) fourth

    def take(self, index) -> GeometryStack:
        """The rows selected by an index array or boolean mask."""
        return GeometryStack(*(getattr(self, f.name)[index] for f in fields(self)))

    def put(self, index, rows: GeometryStack) -> None:
        """Overwrite the selected rows with those of another stack."""
        for f in fields(self):
            getattr(self, f.name)[index] = getattr(rows, f.name)


def _segment_stack(points: np.ndarray):
    """`_segment_data` and `_unwrap_angles` turns of every row of a (B, n+1, 2) stack.

    Returns the node coordinates x, y as contiguous (B, n+1) arrays, segment
    lengths, raw chord angles, wrapped turns, and a (B,) mask that is False
    for rows with non-finite nodes or a degenerate segment.
    """
    x = np.ascontiguousarray(points[..., 0])
    y = np.ascontiguousarray(points[..., 1])
    dx = x[:, 1:] - x[:, :-1]
    dy = y[:, 1:] - y[:, :-1]
    ds = np.hypot(dx, dy)
    raw = np.arctan2(dy, dx)
    turns = raw[:, 1:] - raw[:, :-1]
    turns = (turns + np.pi) % TWO_PI - np.pi
    valid = np.isfinite(points).all(axis=(1, 2)) & (ds > 0.0).all(axis=1)
    return x, y, ds, raw, turns, valid


def compute_geometry_stack(points: np.ndarray) -> GeometryStack:
    """`compute_geometry` of every curve in a (B, n+1, 2) stack at once.

    The same arithmetic runs along the batch axis, so each row equals the
    single-curve result exactly and no row depends on another.  Instead of
    raising, a row fails `valid` when its nodes are non-finite, a segment is
    degenerate, spacing is off by more than SPACING_TOL, or the tangent
    angle jumps by more than pi/2.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        _, _, ds, raw, turns, valid = _segment_stack(points)
        h = ds.mean(axis=1)
        dev = np.abs(ds - h[:, None]).max(axis=1)
        valid &= dev <= SPACING_TOL * h

        phi_e = np.empty((raw.shape[0], raw.shape[1] + 2))
        phi = phi_e[:, 1:-1]
        phi[:, 0] = raw[:, 0]
        turns.cumsum(axis=1, out=phi[:, 1:])
        phi[:, 1:] += raw[:, :1]
        phi_e[:, 0] = TWO_PI * np.round(phi[:, 0] / np.pi) - phi[:, 0]
        phi_e[:, -1] = TWO_PI * np.round(phi[:, -1] / np.pi) - phi[:, -1]
        worst = np.maximum(np.abs(turns).max(axis=1, initial=0.0),
                           np.maximum(np.abs(phi[:, 0] - phi_e[:, 0]),
                                      np.abs(phi[:, -1] - phi_e[:, -1])))
        valid &= worst <= 0.5 * np.pi

        ds_e = np.empty_like(phi_e)
        ds_e[:, 0] = ds[:, 0]
        ds_e[:, 1:-1] = ds
        ds_e[:, -1] = ds[:, -1]
        w = 0.5 * (ds_e[:, :-1] + ds_e[:, 1:])
        k = (phi_e[:, 1:] - phi_e[:, :-1]) / w
        theta = 0.5 * (phi_e[:, :-1] + phi_e[:, 1:])

        k_e = np.concatenate([k[:, GHOSTS:0:-1], k, k[:, -2:-2 - GHOSTS:-1]], axis=1)
        hc = h[:, None]
        h2 = hc * hc
        k_s = (k_e[:, 4:-2] - k_e[:, 2:-4]) / (2.0 * hc)
        k_ss = (k_e[:, 4:-2] - 2.0 * k_e[:, 3:-3] + k_e[:, 2:-4]) / h2
        k_s4 = (k_e[:, 5:-1] - 4.0 * k_e[:, 4:-2] + 6.0 * k_e[:, 3:-3]
                - 4.0 * k_e[:, 2:-4] + k_e[:, 1:-5]) / (h2 * h2)
    return GeometryStack(valid, h, theta, k, k_s, k_ss, k_s4)


def integrate(values: np.ndarray, profile: GeometryProfile) -> float:
    """Trapezoid rule of a node field against the arc element."""
    v = np.asarray(values, dtype=float)
    if v.shape != profile.k.shape:
        raise ValueError(f"field shape {v.shape} does not match node count {profile.k.shape}")
    return 0.5 * float(np.dot(v[:-1] + v[1:], profile.ds))


def boundary_residuals(profile: GeometryProfile) -> dict[str, float]:
    """One-sided estimates of the contact conditions at both endpoints.

    The mirrored stencils force odd curvature derivatives to vanish at the
    boundary nodes by construction, so genuine violations are measured from
    interior curvature values only: one-sided differences for k_s, k_sss and
    k_s5 at each endpoint, plus the deviation of the end chords from
    perpendicular contact (|sin| of the chord angle).
    """
    k = profile.k
    h = profile.h
    h2 = h * h
    left = {
        "ks": _ONESIDED_1 @ k[1:4] / h,
        "ksss": _ONESIDED_3 @ k[1:6] / (h * h2),
        "ks5": _ONESIDED_5 @ k[1:8] / (h * h2 * h2),
    }
    kr = k[::-1]
    right = {
        "ks": _ONESIDED_1 @ kr[1:4] / h,
        "ksss": _ONESIDED_3 @ kr[1:6] / (h * h2),
        "ks5": _ONESIDED_5 @ kr[1:8] / (h * h2 * h2),
    }
    return {
        "ks_left": abs(float(left["ks"])),
        "ks_right": abs(float(right["ks"])),
        "ksss_left": abs(float(left["ksss"])),
        "ksss_right": abs(float(right["ksss"])),
        "ks5_left": abs(float(left["ks5"])),
        "ks5_right": abs(float(right["ks5"])),
        "perp_left": abs(float(np.sin(profile.phi[0]))),
        "perp_right": abs(float(np.sin(profile.phi[-1]))),
    }


def _lagrange_positions(t: np.ndarray, pts: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Evaluate the piecewise 4-point Lagrange interpolant at parameters tau."""
    N = t.size - 1
    seg = (np.searchsorted(t, tau) - 1).clip(0, N - 1)
    b = (seg - 1).clip(0, N - 3)
    t0, t1, t2, t3 = t[b], t[b + 1], t[b + 2], t[b + 3]
    d0, d1, d2, d3 = tau - t0, tau - t1, tau - t2, tau - t3
    w0 = d1 * d2 * d3 / ((t0 - t1) * (t0 - t2) * (t0 - t3))
    w1 = d0 * d2 * d3 / ((t1 - t0) * (t1 - t2) * (t1 - t3))
    w2 = d0 * d1 * d3 / ((t2 - t0) * (t2 - t1) * (t2 - t3))
    w3 = d0 * d1 * d2 / ((t3 - t0) * (t3 - t1) * (t3 - t2))
    return (w0[:, None] * pts[b] + w1[:, None] * pts[b + 1]
            + w2[:, None] * pts[b + 2] + w3[:, None] * pts[b + 3])


def _lagrange_velocity(t: np.ndarray, pts: np.ndarray, tau: np.ndarray,
                       seg: np.ndarray) -> np.ndarray:
    """Derivative of the piecewise cubic interpolant at tau inside given segments."""
    N = t.size - 1
    b = np.clip(seg - 1, 0, N - 3)
    tk = np.stack([t[b], t[b + 1], t[b + 2], t[b + 3]])
    out = np.zeros((tau.size, 2))
    for j in range(4):
        denom = np.ones_like(tau)
        for l in range(4):
            if l != j:
                denom *= tk[j] - tk[l]
        others = [l for l in range(4) if l != j]
        num = np.zeros_like(tau)
        for skip in others:
            term = np.ones_like(tau)
            for l in others:
                if l != skip:
                    term *= tau - tk[l]
            num += term
        out += (num / denom)[:, None] * pts[b + j]
    return out


def arc_length(points: np.ndarray) -> float:
    """Arc length of the piecewise-cubic interpolant through the nodes.

    Five-point Gauss quadrature of the interpolant speed on every chord
    interval; accurate far beyond the interpolation error itself.
    """
    pts = np.asarray(points, dtype=float)
    ds, _ = _segment_data(pts)
    t = np.empty(pts.shape[0])
    t[0] = 0.0
    np.cumsum(ds, out=t[1:])
    N = pts.shape[0] - 1
    mid = 0.5 * (t[:-1] + t[1:])
    half = 0.5 * ds
    tau = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    seg = np.repeat(np.arange(N), _GL_NODES.size)
    vel = _lagrange_velocity(t, pts, tau, seg)
    speed = np.hypot(vel[:, 0], vel[:, 1]).reshape(N, _GL_NODES.size)
    return float(np.sum(speed @ _GL_WEIGHTS * half))


def resample_uniform(curve: DiscreteCurve, m: int) -> DiscreteCurve:
    """Resample to m+1 nodes at equal arc spacing along the cubic interpolant.

    Per-segment arc is estimated from the chord with the circle-arc turning
    correction chord*(1 + turn^2/24); targets equidistribute that arc and are
    pulled back to the chord parameter, where the piecewise 4-point Lagrange
    interpolant is evaluated.  Endpoints are preserved exactly.
    """
    if m < 16:
        raise ValueError(f"resample target must satisfy m >= 16, got {m}")
    pts = curve.points
    ds, raw = _segment_data(pts)
    _, turns = _unwrap_angles(raw)
    psi = np.empty_like(ds)
    if turns.size:
        psi[1:-1] = 0.5 * (turns[:-1] + turns[1:])
        psi[0] = turns[0]
        psi[-1] = turns[-1]
    else:
        psi[:] = 0.0
    arc = ds * (1.0 + psi * psi / 24.0)
    s = np.empty(ds.size + 1)
    s[0] = 0.0
    arc.cumsum(out=s[1:])
    t = np.empty_like(s)
    t[0] = 0.0
    ds.cumsum(out=t[1:])
    tau = np.interp(_fractions(m) * s[-1], s, t)
    out = _lagrange_positions(t, pts, tau)
    out[0] = pts[0]
    out[-1] = pts[-1]
    out[0, 0] = curve.line_left
    out[-1, 0] = curve.line_right
    return DiscreteCurve(out, curve.line_left, curve.line_right)


def _search_sorted_rows(table: np.ndarray, queries: np.ndarray, side: str) -> np.ndarray:
    """`np.searchsorted(table[b], queries[b], side)` for every row b at once.

    Both arrays must be sorted along their rows.  One stable merge sort of
    each row of [table, queries] (queries first for side="left", so they
    precede equal table entries) places query j after j other queries,
    so its merged position minus j counts the table entries before it.
    """
    rows, size = queries.shape
    width = size + table.shape[1]
    if side == "left":
        order = np.argsort(np.concatenate([queries, table], axis=1), axis=1, kind="stable")
        is_query = order < size
    else:
        order = np.argsort(np.concatenate([table, queries], axis=1), axis=1, kind="stable")
        is_query = order >= table.shape[1]
    merged_at = np.flatnonzero(is_query).reshape(rows, size)
    return merged_at - (np.arange(rows)[:, None] * width + np.arange(size))


def resample_uniform_stack(points: np.ndarray, m: int, line_left: float,
                           line_right: float) -> tuple[np.ndarray, np.ndarray]:
    """`resample_uniform` of every curve in a (B, n+1, 2) stack at once.

    Returns the (B, m+1, 2) resampled nodes, each row equal to the
    single-curve result exactly (the interpolation below repeats the
    arithmetic of `np.interp`), and a (B,) mask that is False where that
    function would reject the curve: non-finite nodes or a degenerate
    segment, before or after resampling.
    """
    if m < 16:
        raise ValueError(f"resample target must satisfy m >= 16, got {m}")
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        x, y, ds, _, turns, valid = _segment_stack(points)
        psi = np.empty_like(ds)
        psi[:, 1:-1] = 0.5 * (turns[:, :-1] + turns[:, 1:])
        psi[:, 0] = turns[:, 0]
        psi[:, -1] = turns[:, -1]
        arc = ds * (1.0 + psi * psi / 24.0)
        s = np.zeros(points.shape[:2])
        arc.cumsum(axis=1, out=s[:, 1:])
        t = np.zeros_like(s)
        ds.cumsum(axis=1, out=t[:, 1:])

        # flat indices of node j of row b are offset[b] + j
        N = ds.shape[1]
        offset = np.arange(points.shape[0])[:, None] * (N + 1)
        s_flat, t_flat = s.ravel(), t.ravel()

        targets = _fractions(m) * s[:, -1:]
        j = (_search_sorted_rows(s, targets, "right") - 1).clip(0, N - 1) + offset
        slope = (t_flat[j + 1] - t_flat[j]) / (s_flat[j + 1] - s_flat[j])
        tau = slope * (targets - s_flat[j]) + t_flat[j]
        tau[:, -1] = t[:, -1]

        seg = _search_sorted_rows(t, tau, "left")
        b = (seg - 2).clip(0, N - 3) + offset
        t0, t1, t2, t3 = t_flat[b], t_flat[b + 1], t_flat[b + 2], t_flat[b + 3]
        d0, d1, d2, d3 = tau - t0, tau - t1, tau - t2, tau - t3
        w0 = d1 * d2 * d3 / ((t0 - t1) * (t0 - t2) * (t0 - t3))
        w1 = d0 * d2 * d3 / ((t1 - t0) * (t1 - t2) * (t1 - t3))
        w2 = d0 * d1 * d3 / ((t2 - t0) * (t2 - t1) * (t2 - t3))
        w3 = d0 * d1 * d2 / ((t3 - t0) * (t3 - t1) * (t3 - t2))
        out = np.empty((points.shape[0], m + 1, 2))
        for axis, coord in enumerate((x.ravel(), y.ravel())):
            out[..., axis] = (w0 * coord[b] + w1 * coord[b + 1]
                              + w2 * coord[b + 2] + w3 * coord[b + 3])
        out[:, 0] = points[:, 0]
        out[:, -1] = points[:, -1]
        out[:, 0, 0] = line_left
        out[:, -1, 0] = line_right
        valid &= np.isfinite(out).all(axis=(1, 2))
    return out, valid
