"""Discrete open curves pinned to two vertical lines, and their geometry.

A curve is a polyline of n+1 nodes whose endpoints sit exactly on the
boundary lines x = line_left and x = line_right, by default the reference
lines x = -1 and 1 between which every run steps.  All geometry (curvature
and its arc-length derivatives up to fifth order) is computed from
tangent-angle differences on a mirror-extended node set, so that the
odd-order derivative conditions at the boundary hold by stencil symmetry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

GHOSTS = 3  # widest stencil is the 7-point fifth derivative: 3 ghosts per side

TWO_PI = 2.0 * np.pi

MIN_SEGMENTS = 16  # the fewest segments a curve may have

SPACING_TOL = 0.01  # relative deviation from uniform spacing the stencils accept

# the gap lies within 1/GAP_SCALE .. GAP_SCALE: a document's lines are mapped
# to x = -1 and 1 and its outputs back by powers half**-9 .. half**6 of the
# half gap, and 1e+-12 keeps all of them finite and normal (within 1e+-111)
GAP_SCALE = 1e12

# one-sided estimates of f', f''', f''''' at s=0 from samples at h..(m+2)h,
# second-order accurate; used for boundary residuals where the mirrored
# stencils vanish identically and would hide a violated contact condition
_ONESIDED_1 = np.array([-2.5, 4.0, -1.5])
_ONESIDED_3 = np.array([-3.5, 13.0, -18.0, 11.0, -2.5])
_ONESIDED_5 = np.array([-4.5, 26.0, -62.5, 80.0, -57.5, 22.0, -3.5])


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


def check_lines(line_left: float, line_right: float) -> None:
    """Reject lines that are not finite, not ordered, or a gap outside 1/GAP_SCALE .. GAP_SCALE."""
    for name, value in (("line_left", line_left), ("line_right", line_right)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not line_right > line_left:
        raise ValueError(f"line_right ({line_right}) must exceed line_left ({line_left})")
    gap = line_right - line_left
    if not 1.0 / GAP_SCALE <= gap <= GAP_SCALE:
        raise ValueError(f"line_right - line_left must lie within {1.0 / GAP_SCALE:g} .. "
                         f"{GAP_SCALE:g}, got {gap}")


@dataclass(frozen=True)
class DiscreteCurve:
    """Polyline with endpoints pinned exactly to two vertical lines."""

    points: np.ndarray          # (n+1, 2) float64 node positions
    line_left: float = -1.0
    line_right: float = 1.0

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n+1, 2), got {pts.shape}")
        if pts.shape[0] < MIN_SEGMENTS + 1:
            raise ValueError(f"need at least {MIN_SEGMENTS + 1} nodes (n >= {MIN_SEGMENTS}), "
                             f"got {pts.shape[0]}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain non-finite values")
        check_lines(self.line_left, self.line_right)
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
    k_s: np.ndarray             # (n+1,) arc-length derivatives of k: first
    k_ss: np.ndarray            # (n+1,) second
    k_sss: np.ndarray           # (n+1,) third
    k_s4: np.ndarray            # (n+1,) fourth
    k_s5: np.ndarray            # (n+1,) fifth
    length: float
    branch_left: int = field(default=0)   # pi-multiple of the left contact angle
    branch_right: int = field(default=0)  # pi-multiple of the right contact angle


def _chords(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment lengths and raw chord angles of (..., n+1, 2) nodes."""
    d = points[..., 1:, :] - points[..., :-1, :]
    return np.hypot(d[..., 0], d[..., 1]), np.arctan2(d[..., 1], d[..., 0])


def _running_sum(values: np.ndarray) -> np.ndarray:
    """Zero-based running sums along the last axis: node positions from segment lengths."""
    out = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,))
    values.cumsum(axis=-1, out=out[..., 1:])
    return out


def _segment_data(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment lengths and raw chord angles; rejects coincident neighbours."""
    ds, raw = _chords(points)
    if not (ds > 0.0).all():
        raise DegenerateCurveError(int(np.argmin(ds)))
    return ds, raw


def _turns(raw: np.ndarray) -> np.ndarray:
    """Turns at the interior nodes: chord-angle differences wrapped into [-pi, pi).

    The wrap is (turn + pi) mod 2 pi - pi.  The remainder returns its argument
    unchanged when every turn + pi lies in [0, 2 pi), as on any curve the
    geometry accepts, so it is taken only when one does not.
    """
    shifted = raw[..., 1:] - raw[..., :-1]
    shifted += np.pi
    if not (shifted.min(initial=0.0) >= 0.0 and shifted.max(initial=0.0) < TWO_PI):
        np.remainder(shifted, TWO_PI, out=shifted)
    shifted -= np.pi
    return shifted


def _unwrap(raw: np.ndarray, turns: np.ndarray) -> np.ndarray:
    """Chord-angle branch through raw[..., 0], as [..., 1:-1] of an (..., n+2) array.

    The two end entries are left for the ghost angles.
    """
    phi_e = np.empty(raw.shape[:-1] + (raw.shape[-1] + 2,))
    phi = phi_e[..., 1:-1]
    phi[..., :1] = raw[..., :1]
    turns.cumsum(axis=-1, out=phi[..., 1:])
    phi[..., 1:] += raw[..., :1]
    return phi_e


def _set_ghosts(phi_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill the two end entries of (..., n+2) chord angles with the mirror ghost angles.

    Mirror ghosts reflect an end chord through its contact branch; one ghost
    angle per side is enough to evaluate curvature at every node.  Returns,
    for both ends along a last axis of 2, the jump |end chord - ghost| and
    the pi-multiple of the contact.
    """
    last = phi_e.shape[-1] - 1
    ends = phi_e[..., 1:last:last - 2]
    branch = np.rint(ends / np.pi)
    ghosts = TWO_PI * branch - ends
    phi_e[..., ::last] = ghosts
    return np.abs(ends - ghosts), branch


def _curvature(phi_e: np.ndarray, ds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node curvature and tangent angle from ghost-extended chord angles."""
    ds_e = np.empty_like(phi_e)
    ds_e[..., 0] = ds[..., 0]
    ds_e[..., 1:-1] = ds
    ds_e[..., -1] = ds[..., -1]
    w = 0.5 * (ds_e[..., :-1] + ds_e[..., 1:])
    k = (phi_e[..., 1:] - phi_e[..., :-1]) / w
    theta = 0.5 * (phi_e[..., :-1] + phi_e[..., 1:])
    return k, theta


def _stencil_taps(k: np.ndarray) -> tuple[np.ndarray, ...]:
    """The seven neighbours k[j-3] .. k[j+3] of every node j on the even extension of k.

    The even extension about both end nodes reproduces the curvature of the
    mirror-extended node set exactly; central stencils on it make the odd
    orders vanish at the end nodes.  Odd-order stencils difference mirrored
    pairs first so that the even extension cancels bitwise there.
    """
    k_e = np.concatenate([k[..., GHOSTS:0:-1], k, k[..., -2:-2 - GHOSTS:-1]], axis=-1)
    return (k_e[..., :-6], k_e[..., 1:-5], k_e[..., 2:-4], k_e[..., 3:-3],
            k_e[..., 4:-2], k_e[..., 5:-1], k_e[..., 6:])


def _speed_derivatives(taps: tuple[np.ndarray, ...], h) -> tuple[np.ndarray, ...]:
    """k_s, k_ss and k_s4, the arc-length derivatives of k the normal speed uses.

    `h` broadcasts against the taps' node axis.
    """
    m3, m2, m1, c, p1, p2, p3 = taps
    h2 = h * h
    return ((p1 - m1) / (2.0 * h),
            (p1 - 2.0 * c + m1) / h2,
            (p2 - 4.0 * p1 + 6.0 * c - 4.0 * m1 + m2) / (h2 * h2))


def _odd_derivatives(taps: tuple[np.ndarray, ...], h) -> tuple[np.ndarray, np.ndarray]:
    """k_sss and k_s5, which only the diagnostics and checks read."""
    m3, m2, m1, c, p1, p2, p3 = taps
    h2 = h * h
    h3 = h2 * h
    d1 = p1 - m1
    d2 = p2 - m2
    return (d2 - 2.0 * d1) / (2.0 * h3), ((p3 - m3) - 4.0 * d2 + 5.0 * d1) / (2.0 * h2 * h3)


@lru_cache(maxsize=8)
def _fractions(m: int) -> np.ndarray:
    """Arc fractions of the m+1 nodes of a resampled curve."""
    if m < MIN_SEGMENTS:
        raise ValueError(f"resample target must satisfy m >= {MIN_SEGMENTS}, got {m}")
    f = np.linspace(0.0, 1.0, m + 1)
    f.setflags(write=False)
    return f


def compute_geometry(curve: DiscreteCurve) -> GeometryProfile:
    """Curvature and derivatives of a near-uniformly sampled curve.

    Chord angles are extended across each endpoint by the exact reflection
    identity of mirror ghosts, which makes the discrete curvature an even
    sequence about both boundary nodes.  Derivatives then come from central
    stencils on that even extension, so odd orders vanish exactly at the
    boundary nodes.

    Raises SpacingError when spacing deviates from uniform by more than
    SPACING_TOL (resample first), and ResolutionError when the tangent angle
    turns by more than pi/2 between neighbours.
    """
    pts = curve.points
    ds, raw = _segment_data(pts)
    h = float(ds.mean())
    dev = float(np.abs(ds - h).max())
    if dev > SPACING_TOL * h:
        raise SpacingError(
            f"spacing deviates {dev / h:.3%} from uniform (tolerance {SPACING_TOL:.1%}); "
            "resample the curve first"
        )

    turns = _turns(raw)
    phi_e = _unwrap(raw, turns)
    phi = phi_e[1:-1]
    jumps, (m_left, m_right) = _set_ghosts(phi_e)
    worst = max(float(np.abs(turns).max(initial=0.0)), float(jumps.max()))
    if worst > 0.5 * np.pi:
        raise ResolutionError(
            f"tangent angle jumps by {worst:.3f} rad (> pi/2); curve is under-resolved "
            "or violates perpendicular contact"
        )

    k, theta = _curvature(phi_e, ds)
    taps = _stencil_taps(k)
    k_s, k_ss, k_s4 = _speed_derivatives(taps, h)
    k_sss, k_s5 = _odd_derivatives(taps, h)
    s = _running_sum(ds)
    for arr in (s, ds, phi, theta, k, k_s, k_ss, k_sss, k_s4, k_s5):
        arr.setflags(write=False)
    return GeometryProfile(
        s=s, ds=ds, h=h, phi=phi, theta=theta, k=k, k_s=k_s, k_ss=k_ss, k_sss=k_sss,
        k_s4=k_s4, k_s5=k_s5, length=float(s[-1]), branch_left=int(m_left),
        branch_right=int(m_right),
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


def compute_geometry_stack(points: np.ndarray) -> GeometryStack:
    """`compute_geometry` of every curve in a (B, n+1, 2) stack at once.

    The same arithmetic runs along the batch axis, so each row equals the
    single-curve result exactly and no row depends on another.  Instead of
    raising, a row fails `valid` when its nodes are non-finite, a segment is
    degenerate, spacing is off by more than SPACING_TOL, or the tangent
    angle jumps by more than pi/2.  Non-finite nodes need no test of their
    own: they make h or the spacing deviation NaN or infinite, which fails
    the spacing test.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        ds, raw = _chords(points)
        h = ds.mean(axis=1)
        valid = (ds > 0.0).all(axis=1)
        valid &= np.abs(ds - h[:, None]).max(axis=1) <= SPACING_TOL * h
        turns = _turns(raw)
        phi_e = _unwrap(raw, turns)
        jumps, _ = _set_ghosts(phi_e)
        worst = np.maximum(np.abs(turns).max(axis=1, initial=0.0), jumps.max(axis=1))
        valid &= worst <= 0.5 * np.pi
        k, theta = _curvature(phi_e, ds)
        k_s, k_ss, k_s4 = _speed_derivatives(_stencil_taps(k), h[:, None])
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
    h = profile.h
    h2 = h * h
    residuals = {}
    for side, k, phi_end in (("left", profile.k, profile.phi[0]),
                             ("right", profile.k[::-1], profile.phi[-1])):
        residuals[f"ks_{side}"] = abs(float(_ONESIDED_1 @ k[1:4] / h))
        residuals[f"ksss_{side}"] = abs(float(_ONESIDED_3 @ k[1:6] / (h * h2)))
        residuals[f"ks5_{side}"] = abs(float(_ONESIDED_5 @ k[1:8] / (h * h2 * h2)))
        residuals[f"perp_{side}"] = abs(float(np.sin(phi_end)))
    return residuals


def _lagrange_weights(t: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, ...]:
    """Weights w0, -w1, w2, -w3 of the nodes t[0..3] in the 4-point Lagrange interpolant at tau.

    The interpolant is w0 c0 - (-w1) c1 + w2 c2 - (-w3) c3.  The denominators
    are products of the six node differences t_i - t_j, i < j, for
    t_j - t_i = -(t_i - t_j) exactly: w1 and w3 carry one such sign flip,
    which the minus signs of the combination take back, w2 carries two.  So
    the interpolant has the bits of the textbook formula wherever the
    denominators are nonzero.
    """
    t0, t1, t2, t3 = t
    d0, d1, d2, d3 = tau - t0, tau - t1, tau - t2, tau - t3
    t01, t02, t03, t12, t13, t23 = t0 - t1, t0 - t2, t0 - t3, t1 - t2, t1 - t3, t2 - t3
    d01 = d0 * d1
    return (d1 * d2 * d3 / (t01 * t02 * t03),
            d0 * d2 * d3 / (t01 * t12 * t13),
            d01 * d3 / (t02 * t12 * t23),
            d01 * d2 / (t03 * t13 * t23))


def _arc_and_chord(ds: np.ndarray, turns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node positions in turn-corrected arc s and in the chord parameter t.

    A segment's arc is its chord times 1 + psi^2/24 (the circle-arc turning
    correction), psi the mean turn at its ends, the end turn on end segments.
    """
    psi = np.empty_like(ds)
    psi[..., 1:-1] = 0.5 * (turns[..., :-1] + turns[..., 1:])
    psi[..., 0] = turns[..., 0]
    psi[..., -1] = turns[..., -1]
    return _running_sum(ds * (1.0 + psi * psi / 24.0)), _running_sum(ds)


def _clamp(index: np.ndarray, top: int) -> np.ndarray:
    """`index.clip(0, top)` in place, by the ufuncs without `clip`'s Python-level wrapper."""
    return np.minimum(np.maximum(index, 0, out=index), top, out=index)


def resample_uniform(curve: DiscreteCurve, m: int) -> DiscreteCurve:
    """Resample to m+1 nodes at equal arc spacing along the cubic interpolant.

    Per-segment arc is estimated from the chord with the circle-arc turning
    correction chord*(1 + turn^2/24); targets equidistribute that arc and are
    pulled back to the chord parameter, where the piecewise 4-point Lagrange
    interpolant is evaluated.  Endpoints are preserved exactly.
    """
    out, valid = resample_uniform_stack(curve.points[None], m)
    if not valid[0]:
        _segment_data(curve.points)  # names a pair of coincident nodes, if there is one
    return DiscreteCurve(out[0], curve.line_left, curve.line_right)


@lru_cache(maxsize=64)
def _flat_index(rows: int, width: int, size: int) -> np.ndarray:
    """(rows, size) flat positions of the first `size` entries of each row of a (rows, width) array."""
    index = np.arange(rows)[:, None] * width + np.arange(size)
    index.setflags(write=False)
    return index


def _search_sorted_rows(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """`np.searchsorted(table[b], queries[b])` (side "left") for every row b at once.

    Both arrays must be sorted along their rows.  One stable merge sort of
    each row of [queries, table] (queries first, so they precede equal table
    entries) places query j after j other queries, so its merged position
    minus j counts the table entries below it.  Side "right" at x is side
    "left" at np.nextafter(x, np.inf): no float lies between the two.  A
    single row goes to `np.searchsorted` itself.
    """
    rows, size = queries.shape
    if rows == 1:
        return np.searchsorted(table[0], queries[0])[None]
    width = size + table.shape[1]
    order = np.argsort(np.concatenate([queries, table], axis=1), axis=1, kind="stable")
    merged_at = np.flatnonzero(order < size).reshape(rows, size)
    return merged_at - _flat_index(rows, width, size)


_STENCIL = np.arange(4)[:, None, None]


def resample_uniform_stack(points: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """`resample_uniform` of every curve in a (B, n+1, 2) stack at once.

    Returns the (B, m+1, 2) resampled nodes and a (B,) mask that is False
    where `resample_uniform` rejects the curve: non-finite nodes or a
    degenerate segment, before or after resampling.  The arc targets are
    pulled back by the arithmetic of `np.interp`, repeated along the batch
    axis, so no row depends on another.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        ds, raw = _chords(points)
        valid = np.isfinite(points).all(axis=(1, 2)) & (ds > 0.0).all(axis=1)
        s, t = _arc_and_chord(ds, _turns(raw))

        # flat indices of node j of row b are offset[b] + j
        rows, N = ds.shape
        offset = _flat_index(rows, N + 1, 1)
        s_flat, t_flat = s.ravel(), t.ravel()

        targets = _fractions(m) * s[:, -1:]
        j = _clamp(_search_sorted_rows(s, np.nextafter(targets, np.inf)) - 1, N - 1) + offset
        s_j, t_j = s_flat[j], t_flat[j]
        j1 = j + 1
        slope = (t_flat[j1] - t_j) / (s_flat[j1] - s_j)
        tau = slope * (targets - s_j) + t_j
        tau[:, -1] = t[:, -1]

        # flat indices of the four interpolation nodes b..b+3 of every target,
        # formed once for their parameters and for both coordinates
        nodes = _clamp(_search_sorted_rows(t, tau) - 2, N - 3) + offset + _STENCIL
        w0, w1, w2, w3 = _lagrange_weights(t_flat[nodes], tau)
        out = np.empty((rows, m + 1, 2))
        for axis in range(2):
            c = points[..., axis].ravel()[nodes]
            out[..., axis] = w0 * c[0] - w1 * c[1] + w2 * c[2] - w3 * c[3]
        out[:, 0] = points[:, 0]
        out[:, -1] = points[:, -1]
        valid &= np.isfinite(out).all(axis=(1, 2))
    return out, valid
