"""Reference values and reference routines that the tests check the package against.

Every constant below was produced by evaluating the continuum geometry of the
stated initial curve with 40-digit arithmetic (symbolic arc-length
parametrisation integrated adaptively), then rounded to double precision.
Tests compare package output against these numbers at tolerances matching the
discretisation order, never against values produced by the package itself.

`arc_length` measures the piecewise-cubic interpolant that resampling
evaluates, by Gauss quadrature of its speed (`lagrange_velocity`); the
resampling tests use it to show that resampling keeps the length.  Only the
tests use it, so it lives here rather than in the package.

`wrapped_turns` and `lagrange_weights` are the textbook formulas of two
geometry kernels that the package evaluates with fewer operations, and
`resample_uniform_reference` is resampling of one curve by `np.interp`,
`np.searchsorted` and those formulas; the tests hold the package's batched
versions to their bits.

`psw_sample_study_reference` is the Poincare sample study as it was written
before it reused one sample buffer: each block is a fresh product, so the
tests can hold the package's study to the same report.

`mutant_speed` builds wrong flows, F = k_s4 + a k^2 k_ss + b k k_s^2 with
(a, b) other than the paper's (1, -1/2), which the checks must tell apart.

`energy_gradient_mismatch` takes what F must be from the energy alone: the
flow is the L2 steepest descent of E = 1/2 int k_s^2 ds, so a variation of
the curve changes E by -int F <dgamma, N> ds, with no boundary terms under
the contact conditions.
"""
from __future__ import annotations

import math

import numpy as np

import hexaflow.flow
from hexaflow.curve import DiscreteCurve, compute_geometry, integrate, resample_uniform
from hexaflow.verify import (
    PSW_GRID,
    PSW_LENGTH,
    PSW_MAX_MODE,
    PSW_TOLERANCE,
    CheckReport,
    check_psw,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)

# y = 0.05 cos(pi (x + 1) / 2) between lines x = -1 and x = 1.
COSINE_A005_M1 = {
    "length": 2.003080693285598,
    "knorm2": 0.015161806827569388,
    "ksnorm2": 0.03729743451246635,
    "kssnorm2": 0.09179268427270215,
    "ksssnorm2": 0.22685176637704648,
    # cross terms of the curvature identities
    "k2ks2": 1.4268590505808997e-4,      # int k^2 k_s^2
    "kss2k2": 1.0608618632006161e-3,     # int k_ss^2 k^2
    "kssks2k": -3.4354840264145488e-4,   # int k_ss k_s^2 k
    "kssk5": -5.443826939938202e-6,      # int k_ss k^5
    "ks2k4": 1.0887653879876405e-6,      # int k_s^2 k^4
    # speed functional
    "minus_kF": -0.09129328360499884,    # -int k F
    "F2": 0.5752222096691099,            # int F^2
    # small-energy margin at the initial length
    "delta": 0.49084594188246976,
}

# y = 0.1 cos(pi (x + 1)) between the same lines: margin is negative.
COSINE_A01_M2 = {
    "length": 2.0484704571283635,
    "ks_l03": 75.30890838702021,         # |k_s|_2^2 * L^3
    "delta": -74.51830202060854,
}

# (sqrt(1717) - 37) / 174 and its pi^3 multiple.
C0_REF = 0.025498268449432892
C0_PI3_REF = 0.7906063664116757


def lagrange_velocity(t: np.ndarray, pts: np.ndarray, tau: np.ndarray,
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
    d = np.diff(pts, axis=0)
    ds = np.hypot(d[:, 0], d[:, 1])
    if not (ds > 0.0).all():
        raise ValueError("coincident neighbouring nodes")
    t = np.concatenate([[0.0], np.cumsum(ds)])
    N = pts.shape[0] - 1
    mid = 0.5 * (t[:-1] + t[1:])
    half = 0.5 * ds
    tau = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    seg = np.repeat(np.arange(N), _GL_NODES.size)
    vel = lagrange_velocity(t, pts, tau, seg)
    speed = np.hypot(vel[:, 0], vel[:, 1]).reshape(N, _GL_NODES.size)
    return float(np.sum(speed @ _GL_WEIGHTS * half))


def wrapped_turns(raw: np.ndarray) -> np.ndarray:
    """Differences of consecutive chord angles wrapped into [-pi, pi): (d + pi) mod 2 pi - pi."""
    turns = raw[..., 1:] - raw[..., :-1]
    return (turns + np.pi) % (2.0 * np.pi) - np.pi


def lagrange_weights(nodes: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, ...]:
    """Weights w0..w3 of the nodes t_0..t_3 in the 4-point Lagrange interpolant at tau.

    Each is prod_{l != j} (tau - t_l) / prod_{l != j} (t_j - t_l), with the
    factors in increasing l.
    """
    weights = []
    for j in range(4):
        others = [l for l in range(4) if l != j]
        num = tau - nodes[others[0]]
        den = nodes[j] - nodes[others[0]]
        for l in others[1:]:
            num = num * (tau - nodes[l])
            den = den * (nodes[j] - nodes[l])
        weights.append(num / den)
    return tuple(weights)


def resample_uniform_reference(points: np.ndarray, m: int) -> np.ndarray:
    """The m+1 resampled nodes of one curve, by the arithmetic the package's resampling keeps.

    Segment arcs are chords times 1 + psi^2/24 (psi the mean turn at a
    segment's ends, the end turn on end segments); the equidistributed arc
    targets are pulled back to the chord parameter by `np.interp`, the
    interpolation nodes found by `np.searchsorted`, and the cubic through
    them evaluated with `lagrange_weights`; the end nodes are kept.  Raises
    ValueError on coincident neighbours.
    """
    pts = np.asarray(points, dtype=float)
    d = np.diff(pts, axis=0)
    ds = np.hypot(d[:, 0], d[:, 1])
    if not (ds > 0.0).all():
        raise ValueError("coincident neighbouring nodes")
    turns = wrapped_turns(np.arctan2(d[:, 1], d[:, 0]))
    psi = np.concatenate([turns[:1], 0.5 * (turns[:-1] + turns[1:]), turns[-1:]])
    s = np.concatenate([[0.0], np.cumsum(ds * (1.0 + psi * psi / 24.0))])
    t = np.concatenate([[0.0], np.cumsum(ds)])
    N = ds.size
    tau = np.interp(np.linspace(0.0, 1.0, m + 1) * s[-1], s, t)
    seg = np.clip(np.searchsorted(t, tau) - 1, 0, N - 1)
    b = np.clip(seg - 1, 0, N - 3)
    w0, w1, w2, w3 = (w[:, None] for w in lagrange_weights(t[b + np.arange(4)[:, None]], tau))
    out = w0 * pts[b] + w1 * pts[b + 1] + w2 * pts[b + 2] + w3 * pts[b + 3]
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


def psw_sample_study_reference(seed: int = 0, samples_per_mode: int = 1000) -> CheckReport:
    """Brute-force the Poincare-type inequalities over random trig samples.

    For every mode cap q = 1..PSW_MAX_MODE and both sample families (cosine
    sums are mean-zero, sine sums vanish at the ends), draws seeded Gaussian
    coefficient vectors on PSW_GRID + 1 points of [0, PSW_LENGTH] and runs
    check_psw on each sample.  The report carries the worst excess over all
    samples and enough context to reproduce any offender from the seed.
    """
    rng = np.random.default_rng(seed)
    s = np.linspace(0.0, PSW_LENGTH, PSW_GRID + 1)
    modes = np.arange(1, PSW_MAX_MODE + 1)
    cos_basis = np.cos(np.outer(modes, s) * (math.pi / PSW_LENGTH))
    sin_basis = np.sin(np.outer(modes, s) * (math.pi / PSW_LENGTH))
    worst: CheckReport | None = None
    worst_label = "none"
    checked = 0
    for cap in modes:
        for family, basis in (("mean-zero", cos_basis), ("dirichlet", sin_basis)):
            coeffs = rng.standard_normal((samples_per_mode, cap))
            fields = coeffs @ basis[:cap]
            for index in range(samples_per_mode):
                report = check_psw(fields[index], PSW_LENGTH, family)
                checked += 1
                if worst is None or report.residual > worst.residual:
                    worst = report
                    worst_label = f"family={family}, mode_cap={cap}, sample={index}"
    assert worst is not None
    return CheckReport(
        name="psw-sample-study",
        lhs=worst.lhs,
        rhs=worst.rhs,
        residual=float(worst.residual),
        tolerance=PSW_TOLERANCE,
        context=(f"{checked} samples ({samples_per_mode} per mode cap and family, "
                 f"mode caps 1..{PSW_MAX_MODE}, grid {PSW_GRID}, seed {seed}); "
                 f"worst: {worst_label}; {worst.context}"),
    )


def mutant_speed(a: float, b: float):
    """The normal speed F = k_s4 + a k^2 k_ss + b k k_s^2; (1, -0.5) gives the paper's bits."""
    def speed(profile):
        k, k_s = profile.k, profile.k_s
        return profile.k_s4 + a * k * k * profile.k_ss + b * k * k_s * k_s

    return speed


def _cosine_mode(m: int, x: np.ndarray) -> np.ndarray:
    """c_m = cos(m pi (x + 1) / 2): perpendicular at x = -1 and 1, every odd derivative 0 there."""
    return np.cos(0.5 * m * math.pi * (x + 1.0))


def energy_gradient_mismatch(base, j: int, n: int, eps: float = 1e-5) -> float:
    """Relative mismatch of dE/deps against -int F g cos(theta) ds at n nodes.

    The curve is the graph of y = sum_m base[m-1] c_m(x), sampled at 65,537
    dense points and resampled to n + 1; it varies by eps g, g = c_j in y,
    which keeps perpendicular contact.  dE/deps is the central difference
    at +-eps of E = 1/2 `integrate`(k_s^2), and the normal component of the
    variation (0, g) is g cos(theta).  F is `hexaflow.flow.normal_speed`,
    looked up at each call so that a patched speed is the one measured.
    """
    x = np.linspace(-1.0, 1.0, 65537)
    y = sum(a * _cosine_mode(m, x) for m, a in enumerate(base, 1))

    def profile(shift: float):
        dense = DiscreteCurve(np.column_stack([x, y + shift * _cosine_mode(j, x)]))
        curve = resample_uniform(dense, n)
        return curve, compute_geometry(curve)

    energies = [0.5 * integrate(p.k_s * p.k_s, p) for _, p in (profile(eps), profile(-eps))]
    slope = (energies[0] - energies[1]) / (2.0 * eps)
    curve, p = profile(0.0)
    speed = hexaflow.flow.normal_speed(p)
    predicted = -integrate(speed * _cosine_mode(j, curve.points[:, 0]) * np.cos(p.theta), p)
    return abs(slope - predicted) / abs(slope)
