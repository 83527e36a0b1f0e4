"""Independent numerical verification of the flow's conservation laws.

Every check recomputes its integrals from raw snapshot curves and
approximates time derivatives by centered differences over snapshots, so it
shares nothing with the stepper's internals and genuinely cross-checks them.
Identity checks use relative residuals with denominator
max(|lhs|, |rhs|, floor), where the floor is a tiny fraction of the
trajectory's peak rate, so stationary states compare 0 against 0 cleanly and
the fully decayed tail of a run is not scored on rounding noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import GeometryProfile, boundary_residuals, compute_geometry, integrate
from .diagnostics import Trajectory
from .flow import normal_speed

RESIDUAL_FLOOR = 1e-12    # absolute fallback so 0-vs-0 comparisons stay defined
# Fraction of the peak rate below which a comparison measures rounding, not
# dynamics: node rounding through the h^-4..h^-5 stencils leaves the F and
# k_s5 quadratures absolute noise floors measured near 1.6e-7 of the peak
# rate at n = 256, and the decayed tail of a run sits entirely below them.
NOISE_REL = 1e-4
TOLERANCE_SCALE = 5.0     # identity tolerance = scale * (h^2 + snapshot spacing)
KSS_TOLERANCE = 0.05      # relative excess the |k_ss|^2 decay inequality may show
BOUNDARY_SCALE = 100.0    # boundary residual tolerance = scale * h^2
MIN_SNAPSHOTS = 3         # the identity checks difference three consecutive snapshots
PSW_TOLERANCE = 1e-3      # excess over 1 a Poincare-type ratio may show
PSW_MAX_MODE = 8          # highest mode cap of the sample study
PSW_GRID = 1024           # sample study intervals on [0, PSW_LENGTH]
PSW_SAMPLES = 1000        # sample study draws per mode cap and family
PSW_LENGTH = math.pi


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check; passed iff |residual| <= tolerance."""

    name: str
    lhs: float | tuple[float, ...]
    rhs: float | tuple[float, ...]
    residual: float
    tolerance: float
    context: str
    passed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(abs(self.residual) <= self.tolerance))


def _centered_dt(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Three-point derivative of a series at interior sample times.

    Written in difference form so a constant series differentiates to an
    exact zero instead of a roundoff residue.
    """
    dt1 = times[1:-1] - times[:-2]
    dt2 = times[2:] - times[1:-1]
    fwd = values[2:] - values[1:-1]
    bwd = values[1:-1] - values[:-2]
    return (dt1 * dt1 * fwd + dt2 * dt2 * bwd) / (dt1 * dt2 * (dt1 + dt2))


def _build_profiles(trajectory: Trajectory) -> tuple[GeometryProfile, ...]:
    return tuple(compute_geometry(snap.curve) for snap in trajectory.snapshots)


def snapshot_profiles(trajectory: Trajectory) -> tuple[GeometryProfile, ...]:
    """The geometry of every stored curve of `trajectory`, one profile per snapshot.

    Built on the first call and kept with that trajectory object, so all the
    checks of one trajectory measure each snapshot once; a new Trajectory of
    the same snapshots builds them again.
    """
    return trajectory.derived(_build_profiles)


def _snapshot_series(trajectory: Trajectory):
    snaps = trajectory.snapshots
    if len(snaps) < MIN_SNAPSHOTS:
        raise ValueError(f"need at least {MIN_SNAPSHOTS} snapshots, got {len(snaps)}")
    return trajectory.times, snapshot_profiles(trajectory)


def _identity_tolerance(times: np.ndarray, profiles: tuple[GeometryProfile, ...]) -> float:
    return TOLERANCE_SCALE * (profiles[0].h ** 2 + float(np.diff(times).max()))


def _noise_floor(*sides: np.ndarray) -> float:
    # Time-difference rates carry an absolute noise of about ulp(series)/dt
    # and the quadratures one of ulp/h^5, so once both sides sit this far
    # below the trajectory's peak rate the comparison measures rounding, not
    # the identity; such points are normalized by the floor instead.
    scale = max(float(np.abs(side).max(initial=0.0)) for side in sides)
    return max(NOISE_REL * scale, RESIDUAL_FLOOR)


def _relative_mismatch(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), _noise_floor(lhs, rhs))
    return np.abs(lhs - rhs) / denom


def _identity_report(name: str, times: np.ndarray, profiles: tuple[GeometryProfile, ...],
                     series: np.ndarray, rhs: np.ndarray, what: str,
                     bound_violation: float | None = None) -> CheckReport:
    """Centered time difference of `series` against `rhs` at interior snapshots.

    The residual is the worst relative mismatch, or `bound_violation` where
    that is larger; the tolerance is the identity tolerance.
    """
    lhs = _centered_dt(times, series)
    mismatch = _relative_mismatch(lhs, rhs)
    worst = int(np.argmax(mismatch))
    residual = float(mismatch[worst])
    context = f"{what} at {lhs.size} interior snapshots, worst at t={times[worst + 1]:.6g}"
    if bound_violation is not None:
        residual = max(residual, bound_violation)
        context += f"; decay bound violation {bound_violation:.3g}"
    return CheckReport(name=name, lhs=float(lhs[worst]), rhs=float(rhs[worst]), residual=residual,
                       tolerance=float(_identity_tolerance(times, profiles)), context=context)


def check_dissipation(trajectory: Trajectory) -> CheckReport:
    """Energy dissipation: d/dt of the squared k_s norm equals -2 * integral of F^2.

    The left side is a centered difference of the recomputed norm series, the
    right side is the speed quadrature at matching snapshots; the residual is
    the worst relative mismatch over interior snapshots.
    """
    times, profiles = _snapshot_series(trajectory)
    ksn = np.array([integrate(p.k_s * p.k_s, p) for p in profiles])
    diss = np.array([integrate(normal_speed(p) ** 2, p) for p in profiles])
    return _identity_report("dissipation", times, profiles, ksn, -2.0 * diss[1:-1],
                            "d/dt |k_s|^2 vs -2*int(F^2)")


def check_length_identity(trajectory: Trajectory) -> CheckReport:
    """Length decrease: dL/dt equals -|k_ss|^2 + (7/2) * integral of k^2 k_s^2.

    Also asserts the sufficient decay bound: whenever the bracket
    1 - 7 (L^3/pi^3) |k_s|^2 is positive, the identity's right side must not
    exceed -bracket * |k_ss|^2.  Both violations fold into the residual.
    """
    times, profiles = _snapshot_series(trajectory)
    length = np.array([p.length for p in profiles])
    ksn = np.array([integrate(p.k_s * p.k_s, p) for p in profiles])
    kssn = np.array([integrate(p.k_ss * p.k_ss, p) for p in profiles])
    cross = np.array([integrate(p.k * p.k * p.k_s * p.k_s, p) for p in profiles])
    rhs = (-kssn + 3.5 * cross)[1:-1]

    bracket = 1.0 - 7.0 * length ** 3 / math.pi ** 3 * ksn
    bound = -bracket[1:-1] * kssn[1:-1]
    applies = bracket[1:-1] > 0.0
    excess = np.where(
        applies,
        (rhs - bound) / np.maximum(np.abs(bound), _noise_floor(bound)),
        0.0,
    )
    bound_violation = float(np.clip(excess, 0.0, None).max(initial=0.0))
    return _identity_report("length-identity", times, profiles, length, rhs,
                            "dL/dt vs -|k_ss|^2 + 3.5*int(k^2 k_s^2)", bound_violation)


def check_k2_identity(trajectory: Trajectory) -> CheckReport:
    """Curvature norm evolution: d/dt |k|^2 equals its five-term quadrature.

    The right side is -2|k_sss|^2 + 5*int(k_ss^2 k^2) + 5*int(k_ss k_s^2 k)
    + int(k_ss k^5) - (1/2)*int(k_s^2 k^4), recomputed per snapshot.
    """
    times, profiles = _snapshot_series(trajectory)
    knorm2 = np.array([integrate(p.k * p.k, p) for p in profiles])
    rhs_all = np.empty(len(profiles))
    for i, p in enumerate(profiles):
        k, k_s, k_ss, k_sss = p.k, p.k_s, p.k_ss, p.k_sss
        rhs_all[i] = (
            -2.0 * integrate(k_sss * k_sss, p)
            + 5.0 * integrate(k_ss * k_ss * k * k, p)
            + 5.0 * integrate(k_ss * k_s * k_s * k, p)
            + integrate(k_ss * k ** 5, p)
            - 0.5 * integrate(k_s * k_s * k ** 4, p)
        )
    return _identity_report("k2-identity", times, profiles, knorm2, rhs_all[1:-1],
                            "d/dt |k|^2 vs five-term quadrature")


def check_kss_inequality(trajectory: Trajectory) -> CheckReport:
    """Decay inequality for |k_ss|^2 with the small-energy bracket.

    Verifies d/dt |k_ss|^2 <= bracket * |k_s5|^2 - (3/L) |k_ss|^4 at interior
    snapshots, with bracket = -2 + 74 (L^3/pi^3) |k_s|^2
    + 174 (L^6/pi^6) |k_s|^4.  The residual is the worst relative excess of
    the left side over the right (0 when the inequality holds everywhere);
    the context reports the bracket's range, which stays negative in the
    small-energy regime.
    """
    times, profiles = _snapshot_series(trajectory)
    kssn = np.array([integrate(p.k_ss * p.k_ss, p) for p in profiles])
    ksn = np.array([integrate(p.k_s * p.k_s, p) for p in profiles])
    ks5n = np.array([integrate(p.k_s5 * p.k_s5, p) for p in profiles])
    length = np.array([p.length for p in profiles])
    ratio = length ** 3 / math.pi ** 3
    bracket = -2.0 + 74.0 * ratio * ksn + 174.0 * ratio ** 2 * ksn ** 2
    lhs = _centered_dt(times, kssn)
    rhs = (bracket * ks5n - 3.0 / length * kssn ** 2)[1:-1]
    # Same noise floor as the identity checks: near flatness the fifth
    # derivative's quadrature is rounding noise and both sides are zero.
    excess = (lhs - rhs) / np.maximum(np.abs(rhs), _noise_floor(rhs))
    worst = int(np.argmax(excess))
    residual = float(max(excess[worst], 0.0))
    inner = bracket[1:-1]
    return CheckReport(
        name="kss-inequality",
        lhs=float(lhs[worst]),
        rhs=float(rhs[worst]),
        residual=residual,
        tolerance=KSS_TOLERANCE,
        context=(f"d/dt |k_ss|^2 <= bracket*|k_s5|^2 - (3/L)|k_ss|^4 at {lhs.size} "
                 f"interior snapshots; bracket in [{inner.min():.4g}, {inner.max():.4g}], "
                 f"negative throughout: {bool((inner < 0.0).all())}"),
    )


def check_boundary_hierarchy(profile: GeometryProfile) -> CheckReport:
    """Contact conditions at the endpoints: odd curvature derivatives vanish.

    Reports one-sided estimates of |k_s|, |k_sss|, |k_s5| at both endpoints
    together with the perpendicularity defect of the end chords; passes when
    all stay below BOUNDARY_SCALE * h^2.
    """
    res = boundary_residuals(profile)
    order = ("ks_left", "ks_right", "ksss_left", "ksss_right",
             "ks5_left", "ks5_right", "perp_left", "perp_right")
    values = tuple(float(res[name]) for name in order)
    return CheckReport(
        name="boundary-hierarchy",
        lhs=values,
        rhs=0.0,
        residual=float(max(values)),
        tolerance=float(BOUNDARY_SCALE * profile.h ** 2),
        context="one-sided endpoint residuals, order: " + ", ".join(order),
    )


def _trapezoid(values: np.ndarray, dx: float) -> float:
    return float(dx * (values.sum() - 0.5 * (values[0] + values[-1])))


def check_psw(values: np.ndarray, length: float, mode: str = "mean-zero") -> CheckReport:
    """Poincare-type inequalities for a sampled function on [0, length].

    For mean-zero samples: int(f^2) <= (L^2/pi^2) int(f_s^2) and
    sup|f|^2 <= (2L/pi) int(f_s^2).  For Dirichlet samples (f = 0 at both
    ends) the same L2 bound holds and the sup bound sharpens to (L/pi).
    Samples must be uniform over [0, length] including the endpoints; the
    residual is the worst ratio's excess over 1, clamped at 0, and passes up
    to PSW_TOLERANCE.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 9:
        raise ValueError("need a 1-d sample of at least 9 points")
    if not length > 0.0:
        raise ValueError(f"length must be positive, got {length}")
    h = length / (v.size - 1)
    scale = float(np.abs(v).max())
    if mode == "mean-zero":
        mean = _trapezoid(v, h) / length
        if abs(mean) > 1e-9 * max(scale, 1.0):
            raise ValueError(f"sample mean {mean:.3g} is not zero; remove it first")
        sup_const = 2.0 / math.pi
    elif mode == "dirichlet":
        if max(abs(v[0]), abs(v[-1])) > 1e-12 * max(scale, 1.0):
            raise ValueError("sample must vanish at both endpoints")
        sup_const = 1.0 / math.pi
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'mean-zero' or 'dirichlet'")

    f_s = np.gradient(v, h, edge_order=2)
    int_f2 = _trapezoid(v * v, h)
    int_fs2 = _trapezoid(f_s * f_s, h)
    sup2 = scale * scale
    bound_l2 = length ** 2 / math.pi ** 2 * int_fs2
    bound_sup = sup_const * length * int_fs2
    if int_fs2 <= 0.0:
        ratio_l2 = ratio_sup = 0.0
    else:
        ratio_l2 = int_f2 / bound_l2
        ratio_sup = sup2 / bound_sup
    residual = max(0.0, ratio_l2 - 1.0, ratio_sup - 1.0)
    return CheckReport(
        name=f"psw-{mode}",
        lhs=(float(int_f2), float(sup2)),
        rhs=(float(bound_l2), float(bound_sup)),
        residual=float(residual),
        tolerance=PSW_TOLERANCE,
        context=(f"{mode} sample, {v.size} points on [0, {length:.6g}]; "
                 f"ratios L2={ratio_l2:.8f}, sup={ratio_sup:.8f}"),
    )


def psw_sample_study(seed: int = 0) -> CheckReport:
    """Brute-force the Poincare-type inequalities over random trig samples.

    For every mode cap q = 1..PSW_MAX_MODE and both sample families (cosine
    sums are mean-zero, sine sums vanish at the ends), draws PSW_SAMPLES
    seeded Gaussian coefficient vectors on PSW_GRID + 1 points of
    [0, PSW_LENGTH] and runs check_psw on each sample.  The report carries the
    worst excess over all samples and enough context to reproduce any
    offender from the seed.
    """
    rng = np.random.default_rng(seed)
    s = np.linspace(0.0, PSW_LENGTH, PSW_GRID + 1)
    modes = np.arange(1, PSW_MAX_MODE + 1)
    cos_basis = np.cos(np.outer(modes, s) * (math.pi / PSW_LENGTH))
    sin_basis = np.sin(np.outer(modes, s) * (math.pi / PSW_LENGTH))
    # One block buffer, refilled in place: a fresh product per block would keep
    # the previous block alive while the next is formed.  check_psw reads one
    # row at a time and the kept report holds no array.  The product stays
    # whole, since a row-blocked product rounds differently.
    fields = np.empty((PSW_SAMPLES, PSW_GRID + 1))
    worst: CheckReport | None = None
    worst_label = "none"
    checked = 0
    for cap in modes:
        for family, basis in (("mean-zero", cos_basis), ("dirichlet", sin_basis)):
            coeffs = rng.standard_normal((PSW_SAMPLES, cap))
            np.matmul(coeffs, basis[:cap], out=fields)
            for index in range(PSW_SAMPLES):
                report = check_psw(fields[index], PSW_LENGTH, family)
                checked += 1
                if worst is None or report.residual > worst.residual:
                    worst = report
                    worst_label = f"family={family}, mode_cap={cap}, sample={index}"
    return CheckReport(
        name="psw-sample-study",
        lhs=worst.lhs,
        rhs=worst.rhs,
        residual=float(worst.residual),
        tolerance=PSW_TOLERANCE,
        context=(f"{checked} samples ({PSW_SAMPLES} per mode cap and family, "
                 f"mode caps 1..{PSW_MAX_MODE}, grid {PSW_GRID}, seed {seed}); "
                 f"worst: {worst_label}; {worst.context}"),
    )
