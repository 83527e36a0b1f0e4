"""Geometry core: angles, curvature stencils, quadrature, resampling."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hexaflow import (
    DegenerateCurveError,
    DiscreteCurve,
    InitialSpec,
    ResolutionError,
    SpacingError,
    boundary_residuals,
    compute_geometry,
    generate_initial,
    integrate,
    parse_config,
    resample_uniform,
    run_flow,
)
from hexaflow.curve import (
    GAP_SCALE,
    _lagrange_weights,
    _search_sorted_rows,
    _segment_data,
    _turns,
    check_lines,
    compute_geometry_stack,
    resample_uniform_stack,
)

from oracles import (
    COSINE_A005_M1,
    arc_length,
    lagrange_velocity,
    lagrange_weights,
    resample_uniform_reference,
    wrapped_turns,
)


def _cosine(n: int, amplitude: float = 0.05, mode: int = 1) -> DiscreteCurve:
    return generate_initial(
        InitialSpec(kind="cosine-graph", amplitude=amplitude, mode=mode, n=n)
    )


def _circle_arc(n: int) -> DiscreteCurve:
    """Arc of the radius-2 circle through (-1, 0) and (1, 0), center (0, -sqrt(3))."""
    x = np.linspace(-1.0, 1.0, 8193)
    y = np.sqrt(4.0 - x * x) - math.sqrt(3.0)
    return resample_uniform(DiscreteCurve(np.column_stack([x, y]), -1.0, 1.0), n)


class TestCurveValidation:
    def test_too_few_nodes(self):
        pts = np.column_stack([np.linspace(-1.0, 1.0, 5), np.zeros(5)])
        with pytest.raises(ValueError, match="nodes"):
            DiscreteCurve(pts, -1.0, 1.0)

    def test_endpoint_off_line(self):
        pts = np.column_stack([np.linspace(-1.0, 1.0, 33), np.zeros(33)])
        pts[0, 0] = -0.999
        with pytest.raises(ValueError):
            DiscreteCurve(pts, -1.0, 1.0)

    def test_non_finite(self):
        pts = np.column_stack([np.linspace(-1.0, 1.0, 33), np.zeros(33)])
        pts[7, 1] = np.nan
        with pytest.raises(ValueError):
            DiscreteCurve(pts, -1.0, 1.0)

    def test_line_order(self):
        pts = np.column_stack([np.linspace(-1.0, 1.0, 33), np.zeros(33)])
        with pytest.raises(ValueError):
            DiscreteCurve(pts, 1.0, -1.0)

    def test_points_are_copied(self):
        pts = np.column_stack([np.linspace(-1.0, 1.0, 33), np.zeros(33)])
        curve = DiscreteCurve(pts, -1.0, 1.0)
        pts[5, 1] = 99.0
        assert curve.points[5, 1] == 0.0
        assert not curve.points.flags.writeable

    def test_line_scale_limits_are_inclusive(self):
        check_lines(0.0, GAP_SCALE)
        check_lines(0.0, 1.0 / GAP_SCALE)
        with pytest.raises(ValueError, match="line_right - line_left must lie within"):
            check_lines(0.0, np.nextafter(GAP_SCALE, np.inf))
        with pytest.raises(ValueError, match="line_right - line_left must lie within"):
            check_lines(0.0, np.nextafter(1.0 / GAP_SCALE, 0.0))
        # runs step between x = -1 and 1, so no offset of the lines is out of scale
        check_lines(1e13 - 2.0, 1e13)

    @pytest.mark.parametrize("n", [16, 256, 1024])
    def test_lines_at_the_offset_limit_run(self, n):
        # lines [X - 2, X] map to x = -1 and 1 exactly, so a run between them
        # is the origin's bit for bit, and so is its initial margin (with
        # nodes in absolute coordinates, the margin at n = 1024 read -0.83
        # at X = 1.7e8)
        def start(lines: str):
            config, spec, _ = parse_config(f"n: {n}\nt_end: 1.0\nmax_steps: 3\n"
                                           f"init: cosine-graph\n{lines}")
            curve, margin, _ = generate_initial(spec, with_margin=True)
            return run_flow(config, curve), margin

        origin, origin_margin = start("")
        assert origin_margin > 0.0
        for right in (1e3, 1e9, 1e13):
            trajectory, margin = start(f"line_left: {right - 2.0!r}\nline_right: {right!r}\n")
            assert margin == origin_margin, right
            assert trajectory.metadata["steps"] == 3
            assert len(trajectory.snapshots) == len(origin.snapshots)
            for a, b in zip(trajectory.snapshots, origin.snapshots):
                assert a.time == b.time
                assert np.array_equal(a.curve.points, b.curve.points), right


class TestGeometryOracles:
    def test_length(self, cosine_profile):
        h2 = cosine_profile.h ** 2
        assert cosine_profile.length == pytest.approx(
            COSINE_A005_M1["length"], abs=2.0 * h2
        )

    @pytest.mark.parametrize(
        "key,builder",
        [
            ("knorm2", lambda p: integrate(p.k ** 2, p)),
            ("ksnorm2", lambda p: integrate(p.k_s ** 2, p)),
            ("kssnorm2", lambda p: integrate(p.k_ss ** 2, p)),
            ("k2ks2", lambda p: integrate(p.k ** 2 * p.k_s ** 2, p)),
        ],
    )
    def test_norm_oracles(self, cosine_profile, key, builder):
        value = builder(cosine_profile)
        target = COSINE_A005_M1[key]
        assert value == pytest.approx(target, rel=5e-3)

    def test_second_order_convergence(self):
        errs = []
        for n in (128, 256):
            p = compute_geometry(_cosine(n))
            errs.append(abs(integrate(p.k_s ** 2, p) - COSINE_A005_M1["ksnorm2"]))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0

    def test_circle_interior_curvature(self):
        # The interior stencils see only real data four nodes in from the ends.
        errs = {}
        for n in (64, 128):
            p = compute_geometry(_circle_arc(n))
            errs[n] = float(np.abs(p.k[4:-4] + 0.5).max())
        assert errs[64] / errs[128] == pytest.approx(4.0, abs=0.4)

    def test_graph_branches_are_zero(self, cosine_profile):
        assert cosine_profile.branch_left == 0
        assert cosine_profile.branch_right == 0

    def test_profile_arrays_read_only(self, cosine_profile):
        for name in ("k", "k_s", "k_ss", "k_sss", "k_s4", "k_s5"):
            assert not getattr(cosine_profile, name).flags.writeable, name


class TestParity:
    def test_odd_derivatives_vanish_at_ends(self, cosine_profile):
        # Mirror extension makes curvature exactly even about the endpoints,
        # so every odd centered difference cancels in floating point.
        for arr in (cosine_profile.k_s, cosine_profile.k_sss, cosine_profile.k_s5):
            assert arr[0] == 0.0
            assert arr[-1] == 0.0

    @given(
        amplitude=st.floats(min_value=0.005, max_value=0.2),
        mode=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_parity_exactness_property(self, amplitude, mode):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            curve = _cosine(64, amplitude=amplitude, mode=mode)
        p = compute_geometry(curve)
        assert p.k_s[0] == 0.0 and p.k_s[-1] == 0.0
        assert p.k_sss[0] == 0.0 and p.k_sss[-1] == 0.0
        assert p.k_s5[0] == 0.0 and p.k_s5[-1] == 0.0


class TestGeometryErrors:
    def test_degenerate_segment(self):
        pts = np.column_stack([np.linspace(-1.0, 1.0, 33), np.zeros(33)])
        pts[6] = pts[5]
        with pytest.raises(DegenerateCurveError) as err:
            compute_geometry(DiscreteCurve(pts, -1.0, 1.0))
        assert err.value.index == 5

    def test_uneven_spacing(self):
        x = np.linspace(-1.0, 1.0, 33)
        h = x[1] - x[0]
        x[1:-1:2] += 0.3 * h
        pts = np.column_stack([x, np.zeros(33)])
        with pytest.raises(SpacingError):
            compute_geometry(DiscreteCurve(pts, -1.0, 1.0))

    def test_sharp_corner(self):
        x = np.linspace(-1.0, 1.0, 33)
        h = x[1] - x[0]
        y = 0.7 * h * np.where(np.arange(33) % 2 == 0, 1.0, -1.0)
        pts = np.column_stack([x, y])
        with pytest.raises(ResolutionError):
            compute_geometry(DiscreteCurve(pts, -1.0, 1.0))


class TestQuadrature:
    def test_constant_integrates_to_length(self, cosine_profile):
        ones = np.ones(cosine_profile.k.size)
        assert integrate(ones, cosine_profile) == pytest.approx(
            cosine_profile.length, rel=1e-15
        )

    def test_linearity(self, cosine_profile):
        f = cosine_profile.k
        g = cosine_profile.k_s
        combined = integrate(2.0 * f + 3.0 * g, cosine_profile)
        split = 2.0 * integrate(f, cosine_profile) + 3.0 * integrate(g, cosine_profile)
        assert combined == pytest.approx(split, abs=1e-14)


class TestBoundaryResiduals:
    def test_flat_segment_all_zero(self, flat_curve):
        res = boundary_residuals(compute_geometry(flat_curve))
        for value in res.values():
            assert value == 0.0

    def test_tilted_segment_perp_defect(self):
        slope = 0.2
        x = np.linspace(-1.0, 1.0, 65)
        curve = DiscreteCurve(np.column_stack([x, slope * x]), -1.0, 1.0)
        res = boundary_residuals(compute_geometry(curve))
        expect = abs(math.sin(math.atan(slope)))
        assert res["perp_left"] == pytest.approx(expect, rel=1e-12)
        assert res["perp_right"] == pytest.approx(expect, rel=1e-12)
        # interior curvature is zero up to angle roundoff through the stencils,
        # so the perpendicularity defect dominates the combined residual
        assert res["ks_left"] < 1e-10
        assert res["ks5_right"] < 1e-3
        assert max(res.values()) == res["perp_left"]

    def test_cosine_residuals_scale_h2(self, cosine_profile):
        res = boundary_residuals(cosine_profile)
        bound = 100.0 * cosine_profile.h ** 2
        assert max(res.values()) < bound


class TestResample:
    def test_uniform_spacing_and_pinned_ends(self, cosine_curve):
        out = resample_uniform(cosine_curve, 96)
        ds, _ = _segment_data(out.points)
        assert np.abs(ds - ds.mean()).max() < 1e-3 * ds.mean()
        assert out.points[0, 0] == -1.0
        assert out.points[-1, 0] == 1.0

    def test_idempotency(self, cosine_curve):
        again = resample_uniform(cosine_curve, cosine_curve.n)
        assert np.abs(again.points - cosine_curve.points).max() < 1e-10

    def test_preserves_arc_length(self):
        # Non-uniform samples of the reference cosine: resampling may move
        # nodes but must not change the measured length of the curve.
        x = np.linspace(-1.0, 1.0, 513)
        x = np.tanh(1.5 * x) / math.tanh(1.5)
        x[0], x[-1] = -1.0, 1.0
        y = 0.05 * np.cos(0.5 * math.pi * (x + 1.0))
        dense = DiscreteCurve(np.column_stack([x, y]), -1.0, 1.0)
        out = resample_uniform(dense, 128)
        assert abs(arc_length(out.points) - arc_length(dense.points)) < (
            1e-8 * arc_length(dense.points)
        )

    def test_arc_length_matches_adaptive_quadrature(self, cosine_curve):
        # Independent evaluation of the same interpolant with an adaptive rule.
        pts = cosine_curve.points
        ds, _ = _segment_data(pts)
        knots = np.concatenate([[0.0], np.cumsum(ds)])

        def speed_at(tau: float) -> float:
            tau_arr = np.atleast_1d(tau)
            seg = (np.searchsorted(knots, tau_arr) - 1).clip(0, ds.size - 1)
            vel = lagrange_velocity(knots, pts, tau_arr, seg)
            return float(np.hypot(vel[0, 0], vel[0, 1]))

        total = 0.0
        for j in range(ds.size):
            piece, _ = quad(speed_at, knots[j], knots[j + 1],
                            epsabs=1e-12, epsrel=1e-12)
            total += piece
        assert arc_length(pts) == pytest.approx(total, rel=1e-10)

    def test_rejects_tiny_target(self, cosine_curve):
        with pytest.raises(ValueError):
            resample_uniform(cosine_curve, 8)


def _stack_rows() -> list[np.ndarray]:
    """Node tables of 33 points: four valid curves, then one per rejection kind."""
    x = np.linspace(-1.0, 1.0, 33)
    h = x[1] - x[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the m = 2, 3 margins are negative
        rows = [_cosine(32, a, m).points.copy() for a, m in ((0.02, 1), (0.05, 2), (0.1, 3))]
    rows.append(np.column_stack([x, np.zeros(33)]))
    degenerate = np.column_stack([x, np.zeros(33)])
    degenerate[6] = degenerate[5]
    uneven = x.copy()
    uneven[1:-1:2] += 0.3 * h
    corner = np.column_stack([x, 0.7 * h * np.where(np.arange(33) % 2 == 0, 1.0, -1.0)])
    non_finite = _cosine(32).points.copy()
    non_finite[7, 1] = np.nan
    rows += [degenerate, np.column_stack([uneven, np.zeros(33)]), corner, non_finite]
    return rows


def _reference(pts: np.ndarray, m: int) -> np.ndarray:
    """`resample_uniform_reference` between the lines x = -1 and 1, rejecting what the package rejects."""
    curve = DiscreteCurve(pts, -1.0, 1.0)
    return DiscreteCurve(resample_uniform_reference(curve.points, m), -1.0, 1.0).points


class TestStackKernels:
    """The batched kernels against the single-curve functions and references, row by row."""

    def test_geometry_rows_equal_single_results(self):
        rows = _stack_rows()
        stack = compute_geometry_stack(np.stack(rows))
        for b, pts in enumerate(rows):
            try:
                profile = compute_geometry(DiscreteCurve(pts, -1.0, 1.0))
            except ValueError:
                assert not stack.valid[b], b
                continue
            assert stack.valid[b], b
            assert stack.h[b] == profile.h
            assert np.array_equal(stack.theta[b], profile.theta)
            assert np.array_equal(stack.k[b], profile.k)
            assert np.array_equal(stack.k_s[b], profile.k_s)
            assert np.array_equal(stack.k_ss[b], profile.k_ss)
            assert np.array_equal(stack.k_s4[b], profile.k_s4)
        assert stack.valid.tolist() == [True] * 4 + [False] * 4

    @pytest.mark.parametrize("m", [32, 48])
    def test_resample_rows_equal_single_results(self, m):
        rng = np.random.default_rng(3)
        rows = _stack_rows()
        # jitter interior nodes so that resampling has work to do
        for pts in rows[:3]:
            pts[1:-1] += 1e-3 * rng.standard_normal(pts[1:-1].shape)
        out, valid = resample_uniform_stack(np.stack(rows), m)
        for b, pts in enumerate(rows):
            try:
                single = _reference(pts, m)
            except ValueError:
                assert not valid[b], b
                continue
            assert valid[b], b
            assert np.array_equal(out[b], single), b

    @given(seed=st.integers(0, 2**32 - 1), side=st.sampled_from(["left", "right"]))
    @settings(max_examples=50, deadline=None)
    def test_row_search_matches_searchsorted(self, seed, side):
        # small integers make ties between and within the two arrays common;
        # side "right" is searched as side "left" at the next float up
        rng = np.random.default_rng(seed)
        table = np.sort(rng.integers(0, 12, (3, 17)), axis=1).astype(float)
        queries = np.sort(rng.integers(-1, 13, (3, 9)), axis=1).astype(float)
        shifted = queries if side == "left" else np.nextafter(queries, np.inf)
        found = _search_sorted_rows(table, shifted)
        for b in range(3):
            want = np.searchsorted(table[b], queries[b], side).tolist()
            assert found[b].tolist() == want
            # one row alone goes to np.searchsorted, as a run of one curve does
            assert _search_sorted_rows(table[b:b + 1], shifted[b:b + 1])[0].tolist() == want

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(16, 70))
    @settings(max_examples=25, deadline=None)
    def test_resample_of_jittered_curves_is_bitwise_single(self, seed, m):
        rng = np.random.default_rng(seed)
        x = np.linspace(-1.0, 1.0, 41)
        rows = []
        for _ in range(3):
            y = sum(a * np.cos(0.5 * (j + 1) * math.pi * (x + 1.0))
                    for j, a in enumerate(rng.uniform(-0.05, 0.05, 3)))
            pts = np.column_stack([x, y])
            pts[1:-1] += rng.uniform(-0.2, 0.2, (39, 2)) * (x[1] - x[0])
            rows.append(pts)
        out, valid = resample_uniform_stack(np.stack(rows), m)
        assert valid.all()
        for b, pts in enumerate(rows):
            single = _reference(pts, m)
            assert np.array_equal(out[b], single)
            assert np.array_equal(resample_uniform(DiscreteCurve(pts, -1.0, 1.0), m).points, single)

    @pytest.mark.parametrize("m", [16, 32, 64])
    def test_resample_with_targets_on_nodes_is_bitwise_single(self, m):
        # Dyadic nodes on a flat and on a tilted line (chords 1/16 and 5/64,
        # both exact): every chord parameter is exact and the turns are zero,
        # so arc targets land exactly on nodes (on every node for m = n, on
        # every other node for m = n/2, every other target for m = 2n) and
        # both row searches meet ties.
        x = -1.0 + np.arange(33) / 16.0
        rows = [np.column_stack([x, np.zeros(33)]),
                np.column_stack([x, np.arange(33) * 3.0 / 64.0]),
                _cosine(32).points]
        ds, _ = _segment_data(rows[1])
        assert (ds == 5.0 / 64.0).all()
        targets = np.linspace(0.0, 1.0, m + 1) * 2.5
        on_nodes = np.isin(targets, np.arange(33) * 5.0 / 64.0)
        assert on_nodes.sum() == min(m, 32) + 1
        out, valid = resample_uniform_stack(np.stack(rows), m)
        assert valid.all()
        for b, pts in enumerate(rows):
            single = _reference(pts, m)
            assert np.array_equal(out[b], single), b
            assert np.array_equal(resample_uniform(DiscreteCurve(pts, -1.0, 1.0), m).points,
                                  single), b
        if m == 32:
            assert np.array_equal(out[0], rows[0])
            assert np.array_equal(out[1], rows[1])

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(16, 70))
    @settings(max_examples=25, deadline=None)
    def test_stack_of_one_is_bitwise_single(self, seed, m):
        rng = np.random.default_rng(seed)
        curve = _cosine(m, amplitude=rng.uniform(0.0, 0.05))
        stack = compute_geometry_stack(curve.points[None])
        profile = compute_geometry(curve)
        assert stack.valid.tolist() == [True] and stack.h[0] == profile.h
        for name in ("theta", "k", "k_s", "k_ss", "k_s4"):
            assert np.array_equal(getattr(stack, name)[0], getattr(profile, name)), name

    def test_take_and_put_rows(self):
        stack = compute_geometry_stack(np.stack(_stack_rows()[:4]))
        part = stack.take(np.array([2, 0]))
        assert np.array_equal(part.k[1], stack.k[0])
        stack.put(np.array([1]), part.take(np.array([1])))
        assert np.array_equal(stack.k[1], stack.k[0])
        assert stack.h[1] == stack.h[0]


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal float64 bit patterns, NaN matching NaN."""
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


class TestKernelOracles:
    """The leaner geometry kernels against their textbook formulas in `oracles`."""

    @given(seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([0.3, 1.5, math.pi, 50.0]))
    @settings(max_examples=60, deadline=None)
    def test_turns_match_the_wrap(self, seed, spread):
        # chord angles come from arctan2, within [-pi, pi]; a spread of pi and
        # more makes turns beyond +-pi, which need the remainder
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-spread, spread, (4, 33))
        raw[rng.random(4) < 0.25, rng.integers(0, 33)] = np.nan
        assert _same_bits(_turns(raw), wrapped_turns(raw))
        for row in raw:   # each row alone takes its own branch
            assert _same_bits(_turns(row), wrapped_turns(row))

    def test_turns_at_the_ends_of_the_wrap(self):
        # turns of exactly -pi and pi, and one ulp inside either
        pi_below = np.nextafter(np.pi, 0.0)
        for row in ([0.0, np.pi, 0.0], [0.0, -np.pi], [0.0, pi_below, 0.0, -pi_below],
                    [np.pi, -np.pi, np.pi], [np.nan, 0.0, 1.0]):
            raw = np.array(row)
            assert _same_bits(_turns(raw), wrapped_turns(raw)), row

    @given(seed=st.integers(0, 2**32 - 1), ties=st.integers(0, 3), nan=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_lagrange_weights_match_the_formula(self, seed, ties, nan):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.uniform(0.01, 0.2, 40))
        for k in rng.integers(0, 39, ties):
            t[k + 1] = t[k]
        if nan:
            t[rng.integers(0, 40)] = np.nan
        b = rng.integers(0, 37, 300)
        tau = t[b] + rng.uniform(-0.1, 0.5, 300)
        c = rng.standard_normal((4, 300))
        nodes = t[b + np.arange(4)[:, None]]
        with np.errstate(divide="ignore", invalid="ignore"):
            got = _lagrange_weights(nodes, tau)   # w0, -w1, w2, -w3
            want = lagrange_weights(nodes, tau)
            value = got[0] * c[0] - got[1] * c[1] + got[2] * c[2] - got[3] * c[3]
            expect = want[0] * c[0] + want[1] * c[1] + want[2] * c[2] + want[3] * c[3]
        # a tie makes a zero denominator: the weight is infinite or NaN on
        # both sides, but -(t_i - t_j) is -0 where t_j - t_i is +0, so an
        # infinity may differ in sign; every finite weight has the same bits
        for j, sign in enumerate((1.0, -1.0, 1.0, -1.0)):
            finite = np.isfinite(want[j])
            assert np.array_equal(np.isfinite(got[j]), finite), j
            assert _same_bits(sign * got[j][finite], want[j][finite]), j
        finite = np.isfinite(expect)
        assert np.array_equal(np.isfinite(value), finite)
        assert _same_bits(value[finite], expect[finite])
        if ties or nan:
            assert not finite.all()


@given(
    amps=st.lists(
        st.floats(min_value=-0.03, max_value=0.03), min_size=1, max_size=4
    )
)
@settings(max_examples=25, deadline=None)
def test_graph_winding_is_exactly_zero(amps):
    """Trapezoid curvature integral telescopes, so graphs have zero turning."""
    x = np.linspace(-1.0, 1.0, 257)
    y = np.zeros_like(x)
    for j, a in enumerate(amps):
        y += a * np.cos(0.5 * (j + 1) * math.pi * (x + 1.0))
    curve = resample_uniform(DiscreteCurve(np.column_stack([x, y]), -1.0, 1.0), 64)
    p = compute_geometry(curve)
    assert abs(integrate(p.k, p)) < 1e-12
