"""Time stepping: speed law, implicit operator, step control, run loop."""
from __future__ import annotations

import functools
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import solve_banded

from hexaflow import (
    DegenerateCurveError,
    DiscreteCurve,
    FlowConfig,
    GeometryProfile,
    InitialSpec,
    SpacingError,
    compute_geometry,
    generate_initial,
    integrate,
    make_record,
    normal_speed,
    resample_uniform,
    run_ensemble,
    run_flow,
    step,
)
import hexaflow.flow as flow
from hexaflow.cli import main
from hexaflow.curve import compute_geometry_stack
from hexaflow.flow import (
    SIXTH_DIFF,
    _implicit_matrix,
    _sixth_difference_template,
    _solve_banded,
    _solve_mirror,
)

from oracles import decay_rates, energy_gradient_mismatch, implicit_euler_rate, mutant_speed


def _synthetic_profile(q: float, n: int = 32) -> GeometryProfile:
    """Analytic profile with k = cos(q s) on a unit-speed segment."""
    length = 2.0
    s = np.linspace(0.0, length, n + 1)
    return GeometryProfile(
        s=s,
        ds=np.diff(s),
        h=float(s[1] - s[0]),
        phi=np.zeros(n),
        theta=np.zeros(n + 1),
        k=np.cos(q * s),
        k_s=-q * np.sin(q * s),
        k_ss=-q ** 2 * np.cos(q * s),
        k_sss=q ** 3 * np.sin(q * s),
        k_s4=q ** 4 * np.cos(q * s),
        k_s5=-q ** 5 * np.sin(q * s),
        length=length,
        branch_left=0,
        branch_right=0,
    )


def _banded_to_dense(ab: np.ndarray) -> np.ndarray:
    m = ab.shape[1]
    dense = np.zeros((m, m))
    for i in range(m):
        for j in range(max(0, i - 3), min(m, i + 4)):
            dense[i, j] = ab[3 + i - j, j]
    return dense


class TestNormalSpeed:
    def test_cosine_curvature_wave(self):
        q = 2.0
        profile = _synthetic_profile(q)
        speed = normal_speed(profile)
        s = profile.s
        expect = (
            q ** 4 * np.cos(q * s)
            - q ** 2 * np.cos(q * s) ** 3
            - 0.5 * q ** 2 * np.cos(q * s) * np.sin(q * s) ** 2
        )
        assert np.abs(speed - expect).max() < 1e-12

    def test_value_at_origin(self):
        # At s = 0 the wave has k = 1, k_ss = -q^2, k_s = 0.
        for q in (1.0, 2.0, 3.5):
            speed = normal_speed(_synthetic_profile(q))
            assert speed[0] == pytest.approx(q ** 4 - q ** 2, rel=1e-14)


class TestImplicitTemplate:
    @pytest.mark.parametrize("fold", [1.0, -1.0])
    def test_matches_folded_convolution(self, fold):
        n = 16
        rng = np.random.default_rng(7)
        u = rng.standard_normal(n + 1)
        template = _sixth_difference_template(n, fold, False)
        dense = _banded_to_dense(np.asarray(template))
        # independent evaluation: extend u by reflection with the fold sign
        ext = np.concatenate([fold * u[3:0:-1], u, fold * u[-2:-5:-1]])
        expect = np.array([
            float(np.dot(SIXTH_DIFF, ext[i:i + 7])) for i in range(n + 1)
        ])
        assert np.abs(dense @ u - expect).max() < 1e-12

    def test_pinned_rows_are_zero(self):
        n = 16
        template = _banded_to_dense(
            np.asarray(_sixth_difference_template(n, -1.0, True))
        )
        assert np.all(template[0] == 0.0)
        assert np.all(template[n] == 0.0)
        # interior rows unchanged by pinning
        free = _banded_to_dense(
            np.asarray(_sixth_difference_template(n, -1.0, False))
        )
        assert np.array_equal(template[2:-2], free[2:-2])


def _stack(curve: DiscreteCurve):
    """A curve as the (1, n+1, 2) stack that `step` takes, and its geometry."""
    points = curve.points[None]
    return points, compute_geometry_stack(points)


class TestStep:
    def test_flat_curve_is_fixed_point(self, flat_curve):
        new_points, new_geometry = step(*_stack(flat_curve), 1e-3)
        assert new_geometry.valid.tolist() == [True]
        assert np.array_equal(new_points[0], flat_curve.points)

    def test_single_step_decreases_energy(self, cosine_curve, cosine_profile):
        dt = 0.1 * cosine_profile.h ** 2
        new_points, _ = step(*_stack(cosine_curve), dt)
        after = compute_geometry(DiscreteCurve(new_points[0], -1.0, 1.0))
        before = integrate(cosine_profile.k_s ** 2, cosine_profile)
        assert integrate(after.k_s ** 2, after) < before

    def test_normal_velocity_matches_speed_law(self, cosine_curve, cosine_profile):
        dt = 1e-8
        new_points, _ = step(*_stack(cosine_curve), dt)
        vel = (new_points[0] - cosine_curve.points) / dt
        nu = np.column_stack([-np.sin(cosine_profile.theta),
                              np.cos(cosine_profile.theta)])
        v_normal = (vel * nu).sum(axis=1)
        speed = normal_speed(cosine_profile)
        j = 32
        assert v_normal[j] == pytest.approx(speed[j], rel=1e-3)

    def test_endpoints_stay_on_lines(self, cosine_curve):
        new_points, _ = step(*_stack(cosine_curve), 1e-5)
        assert new_points[0, 0, 0] == -1.0
        assert new_points[0, -1, 0] == 1.0

    def test_geometry_is_that_of_the_new_curve(self, cosine_curve):
        new_points, new_geometry = step(*_stack(cosine_curve), 1e-5)
        profile = compute_geometry(DiscreteCurve(new_points[0], -1.0, 1.0))
        assert new_geometry.h[0] == profile.h
        for name in ("theta", "k", "k_s", "k_ss", "k_s4"):
            assert np.array_equal(getattr(new_geometry, name)[0], getattr(profile, name)), name

    def test_rejects_nonpositive_dt(self, cosine_curve):
        with pytest.raises(ValueError):
            step(*_stack(cosine_curve), 0.0)

    def test_geometry_failure_becomes_rejection(self, cosine_curve, monkeypatch):
        # the resampled curve gets two coincident nodes: the geometry check
        # marks the step invalid instead of raising
        real = flow.resample_uniform_stack

        def degenerate(points, m):
            out, valid = real(points, m)
            out[:, 5] = out[:, 4]
            return out, valid

        monkeypatch.setattr("hexaflow.flow.resample_uniform_stack", degenerate)
        _, new_geometry = step(*_stack(cosine_curve), 1e-6)
        assert new_geometry.valid.tolist() == [False]


class TestSelectDt:
    """The run loop's step size: dt_safety * h^2 with h^2 Python's float square, capped by
    the horizon, for a run alone and for an ensemble member alike."""

    def test_spacing_square_rule(self, cosine_curve, cosine_profile):
        config = FlowConfig(n=128, t_end=10.0, dt_safety=0.1, max_steps=1)
        traj = run_flow(config, cosine_curve)
        assert traj.metadata["final_time"] == 0.1 * cosine_profile.h ** 2

    def test_capped_by_horizon(self, cosine_curve, cosine_profile):
        nominal = 0.1 * cosine_profile.h ** 2
        config = FlowConfig(n=128, t_end=nominal + 1e-9, dt_safety=0.1, snapshot_every=1)
        traj = run_flow(config, cosine_curve)
        assert traj.metadata["termination"] == "t_end"
        assert traj.metadata["steps"] == 2
        assert traj.times[1] == nominal
        assert traj.times[2] - traj.times[1] == pytest.approx(1e-9, rel=1e-6)

    @pytest.mark.parametrize("runner", ["run_flow", "run_ensemble"])
    def test_spacing_square_is_the_python_float_square(self, runner):
        # at this amplitude numpy's array square of the initial spacing
        # differs from Python's float square in the last bit
        curve = _curve(0.05521, 1)
        h = compute_geometry(curve).h
        assert (np.array([h]) ** 2)[0] != float(h) ** 2

        def run(config):
            if runner == "run_flow":
                return run_flow(config, curve)
            return run_ensemble(config, [curve, _curve(0.02, 1)])[0]

        nominal = 0.1 * float(h) ** 2
        assert run(FlowConfig(n=32, t_end=1.0, max_steps=1)).metadata["final_time"] == nominal
        t_end = nominal + 1e-9
        capped = run(FlowConfig(n=32, t_end=t_end, snapshot_every=1))
        assert capped.metadata["steps"] == 2
        assert capped.times.tolist() == [0.0, nominal, nominal + (t_end - nominal)]


class TestFlowConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 8, "t_end": 1.0},
            {"n": 128, "t_end": 0.0},
            {"n": 128, "t_end": 1.0, "dt_safety": 0.0},
            {"n": 128, "t_end": 1.0, "dt_safety": 1.5},
            {"n": 128, "t_end": 1.0, "snapshot_every": 0},
            {"n": 128, "t_end": 1.0, "stop_knorm": np.nan},
            {"n": 128, "t_end": 1.0, "max_steps": 0},
            {"n": 128, "t_end": 1.0, "stop_knorm": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FlowConfig(**kwargs)


class TestRunFlow:
    def test_flat_run_never_moves(self, flat_run, flat_curve):
        for snap in flat_run.snapshots:
            assert np.array_equal(snap.curve.points, flat_curve.points)
        assert flat_run.metadata["termination"] == "max_steps"
        assert flat_run.metadata["steps"] == 400

    def test_snapshot_cadence(self, flat_run):
        assert len(flat_run.snapshots) == 5
        times = flat_run.times
        assert np.all(np.diff(times) > 0.0)

    def test_stop_knorm_terminates_immediately(self, flat_curve):
        config = FlowConfig(n=128, t_end=1.0, stop_knorm=1e-8)
        traj = run_flow(config, flat_curve)
        assert traj.metadata["termination"] == "stop_knorm"
        assert traj.metadata["steps"] == 0
        assert len(traj.snapshots) == 1

    def test_line_mismatch_rejected(self, cosine_curve):
        # runs step between x = -1 and 1; a curve between other lines is refused
        wide = DiscreteCurve(2.0 * cosine_curve.points, -2.0, 2.0)
        with pytest.raises(ValueError, match="lines x = -1 and 1, not -2.0 and 2.0"):
            run_flow(FlowConfig(n=128, t_end=1.0), wide)

    def test_nonzero_winding_rejected(self, u_turn_curve):
        config = FlowConfig(n=512, t_end=1.0)
        with pytest.raises(ValueError, match="winding"):
            run_flow(config, u_turn_curve)

    def test_resamples_to_config_resolution(self, cosine_curve):
        config = FlowConfig(n=64, t_end=1e-4, snapshot_every=1000)
        traj = run_flow(config, cosine_curve)
        assert traj.snapshots[0].curve.n == 64

    def test_metadata_echo(self, short_run):
        meta = short_run.metadata
        assert meta["termination"] == "t_end"
        assert meta["config"]["n"] == 128
        assert meta["rejections"] == 0
        assert meta["final_time"] == pytest.approx(0.2, rel=1e-9)
        assert meta["wall_time"] > 0.0

    def test_determinism_in_process(self, cosine_curve):
        config = FlowConfig(n=128, t_end=1e-3, snapshot_every=10)
        a = run_flow(config, cosine_curve)
        b = run_flow(config, cosine_curve)
        assert len(a.snapshots) == len(b.snapshots)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert sa.time == sb.time
            assert np.array_equal(sa.curve.points, sb.curve.points)

    def test_persistent_rejection_underflows(self, cosine_curve, monkeypatch):
        real_step = step

        def always_reject(points, geometry, dt):
            new_points, new_geometry = real_step(points, geometry, dt)
            new_geometry.valid[:] = False
            return new_points, new_geometry

        monkeypatch.setattr("hexaflow.flow.step", always_reject)
        config = FlowConfig(n=128, t_end=1.0)
        traj = run_flow(config, cosine_curve)
        assert traj.metadata["termination"] == "dt_underflow"
        assert traj.metadata["rejections"] == 41
        assert len(traj.snapshots) == 1

    def test_halving_recovers_from_transient_rejection(
        self, cosine_curve, monkeypatch
    ):
        real_step = step
        failures = {"left": 2}

        def flaky(points, geometry, dt):
            new_points, new_geometry = real_step(points, geometry, dt)
            if failures["left"] > 0:
                failures["left"] -= 1
                new_geometry.valid[:] = False
            return new_points, new_geometry

        monkeypatch.setattr("hexaflow.flow.step", flaky)
        config = FlowConfig(n=128, t_end=1.0, max_steps=1)
        traj = run_flow(config, cosine_curve)
        meta = traj.metadata
        assert meta["termination"] == "max_steps"
        assert meta["rejections"] == 2
        h = compute_geometry(cosine_curve).h
        # two halvings: the accepted step used a quarter of the nominal dt
        assert traj.snapshots[-1].time == pytest.approx(
            0.1 * h ** 2 / 4.0, rel=1e-12
        )


def _buffer(rhs: np.ndarray) -> np.ndarray:
    """(B, 2, n+1) right-hand sides in the (B, 2, 2n) buffer that the solves take."""
    n = rhs.shape[-1] - 1
    buffer = np.zeros(rhs.shape[:-1] + (2 * n,))
    buffer[..., :n + 1] = rhs
    return buffer


class TestMirrorSolve:
    """The FFT solve against `solve_banded` on the folded banded template."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_matches_banded_solve(self, n):
        h = 2.0 / n
        lam = 0.1 * h ** -4
        rng = np.random.default_rng(n)
        rhs = rng.standard_normal((3, 2, n + 1))
        rhs[:, 0, [0, n]] = 0.0
        # with h = 1, lam is dt itself
        out = _solve_mirror(_buffer(rhs), np.full(3, lam), np.ones(3))
        for b in range(3):
            for row, fold, pin in ((0, -1.0, True), (1, 1.0, False)):
                expect = solve_banded((3, 3), _implicit_matrix(n, fold, pin, lam),
                                      rhs[b, row])
                err = np.abs(out[b, row] - expect).max() / np.abs(expect).max()
                assert err <= 1e-9, (n, b, row, err)
            assert abs(out[b, 0, 0]) <= 1e-15
            assert abs(out[b, 0, n]) <= 1e-15

    def test_each_member_uses_its_own_lambda(self):
        n = 32
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal((2, 2, n + 1))
        rhs[:, 0, [0, n]] = 0.0
        lam = np.array([10.0, 1e5])
        both = _solve_mirror(_buffer(rhs), lam, np.ones(2))
        for b in range(2):
            alone = _solve_mirror(_buffer(rhs[b:b + 1]), lam[b:b + 1], np.ones(1))
            assert np.array_equal(both[b], alone[0])

    def test_banded_solve_forms_lambda_in_python_floats(self):
        n = 32
        h = np.array([2.0 / n * 1.01, 2.0 / n * 0.99])
        dt = 0.1 * h ** 2
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal((2, 2, n + 1))
        rhs[:, 0, [0, n]] = 0.0
        out = _solve_banded(_buffer(rhs), dt, h)
        for b in range(2):
            lam = float(dt[b]) / float(h[b]) ** 6
            for row, fold, pin in ((0, -1.0, True), (1, 1.0, False)):
                expect = solve_banded((3, 3), _implicit_matrix(n, fold, pin, lam), rhs[b, row])
                assert np.array_equal(out[b, row], expect), (b, row)


def _curve(amplitude: float, mode: int, n: int = 32) -> DiscreteCurve:
    return generate_initial(
        InitialSpec(kind="cosine-graph", amplitude=amplitude, mode=mode, n=n)
    )


def _two_mode_curve(n: int = 32) -> DiscreteCurve:
    """Modes 1 and 2 together, so neither mirror maps the curve onto itself."""
    x = np.linspace(-1.0, 1.0, 4097)
    y = 0.04 * np.cos(0.5 * math.pi * (x + 1.0)) + 0.01 * np.cos(math.pi * (x + 1.0))
    return resample_uniform(DiscreteCurve(np.column_stack([x, y]), -1.0, 1.0), n)


def _max_position_gap(a, b) -> float:
    assert len(a.snapshots) == len(b.snapshots)
    return max(float(np.abs(sa.curve.points - sb.curve.points).max())
               for sa, sb in zip(a.snapshots, b.snapshots))


ENSEMBLE_CONFIG = FlowConfig(n=32, t_end=0.02, snapshot_every=10)


@pytest.fixture(scope="module")
def ensemble_members():
    return [_curve(0.02, 1), _curve(0.05, 1), _curve(0.08, 1), _two_mode_curve()]


@pytest.fixture(scope="module")
def ensemble_run(ensemble_members):
    return run_ensemble(ENSEMBLE_CONFIG, ensemble_members)


def _broken_after_three_steps(real):
    """A double of `_advance` that rejects the A = 0.08 member at every call after the third."""
    calls = {"count": 0}

    def broken(points, geometry, dt, solve):
        new_points, new_geometry = real(points, geometry, dt, solve)
        calls["count"] += 1
        if calls["count"] > 3:
            new_geometry.valid[np.abs(points[:, :, 1]).max(axis=1) > 0.065] = False
        return new_points, new_geometry

    return broken


class TestRunEnsemble:
    def test_members_match_their_own_run_flow(self, ensemble_members, ensemble_run):
        for initial, member in zip(ensemble_members, ensemble_run):
            solo = run_flow(ENSEMBLE_CONFIG, initial)
            for key in ("steps", "termination", "rejections"):
                assert member.metadata[key] == solo.metadata[key], key
            assert len(member.snapshots) == len(solo.snapshots)
            # dt = dt_safety h^2 follows the nodes, which the FFT and banded
            # solves place a rounding error apart, so times agree to rounding
            # accumulated over the steps, not bit for bit
            assert np.allclose(member.times, solo.times, rtol=1e-12, atol=0.0)
            assert _max_position_gap(member, solo) <= 1e-10

    def test_member_does_not_depend_on_batch_mates(self, ensemble_members, ensemble_run):
        for b, initial in enumerate(ensemble_members):
            (alone,) = run_ensemble(ENSEMBLE_CONFIG, [initial])
            member = ensemble_run[b]
            assert len(alone.snapshots) == len(member.snapshots)
            assert np.allclose(alone.times, member.times, rtol=1e-12, atol=0.0)
            assert _max_position_gap(alone, member) <= 1e-12

    def test_mirror_equivariance_and_flat_fixed_point(self):
        base = _two_mode_curve()
        pts = base.points
        y_mirror = DiscreteCurve(pts * [1.0, -1.0], -1.0, 1.0)
        lr_mirror = DiscreteCurve(pts[::-1] * [-1.0, 1.0], -1.0, 1.0)
        flat = generate_initial(InitialSpec(kind="flat", n=32))
        config = FlowConfig(n=32, t_end=0.05, snapshot_every=10)
        first, mirrored_y, mirrored_lr, still = run_ensemble(
            config, [base, y_mirror, lr_mirror, flat])
        assert len(first.snapshots) == len(mirrored_y.snapshots) == len(mirrored_lr.snapshots)
        for a, y, lr in zip(first.snapshots, mirrored_y.snapshots, mirrored_lr.snapshots):
            p = a.curve.points
            assert np.abs(p * [1.0, -1.0] - y.curve.points).max() <= 1e-12
            assert np.abs(p[::-1] * [-1.0, 1.0] - lr.curve.points).max() <= 1e-12
            assert y.time == pytest.approx(a.time, rel=1e-12)
            assert lr.time == pytest.approx(a.time, rel=1e-12)
        assert still.metadata["termination"] == "t_end"
        for snap in still.snapshots:
            assert np.array_equal(snap.curve.points, flat.points)

    def test_rejected_member_retries_alone(self, ensemble_members, monkeypatch):
        real = flow._advance
        left = {"failures": 2}

        def flaky(points, geometry, dt, solve):
            new_points, new_geometry = real(points, geometry, dt, solve)
            target = np.abs(points[:, :, 1]).max(axis=1) > 0.065   # the A = 0.08 member
            if left["failures"] and target.any():
                left["failures"] -= 1
                new_geometry.valid[target] = False
            return new_points, new_geometry

        monkeypatch.setattr("hexaflow.flow._advance", flaky)
        config = FlowConfig(n=32, t_end=0.02, snapshot_every=10, max_steps=1)
        runs = run_ensemble(config, ensemble_members)
        assert [t.metadata["rejections"] for t in runs] == [0, 0, 2, 0]
        assert all(t.metadata["termination"] == "max_steps" for t in runs)
        h = compute_geometry(ensemble_members[2]).h
        assert runs[2].snapshots[-1].time == pytest.approx(0.1 * h ** 2 / 4.0, rel=1e-12)
        monkeypatch.undo()
        unforced = run_ensemble(config, ensemble_members)
        for b in (0, 1, 3):
            assert runs[b].snapshots[-1].time == unforced[b].snapshots[-1].time
            assert _max_position_gap(runs[b], unforced[b]) == 0.0

    def test_underflowing_member_keeps_partial_trajectory(
        self, ensemble_members, ensemble_run, monkeypatch
    ):
        monkeypatch.setattr("hexaflow.flow._advance", _broken_after_three_steps(flow._advance))
        runs = run_ensemble(ENSEMBLE_CONFIG, ensemble_members)
        broken = runs[2]
        assert broken.metadata["termination"] == "dt_underflow"
        assert broken.metadata["steps"] == 3
        assert broken.metadata["rejections"] == 41
        assert broken.snapshots[0].time == 0.0
        assert broken.snapshots[-1].time == broken.metadata["final_time"] > 0.0
        for b in (0, 1, 3):
            assert runs[b].metadata["termination"] == "t_end"
            assert _max_position_gap(runs[b], ensemble_run[b]) == 0.0

    def test_compaction_then_retry_matches_runs_of_one(self, ensemble_members, monkeypatch):
        # The m = 2 member stops on stop_knorm at step 5 and leaves the stack;
        # at step 8 the A = 0.08 member is rejected twice, so its retries run
        # on the compacted stack.  Each member must equal its ensemble of one.
        real = flow._advance
        calls = {"count": 0}

        def reject_at_step_eight(points, geometry, dt, solve):
            new_points, new_geometry = real(points, geometry, dt, solve)
            calls["count"] += 1
            if calls["count"] in (8, 9):
                new_geometry.valid[np.abs(points[:, :, 1]).max(axis=1) > 0.065] = False
            return new_points, new_geometry

        monkeypatch.setattr("hexaflow.flow._advance", reject_at_step_eight)
        with pytest.warns(RuntimeWarning, match="margin"):
            stopping = _curve(0.02, 2)
        members = [ensemble_members[1], stopping, ensemble_members[2], ensemble_members[3]]
        config = FlowConfig(n=32, t_end=0.02, snapshot_every=3, stop_knorm=0.05)
        runs = run_ensemble(config, members)
        assert calls["count"] == max(t.metadata["steps"] for t in runs) + 2
        assert [t.metadata["termination"] for t in runs] == [
            "t_end", "stop_knorm", "t_end", "t_end"]
        assert runs[1].metadata["steps"] == 5
        assert [t.metadata["rejections"] for t in runs] == [0, 0, 2, 0]
        for initial, member in zip(members, runs):
            calls["count"] = 0
            (alone,) = run_ensemble(config, [initial])
            for key in ("steps", "rejections", "termination", "final_time"):
                assert member.metadata[key] == alone.metadata[key], key
            assert len(member.snapshots) == len(alone.snapshots)
            for a, b in zip(member.snapshots, alone.snapshots):
                assert a.time == b.time
                assert np.array_equal(a.curve.points, b.curve.points)
                assert a.record == b.record
        # the retried member against `run_flow` under the same two rejections,
        # to rounding: it kept the nodes of its accepted quarter step
        monkeypatch.undo()
        real_step = flow.step
        calls["count"] = 0

        def reject_step_eight(points, geometry, dt):
            new_points, new_geometry = real_step(points, geometry, dt)
            calls["count"] += 1
            if calls["count"] in (8, 9):
                new_geometry.valid[:] = False
            return new_points, new_geometry

        monkeypatch.setattr("hexaflow.flow.step", reject_step_eight)
        solo = run_flow(config, members[2])
        for key in ("steps", "rejections", "termination"):
            assert runs[2].metadata[key] == solo.metadata[key], key
        assert np.allclose(runs[2].times, solo.times, rtol=1e-12, atol=0.0)
        assert _max_position_gap(runs[2], solo) <= 1e-10

    def test_terminations_are_per_member(self, ensemble_members):
        flat = generate_initial(InitialSpec(kind="flat", n=32))
        config = FlowConfig(n=32, t_end=0.02, snapshot_every=10, stop_knorm=1e-8)
        moving, stopped = run_ensemble(config, [ensemble_members[1], flat])
        assert stopped.metadata["termination"] == "stop_knorm"
        assert stopped.metadata["steps"] == 0
        assert len(stopped.snapshots) == 1
        assert moving.metadata["termination"] == "t_end"
        assert moving.metadata["final_time"] == pytest.approx(0.02, rel=1e-9)

    def test_metadata(self, ensemble_members):
        config = FlowConfig(n=32, t_end=1e-3, snapshot_every=10)
        runs = run_ensemble(config, ensemble_members[:2],
                            [{"config": {"label": "a"}}, None])
        assert runs[0].metadata["config"] == {"label": "a"}
        assert runs[1].metadata["config"]["n"] == 32
        for run in runs:
            assert run.metadata["termination"] == "t_end"
            assert run.metadata["rejections"] == 0
            assert run.metadata["wall_time"] > 0.0

    def test_rejects_bad_input(self, ensemble_members, u_turn_curve):
        config = FlowConfig(n=32, t_end=1e-3)
        with pytest.raises(ValueError, match="at least one"):
            run_ensemble(config, [])
        with pytest.raises(ValueError, match="metadata"):
            run_ensemble(config, ensemble_members[:2], [None])
        wide = DiscreteCurve(2.0 * ensemble_members[0].points, -2.0, 2.0)
        with pytest.raises(ValueError, match="lines x = -1 and 1"):
            run_ensemble(config, [ensemble_members[1], wide])
        with pytest.raises(ValueError, match="winding"):
            run_ensemble(FlowConfig(n=512, t_end=1e-3), [u_turn_curve])


@pytest.mark.parametrize("case", ["run_flow", "run_ensemble", "dt_underflow"])
def test_records_read_from_the_step_equal_a_recompute(case, ensemble_members, ensemble_run,
                                                      monkeypatch):
    # The run loop reads each record's geometry from the row the step built;
    # it must equal the record of a fresh `compute_geometry` of the stored
    # curve, field by field, bit for bit.  The underflowing member records
    # its last accepted curve from the stack of the step before the rejection.
    if case == "run_flow":
        runs = [run_flow(ENSEMBLE_CONFIG, ensemble_members[3])]
    elif case == "run_ensemble":
        runs = ensemble_run
    else:
        monkeypatch.setattr("hexaflow.flow._advance", _broken_after_three_steps(flow._advance))
        runs = run_ensemble(ENSEMBLE_CONFIG, ensemble_members)
        assert runs[2].metadata["termination"] == "dt_underflow"
        assert runs[2].snapshots[-1].time == runs[2].metadata["final_time"] > 0.0
    for run in runs:
        assert len(run.snapshots) >= 2
        length_ref = run.snapshots[0].record.length
        for snap in run.snapshots:
            profile = compute_geometry(snap.curve)
            want = make_record(snap.time, profile, normal_speed(profile), length_ref)
            for f in fields(want):
                assert getattr(snap.record, f.name) == getattr(want, f.name), (snap.time, f.name)


def _uneven(curve: DiscreteCurve) -> DiscreteCurve:
    """The curve with node 10 moved along its chord: spacing off uniform at the same n."""
    points = curve.points.copy()
    points[10] += 0.3 * (points[11] - points[10])
    return DiscreteCurve(points)


def _coincident(curve: DiscreteCurve) -> DiscreteCurve:
    """The curve with node 11 moved onto node 10."""
    points = curve.points.copy()
    points[11] = points[10]
    return DiscreteCurve(points)


@pytest.mark.parametrize("spoil, error", [(_uneven, SpacingError),
                                          (_coincident, DegenerateCurveError)],
                         ids=["uneven", "coincident"])
def test_rejected_initial_rows_raise_the_errors_of_compute_geometry(spoil, error,
                                                                    ensemble_members):
    # The run measures its initial curves as rows of one stack; a row the
    # stack rejects raises the typed error and message `compute_geometry`
    # gives for that curve, alone or as a later member of an ensemble.
    bad = spoil(ensemble_members[0])
    assert bad.n == ENSEMBLE_CONFIG.n
    with pytest.raises(error) as want:
        compute_geometry(bad)
    for run in (lambda: run_flow(ENSEMBLE_CONFIG, bad),
                lambda: run_ensemble(ENSEMBLE_CONFIG, [ensemble_members[1], bad])):
        with pytest.raises(error) as got:
            run()
        assert str(got.value) == str(want.value)
        assert vars(got.value) == vars(want.value)


def test_valid_runs_never_call_compute_geometry(ensemble_members, monkeypatch):
    # every record, the first one included, reads a row of the run's geometry stack
    def refuse(curve):
        raise AssertionError("a valid run measured a curve on its own")

    monkeypatch.setattr("hexaflow.flow.compute_geometry", refuse)
    assert run_flow(ENSEMBLE_CONFIG, ensemble_members[3]).metadata["termination"] == "t_end"
    runs = run_ensemble(ENSEMBLE_CONFIG, ensemble_members)
    assert [run.metadata["termination"] for run in runs] == ["t_end"] * len(runs)


def _linearised_errors(tmp_path, half: float, m: int, t_end: float,
                       resolutions: tuple[int, ...]) -> list[float]:
    """Largest node error of y against the exact linearised solution, over its amplitude.

    The document is A = 1e-3 half, mode m between the lines -half and half
    until t_end half**6, at each n of `resolutions`; the error is read from
    the final frame of snapshots.json, in the document's units.
    """
    errors = []
    for n in resolutions:
        config = tmp_path / "config.yaml"
        config.write_text(f"n: {n}\ninit: cosine-graph\nA: {1e-3 * half!r}\nm: {m}\n"
                          f"t_end: {t_end * half ** 6!r}\nline_left: {-half!r}\n"
                          f"line_right: {half!r}\nsnapshot_every: 1000000\n")
        out = tmp_path / f"n{n}-m{m}-half{half}"
        assert main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        final = json.loads((out / "snapshots.json").read_text())["frames"][-1]
        x, y = np.array(final["points"]).T
        wavenumber = 0.5 * m * math.pi
        amplitude = 1e-3 * half * math.exp(-wavenumber ** 6 * final["t"] / half ** 6)
        exact = amplitude * np.cos(wavenumber * (x / half + 1.0))
        errors.append(float(np.abs(y - exact).max()) / amplitude)
    return errors


def test_second_order_against_the_exact_linearised_solution(tmp_path):
    """At small A the flow linearises to y_t = -y_xxxxxx with the same contact
    conditions, solved exactly by y = A cos(m pi (x + 1) / 2) exp(-(m pi / 2)^6 t).

    For m = 1 to t = 0.05 the relative errors read 4.00e-3, 1.005e-3, 2.53e-4
    and 6.47e-5 at n = 32, 64, 128 and 256; for m = 2 to t = 0.05 / 2**6 they
    read 3.55e-2, 9.17e-3 and 2.32e-3 at n = 64, 128 and 256 (n = 32 reads
    0.126, a ratio of 3.55: not yet asymptotic).  The same m = 1 document
    between lines 0.2 apart, in time scaled by 0.1**6, runs in the same
    reference frame and must give the same errors; it stops at n = 128,
    since n = 256 takes 8,192 steps.
    """
    mode1 = _linearised_errors(tmp_path, 1.0, 1, 0.05, (32, 64, 128, 256))
    mode2 = _linearised_errors(tmp_path, 1.0, 2, 0.05 / 2 ** 6, (64, 128, 256))
    for errors in (mode1, mode2):
        ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
        assert all(3.6 <= ratio <= 4.4 for ratio in ratios), (errors, ratios)
    np.testing.assert_allclose(_linearised_errors(tmp_path, 0.1, 1, 0.05, (32, 64, 128)),
                               mode1[:3], rtol=0.0, atol=1e-9)


# m -> (t_end, snapshot_every) of a run at A = 1e-3 in which every norm of
# mode m falls below 1e-12 of its start before the run ends
DECAY_RUNS = {1: (1.0, 100), 2: (0.025, 5), 3: (0.004, 1)}


@functools.lru_cache(maxsize=None)
def _small_amplitude_run(n: int, m: int):
    t_end, every = DECAY_RUNS[m]
    curve = generate_initial(InitialSpec(kind="cosine-graph", amplitude=1e-3, mode=m, n=n))
    return run_flow(FlowConfig(n=n, t_end=t_end, snapshot_every=every), curve)


@pytest.mark.parametrize("m", [1, 2, 3], ids=["m1", "m2", "m3"])
def test_decay_rates_match_the_implicit_euler_prediction(m):
    """At A = 1e-3 and n = 64, |k|^2, |k_s|^2, |k_ss|^2 and |k_sss|^2 decay at the
    scheme's rate 2 ln(1 + dt sigma_h) / dt to 1e-3, relative.

    dt sigma_h is 0.0015, 0.094 and 1.06 for m = 1, 2 and 3.  Measured, the
    largest relative misfit is 5.4e-5 (m = 1, |k_sss|^2); every other is below
    5e-7.
    """
    trajectory = _small_amplitude_run(64, m)
    predicted = implicit_euler_rate(trajectory, m)
    rates = decay_rates(trajectory)
    misfits = {name: abs(rate - predicted) / predicted for name, rate in rates.items()}
    assert max(misfits.values()) <= 1e-3, (predicted, rates)


def test_decay_rates_converge_to_the_continuum_at_second_order():
    """For m = 1 the fitted rates' error against the continuum rate 2 (pi/2)^6
    falls about fourfold from n = 32 to n = 64.

    The errors read 5.32e-3 and 1.33e-3 for |k|^2 .. |k_ss|^2 (ratio 3.98) and
    5.32e-3 and 1.39e-3 for |k_sss|^2 (ratio 3.83).  At m = 2 and 3, dt sigma
    is 0.09 to 1 and the time error dominates, so only m = 1 is held to it.
    """
    continuum = 2.0 * (0.5 * math.pi) ** 6
    coarse, fine = (decay_rates(_small_amplitude_run(n, 1)) for n in (32, 64))
    ratios = {name: abs(coarse[name] - continuum) / abs(fine[name] - continuum)
              for name in coarse}
    assert all(3.6 <= ratio <= 4.4 for ratio in ratios.values()), ratios


# (base, j, n at three doublings): the graph sum_m base[m-1] cos(m pi (x+1)/2)
# varied by cos(j pi (x+1)/2).  A base of odd modes varied by j = 2 is left out:
# there dE/deps is 0 by symmetry and the relative mismatch is noise.
GRADIENT_CASES = [
    ((0.3, 0.0, 0.1), 1, (128, 256, 512, 1024)),
    ((0.3, 0.15, 0.05), 1, (256, 512, 1024, 2048)),
    ((0.3, 0.15, 0.05), 2, (64, 128, 256, 512)),
    ((0.3, 0.15, 0.05), 3, (64, 128, 256, 512)),
]
GRADIENT_IDS = ["odd-j1", "mixed-j1", "mixed-j2", "mixed-j3"]


@pytest.mark.parametrize("base, j, resolutions", GRADIENT_CASES, ids=GRADIENT_IDS)
def test_normal_speed_is_the_energy_gradient(base, j, resolutions):
    """The paper's F matches dE/deps at second order in h.

    The mismatches read 1.58e-2, 4.03e-3, 1.01e-3, 2.54e-4 (odd-j1),
    3.81e-2 .. 6.09e-4 (mixed-j1, which is asymptotic only from n = 256),
    6.37e-3 .. 1.03e-4 (mixed-j2) and 1.50e-2 .. 2.40e-4 (mixed-j3): ratios
    3.91 to 4.03.
    """
    errors = [energy_gradient_mismatch(base, j, n) for n in resolutions]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(3.6 <= ratio <= 4.4 for ratio in ratios), (errors, ratios)


@pytest.mark.parametrize("a, b", [(0.0, 0.0), (2.0, -0.5), (1.0, 0.5)],
                         ids=["linear", "doubled-k2-kss", "flipped-kks2"])
@pytest.mark.parametrize("base, j, resolutions", GRADIENT_CASES, ids=GRADIENT_IDS)
def test_energy_gradient_rejects_wrong_speeds(monkeypatch, base, j, resolutions, a, b):
    """A wrong F misses dE/deps by far more than 0.05 at the finest n.

    The smallest mismatch is 0.081, for (1, +1/2) on mixed-j3; the
    identity checks cannot tell that flow from the paper's at verify's
    settings.
    """
    monkeypatch.setattr("hexaflow.flow.normal_speed", mutant_speed(a, b))
    assert energy_gradient_mismatch(base, j, resolutions[-1]) > 0.05
