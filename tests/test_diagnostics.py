"""Diagnostics: winding, margins, decay fits, displacement bookkeeping."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexaflow import (
    C0,
    C0_PI3,
    DiagnosticsRecord,
    DiscreteCurve,
    InitialSpec,
    Snapshot,
    Trajectory,
    compute_geometry,
    decay_window,
    displacement_integral,
    fit_decay_rate,
    generate_initial,
    integrate,
    make_record,
    normal_speed,
    small_energy_margin,
    winding_number,
)

from oracles import C0_PI3_REF, C0_REF, COSINE_A005_M1, COSINE_A01_M2


class TestConstants:
    def test_c0_value(self):
        assert C0 == pytest.approx(C0_REF, rel=1e-13)
        assert C0_PI3 == pytest.approx(C0_PI3_REF, rel=1e-13)

    def test_c0_root_identity(self):
        assert 174.0 * C0 ** 2 + 74.0 * C0 - 2.0 == pytest.approx(0.0, abs=1e-13)


class TestWinding:
    def test_flat_is_zero(self, flat_curve):
        assert winding_number(compute_geometry(flat_curve)) == 0.0

    def test_cosine_is_zero(self, cosine_profile):
        assert abs(winding_number(cosine_profile)) < 1e-12

    def test_u_turn_is_half(self, u_turn_curve):
        # The curvature quadrature telescopes, so the half-integer is exact.
        omega = winding_number(compute_geometry(u_turn_curve))
        assert abs(omega - 0.5) < 1e-12


class TestSmallEnergyMargin:
    def test_zero_energy_gives_threshold(self):
        assert small_energy_margin(0.0, 2.0) == C0_PI3

    def test_exact_zero_crossing(self):
        # L = 2 makes the cube a power of two, so the product is exact.
        assert small_energy_margin(C0_PI3 / 8.0, 2.0) == 0.0

    def test_reference_curve_margin(self, cosine_profile):
        ksn = integrate(cosine_profile.k_s ** 2, cosine_profile)
        margin = small_energy_margin(ksn, cosine_profile.length)
        assert margin == pytest.approx(COSINE_A005_M1["delta"], abs=5e-4)
        assert margin > 0.0

    def test_negative_margin_case(self):
        with pytest.warns(RuntimeWarning):
            curve = generate_initial(
                InitialSpec(kind="cosine-graph", amplitude=0.1, mode=2, n=128)
            )
        p = compute_geometry(curve)
        ksn = integrate(p.k_s ** 2, p)
        assert ksn * p.length ** 3 == pytest.approx(
            COSINE_A01_M2["ks_l03"], rel=5e-3
        )
        margin = small_energy_margin(ksn, p.length)
        assert margin == pytest.approx(COSINE_A01_M2["delta"], rel=5e-3)
        assert margin < 0.0

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            small_energy_margin(1.0, 0.0)


class TestMakeRecord:
    def test_field_consistency(self, cosine_profile):
        speed = normal_speed(cosine_profile)
        rec = make_record(0.25, cosine_profile, speed, cosine_profile.length)
        assert rec.time == 0.25
        assert rec.energy == 0.5 * rec.ksnorm2
        assert rec.k_inf == float(np.abs(cosine_profile.k).max())
        assert rec.ks_inf == float(np.abs(cosine_profile.k_s).max())
        assert rec.speed_inf == float(np.abs(speed).max())
        assert rec.dissipation == pytest.approx(
            integrate(speed ** 2, cosine_profile), rel=1e-14
        )
        assert rec.dissipation == pytest.approx(COSINE_A005_M1["F2"], rel=5e-3)
        assert rec.delta_margin == rec.delta_margin_current
        assert set(rec.bc_residuals) == {
            "ks_left", "ks_right", "ksss_left", "ksss_right",
            "ks5_left", "ks5_right", "perp_left", "perp_right",
        }

    def test_margin_uses_reference_length(self, cosine_profile):
        speed = normal_speed(cosine_profile)
        rec = make_record(0.0, cosine_profile, speed, 2.0 * cosine_profile.length)
        assert rec.delta_margin < rec.delta_margin_current

    def test_record_rejects_negative_norm(self):
        with pytest.raises(ValueError):
            DiagnosticsRecord(
                time=0.0, omega=0.0, length=1.0, energy=0.5, knorm2=-1.0,
                ksnorm2=1.0, kssnorm2=1.0, k_inf=1.0, ks_inf=1.0,
                speed_inf=1.0, delta_margin=0.0, delta_margin_current=0.0,
                dissipation=1.0,
            )


class TestTrajectory:
    def test_rejects_non_increasing_times(self, flat_run):
        snaps = flat_run.snapshots
        with pytest.raises(ValueError, match="increasing"):
            Trajectory((snaps[0], snaps[0]), {})

    def test_series_extraction(self, short_run):
        lengths = short_run.series("length")
        assert lengths.shape == (len(short_run.snapshots),)
        assert lengths[0] == short_run.snapshots[0].record.length


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 1.0, 11)
        rate, r2 = fit_decay_rate(t, 5.0 * np.exp(-3.0 * t))
        assert rate == pytest.approx(3.0, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        t = np.linspace(0.0, 1.0, 11)
        rate, r2 = fit_decay_rate(t, np.full(11, 2.5))
        assert rate == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    @given(
        rate=st.floats(min_value=0.1, max_value=50.0),
        amp=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_recovers_random_exponential(self, rate, amp):
        t = np.linspace(0.0, 2.0, 31)
        got, r2 = fit_decay_rate(t, amp * np.exp(-rate * t))
        assert got == pytest.approx(rate, rel=1e-8)
        assert r2 > 1.0 - 1e-9

    def test_window_selects_subrange(self):
        t = np.linspace(0.0, 1.0, 21)
        v = np.exp(-2.0 * t)
        v[:5] = 7.0  # transient garbage outside the window
        rate, _ = fit_decay_rate(t, v, window=slice(5, 21))
        assert rate == pytest.approx(2.0, abs=1e-10)

    def test_rejects_short_window(self):
        t = np.linspace(0.0, 1.0, 21)
        with pytest.raises(ValueError, match="fewer than 5"):
            fit_decay_rate(t, np.exp(-t), window=slice(0, 4))

    def test_rejects_nonpositive_value_naming_index(self):
        t = np.linspace(0.0, 1.0, 11)
        v = np.exp(-t)
        v[3] = 0.0
        with pytest.raises(ValueError, match="index 3"):
            fit_decay_rate(t, v)

    def test_rejects_unequal_lengths(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="equal length"):
            fit_decay_rate(t, np.exp(-t[:-1]))

    def test_rejects_strided_window(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="stride"):
            fit_decay_rate(t, np.exp(-t), window=slice(0, 10, 2))


class TestDecayWindow:
    def test_brackets_by_fractions(self):
        v = np.array([8.0, 6.0, 3.0, 1.0, 1e-5, 1e-9])
        win = decay_window(v, upper_frac=0.5, lower_frac=1e-8)
        assert win == slice(2, 5)

    def test_no_floor_keeps_tail(self):
        v = np.array([4.0, 1.0, 0.25])
        assert decay_window(v, upper_frac=0.5) == slice(1, 3)

    def test_rejects_nonpositive_start(self):
        with pytest.raises(ValueError):
            decay_window(np.array([0.0, 1.0]))


class TestDisplacementIntegral:
    def test_stationary_run_is_zero(self, flat_run):
        sup, bound = displacement_integral(flat_run)
        assert sup == 0.0
        assert bound == 0.0

    def test_single_node_shift(self, flat_curve):
        p = compute_geometry(flat_curve)
        zero_speed = np.zeros(flat_curve.n + 1)
        rec0 = make_record(0.0, p, zero_speed, p.length)
        pts = np.array(flat_curve.points)
        d = 1e-3
        pts[40, 1] += d
        shifted = DiscreteCurve(pts, -1.0, 1.0)
        rec1 = make_record(0.1, compute_geometry(shifted), zero_speed, p.length)
        traj = Trajectory(
            (Snapshot(0.0, flat_curve, rec0), Snapshot(0.1, shifted, rec1)), {}
        )
        sup, _ = displacement_integral(traj)
        assert sup == pytest.approx(d, rel=2e-3)

    def test_cumulative_matches_scalar(self, short_run):
        running, bound = displacement_integral(short_run, cumulative=True)
        sup_final, bound_final = displacement_integral(short_run)
        assert running.shape == bound.shape == (len(short_run.snapshots),)
        assert running[-1] == pytest.approx(sup_final, rel=1e-14)
        assert bound[-1] == pytest.approx(bound_final, rel=1e-14)
        assert np.all(np.diff(running) >= 0.0)
        assert np.all(np.diff(bound) >= 0.0)

    def test_triangle_inequality_on_run(self, short_run):
        running, bound = displacement_integral(short_run, cumulative=True)
        assert np.all(running <= bound + 1e-12)

    def test_rejects_single_snapshot(self, flat_run):
        with pytest.raises(ValueError, match="2 snapshots"):
            displacement_integral(Trajectory((flat_run.snapshots[0],), {}))

    def test_rejects_node_count_mismatch(self, flat_run, flat_curve):
        small = generate_initial(InitialSpec(kind="flat", n=64))
        p = compute_geometry(small)
        rec = make_record(1.0, p, np.zeros(65), p.length)
        traj = Trajectory(
            (flat_run.snapshots[0], Snapshot(1.0, small, rec)), {}
        )
        with pytest.raises(ValueError, match="node count"):
            displacement_integral(traj)
