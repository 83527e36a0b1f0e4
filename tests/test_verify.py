"""Verification laboratory: identities, inequalities, boundary hierarchy."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexaflow import (
    CheckReport,
    DiscreteCurve,
    FlowConfig,
    InitialSpec,
    Trajectory,
    check_boundary_hierarchy,
    check_dissipation,
    check_k2_identity,
    check_kss_inequality,
    check_length_identity,
    check_psw,
    compute_geometry,
    generate_initial,
    integrate,
    normal_speed,
    psw_sample_study,
    run_flow,
)
import hexaflow.verify
from hexaflow.verify import PSW_GRID, _centered_dt, snapshot_profiles

from oracles import COSINE_A005_M1, mutant_speed, psw_sample_study_reference


class TestCheckReport:
    def test_pass_fail_derivation(self):
        failing = CheckReport(name="x", lhs=1.0, rhs=1.0, residual=0.1,
                              tolerance=0.05, context="")
        assert not failing.passed
        passing = CheckReport(name="x", lhs=1.0, rhs=1.0, residual=0.01,
                              tolerance=0.05, context="")
        assert passing.passed


class TestCenteredDerivative:
    def test_exact_on_quadratics(self):
        t = np.array([0.0, 0.3, 0.7, 1.2, 1.4, 2.0])
        v = 2.0 - 3.0 * t + 0.5 * t * t
        got = _centered_dt(t, v)
        expect = (-3.0 + t)[1:-1]
        assert np.abs(got - expect).max() < 1e-12


class TestIdentityChecks:
    @pytest.mark.parametrize(
        "checker",
        [check_dissipation, check_length_identity, check_k2_identity],
    )
    def test_stationary_run_is_exact(self, flat_run, checker):
        report = checker(flat_run)
        assert report.residual == 0.0
        assert report.passed

    @pytest.mark.parametrize(
        "checker",
        [check_dissipation, check_length_identity, check_k2_identity],
    )
    def test_short_run_passes(self, short_run, checker):
        report = checker(short_run)
        assert report.passed
        assert report.residual < report.tolerance
        assert "snapshots" in report.context

    def test_dissipation_sides_decay(self, short_run):
        report = check_dissipation(short_run)
        # the energy is falling, so both sides are negative at the worst point
        assert report.lhs < 0.0
        assert report.rhs < 0.0

    def test_kss_inequality_holds(self, short_run):
        report = check_kss_inequality(short_run)
        assert report.passed
        assert report.residual == 0.0
        assert "negative throughout: True" in report.context

    @pytest.mark.parametrize(
        "checker",
        [check_dissipation, check_length_identity, check_k2_identity,
         check_kss_inequality],
    )
    def test_rejects_short_trajectories(self, flat_run, checker):
        with pytest.raises(ValueError):
            checker(Trajectory(flat_run.snapshots[:2], {}))


def test_checks_build_one_profile_per_snapshot_of_a_trajectory(short_run, monkeypatch):
    checks = (check_dissipation, check_length_identity, check_k2_identity, check_kss_inequality)
    by_hand = [compute_geometry(snap.curve) for snap in short_run.snapshots]
    measured = []
    real = hexaflow.verify.compute_geometry

    def counting(curve):
        measured.append(curve)
        return real(curve)

    monkeypatch.setattr("hexaflow.verify.compute_geometry", counting)
    fresh = Trajectory(short_run.snapshots, short_run.metadata)
    first = [check(fresh) for check in checks]
    assert [check(fresh) for check in checks] == first
    profiles = snapshot_profiles(fresh)
    assert snapshot_profiles(fresh) is profiles
    assert [id(curve) for curve in measured] == [id(snap.curve) for snap in short_run.snapshots]
    for profile, expected in zip(profiles, by_hand, strict=True):
        for f in dataclasses.fields(expected):
            assert np.array_equal(getattr(profile, f.name), getattr(expected, f.name)), f.name
    # a new trajectory of the same snapshots builds its own, and checks the same
    again = Trajectory(short_run.snapshots, short_run.metadata)
    assert [check(again) for check in checks] == first
    assert len(measured) == 2 * len(short_run.snapshots)


class TestTermLevelQuadrature:
    def test_five_terms_match_reference(self):
        # refined grid balancing truncation against stencil roundoff
        curve = generate_initial(
            InitialSpec(kind="cosine-graph", amplitude=0.05, mode=1, n=1024)
        )
        p = compute_geometry(curve)
        terms = {
            "term_ksss": -2.0 * integrate(p.k_sss ** 2, p),
            "term_kss2k2": 5.0 * integrate(p.k_ss ** 2 * p.k ** 2, p),
            "term_kssks2k": 5.0 * integrate(p.k_ss * p.k_s ** 2 * p.k, p),
            "term_kssk5": integrate(p.k_ss * p.k ** 5, p),
            "term_ks2k4": -0.5 * integrate(p.k_s ** 2 * p.k ** 4, p),
        }
        expected = {
            "term_ksss": -2.0 * COSINE_A005_M1["ksssnorm2"],
            "term_kss2k2": 5.0 * COSINE_A005_M1["kss2k2"],
            "term_kssks2k": 5.0 * COSINE_A005_M1["kssks2k"],
            "term_kssk5": COSINE_A005_M1["kssk5"],
            "term_ks2k4": -0.5 * COSINE_A005_M1["ks2k4"],
        }
        for name in terms:
            assert abs(terms[name] - expected[name]) < 1e-6, name

    def test_length_identity_integrands_agree(self, cosine_profile):
        # -int(k F) equals -int(k_ss^2) + 3.5 int(k^2 k_s^2): the discrete
        # quadratures inherit the integration-by-parts cancellation
        p = cosine_profile
        speed = normal_speed(p)
        lhs = -integrate(p.k * speed, p)
        rhs = -integrate(p.k_ss ** 2, p) + 3.5 * integrate(p.k ** 2 * p.k_s ** 2, p)
        assert lhs == pytest.approx(rhs, rel=1e-5)
        assert lhs == pytest.approx(COSINE_A005_M1["minus_kF"], rel=5e-3)

    def test_speed_quadrature_oracle(self, cosine_profile):
        speed = normal_speed(cosine_profile)
        assert integrate(speed ** 2, cosine_profile) == pytest.approx(
            COSINE_A005_M1["F2"], rel=5e-3
        )


class TestBoundaryHierarchy:
    def test_reference_curve_passes(self, cosine_profile):
        report = check_boundary_hierarchy(cosine_profile)
        assert report.passed
        assert report.tolerance == pytest.approx(100.0 * cosine_profile.h ** 2)
        assert len(report.lhs) == 8

    def test_tilted_contact_fails(self):
        x = np.linspace(-1.0, 1.0, 65)
        curve = DiscreteCurve(np.column_stack([x, 0.2 * x]), -1.0, 1.0)
        report = check_boundary_hierarchy(compute_geometry(curve))
        assert not report.passed
        assert report.residual == pytest.approx(
            abs(math.sin(math.atan(0.2))), rel=1e-10
        )


class TestPoincareChecks:
    def test_mean_zero_eigenfunction_is_sharp(self):
        length = math.pi
        s = np.linspace(0.0, length, 4097)
        report = check_psw(np.cos(math.pi * s / length), length, mode="mean-zero")
        assert report.passed
        ratio = report.lhs[0] / report.rhs[0]
        assert abs(ratio - 1.0) < 1e-6

    def test_dirichlet_eigenfunction_is_sharp(self):
        length = math.pi
        s = np.linspace(0.0, length, 4097)
        report = check_psw(np.sin(math.pi * s / length), length, mode="dirichlet")
        assert report.passed
        ratio = report.lhs[0] / report.rhs[0]
        assert abs(ratio - 1.0) < 1e-6

    def test_sup_bound_not_saturated_by_eigenfunctions(self):
        length = math.pi
        s = np.linspace(0.0, length, 4097)
        report = check_psw(np.cos(math.pi * s / length), length, mode="mean-zero")
        assert report.lhs[1] / report.rhs[1] < 1.0

    def test_zero_function_passes(self):
        report = check_psw(np.zeros(101), 1.0, mode="mean-zero")
        assert report.passed
        assert report.residual == 0.0

    def test_rejects_nonzero_mean(self):
        s = np.linspace(0.0, 1.0, 101)
        with pytest.raises(ValueError, match="mean"):
            check_psw(np.cos(math.pi * s) + 0.5, 1.0, mode="mean-zero")

    def test_rejects_nonzero_endpoints(self):
        s = np.linspace(0.0, 1.0, 101)
        with pytest.raises(ValueError):
            check_psw(np.cos(math.pi * s), 1.0, mode="dirichlet")

    def test_rejects_short_sample(self):
        with pytest.raises(ValueError, match="at least 9 points"):
            check_psw(np.zeros(5), 1.0, mode="mean-zero")

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError, match="length must be positive, got 0.0"):
            check_psw(np.zeros(101), 0.0, mode="mean-zero")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            check_psw(np.zeros(101), 1.0, mode="periodic")

    @given(
        coeffs=st.lists(
            st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=8
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_band_limited_samples_satisfy_bounds(self, coeffs):
        length = math.pi
        s = np.linspace(0.0, length, 1025)
        f = np.zeros_like(s)
        for j, a in enumerate(coeffs):
            f += a * np.cos((j + 1) * math.pi * s / length)
        report = check_psw(f, length, mode="mean-zero")
        assert report.passed


class TestSampleStudy:
    def test_deterministic_for_fixed_seed(self, monkeypatch):
        monkeypatch.setattr("hexaflow.verify.PSW_SAMPLES", 40)
        a = psw_sample_study(seed=3)
        b = psw_sample_study(seed=3)
        assert a.residual == b.residual
        assert a.context == b.context

    def test_default_study_passes(self, monkeypatch):
        monkeypatch.setattr("hexaflow.verify.PSW_SAMPLES", 60)
        report = psw_sample_study(seed=0)
        assert report.passed
        assert report.residual < report.tolerance
        assert "seed" in report.context

    def test_worst_case_is_labelled(self, monkeypatch):
        monkeypatch.setattr("hexaflow.verify.PSW_SAMPLES", 25)
        report = psw_sample_study(seed=1)
        assert "family=" in report.context
        assert "sample=" in report.context

    @pytest.mark.parametrize("seed, samples_per_mode", [(0, 1000), (1, 25), (3, 40)])
    def test_matches_the_fresh_block_reference(self, monkeypatch, seed, samples_per_mode):
        # refilling one buffer leaves every product, and so the report, bit-identical
        monkeypatch.setattr("hexaflow.verify.PSW_SAMPLES", samples_per_mode)
        assert (dataclasses.asdict(psw_sample_study(seed))
                == dataclasses.asdict(psw_sample_study_reference(seed, samples_per_mode)))

    def test_keeps_one_sample_block_alive(self, monkeypatch):
        samples = 400
        block = samples * (PSW_GRID + 1) * 8
        monkeypatch.setattr("hexaflow.verify.PSW_SAMPLES", 1)
        psw_sample_study(seed=0)  # lazy one-time set-up outside the trace
        monkeypatch.setattr("hexaflow.verify.PSW_SAMPLES", samples)
        tracemalloc.start()
        try:
            psw_sample_study(seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * block


@pytest.mark.parametrize("a, b, passes", [
    (1.0, -0.5, True),
    (0.0, 0.0, False),
    (2.0, -0.5, False),
], ids=["paper", "linear", "doubled-k2-kss"])
def test_identities_tell_the_paper_flow_from_wrong_ones(monkeypatch, a, b, passes):
    """At the verify workload's config, runs of two wrong speeds fail all three identities.

    The stepper moves by the mutant speed; the checks keep the paper's.
    Residual / tolerance for dissipation, length and k^2 read 0.53 / 0.004 /
    0.07 for the paper's flow, 2.09 / 1.58 / 1.64 for (0, 0) and 1.34 / 1.35 /
    1.32 for (2, -1/2).  The flipped sign (1, +1/2) passes at 0.97 / 0.46 /
    0.52: the evidence cannot tell that one apart here.
    """
    monkeypatch.setattr("hexaflow.flow.normal_speed", mutant_speed(a, b))
    curve = generate_initial(InitialSpec(kind="cosine-graph", amplitude=0.05, n=256))
    trajectory = run_flow(FlowConfig(n=256, t_end=0.02, snapshot_every=100), curve)
    reports = [check(trajectory)
               for check in (check_dissipation, check_length_identity, check_k2_identity)]
    assert [report.passed for report in reports] == [passes] * 3, reports
