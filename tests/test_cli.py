"""Configuration parsing, initial curves, file emission, CLI entry point."""
from __future__ import annotations

import dataclasses
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from hexaflow import (
    ConfigError,
    DiscreteCurve,
    InitialSpec,
    Snapshot,
    Trajectory,
    compute_geometry,
    emit,
    generate_initial,
    make_record,
    normal_speed,
    parse_config,
)
import hexaflow.cli
from hexaflow.cli import _CONFIG_KEYS, CSV_COLUMNS, main, sweep_cells

MINIMAL = "n: 64\nt_end: 0.05\ninit: cosine-graph\n"

# each diagnostics.csv column in powers of length: time is length**6,
# curvature length**-1, each arc-length derivative one more power down
LENGTH_POWERS = {"time": 6, "omega": 0, "length": 1, "energy": -3, "knorm2": -1,
                 "ksnorm2": -3, "kssnorm2": -5, "k_inf": -1, "ks_inf": -2,
                 "delta_margin": 0, "dissipation": -9, "bc_ks_left": -2,
                 "bc_ks_right": -2, "bc_ksss_left": -4, "bc_ksss_right": -4}


def _one_shot_snapshots(trajectory: Trajectory) -> bytes:
    """snapshots.json as one json.dumps of the whole document, the bytes emit streams."""
    config = trajectory.metadata.get("config", {})
    left, right = config.get("line_left", -1.0), config.get("line_right", 1.0)
    half, mid = 0.5 * (right - left), 0.5 * (left + right)
    meta = {k: v for k, v in trajectory.metadata.items() if k != "wall_time"}
    meta["schema_version"] = 1
    if "final_time" in meta:
        meta["final_time"] *= half ** 6
    frames = []
    for snap in trajectory.snapshots:
        points = snap.curve.points * half
        if mid:
            points[:, 0] += mid
        frames.append({"t": snap.time * half ** 6, "points": points.tolist()})
    text = json.dumps({"meta": meta, "frames": frames}, sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


class TestParseConfig:
    def test_minimal_document_fills_defaults(self):
        config, spec, echo = parse_config(MINIMAL)
        assert config.n == 64
        assert config.t_end == 0.05
        assert config.dt_safety == 0.1
        assert config.snapshot_every == 100
        assert config.stop_knorm == 0.0
        assert spec.kind == "cosine-graph"
        assert spec.amplitude == 0.05
        assert spec.mode == 1
        assert echo["line_left"] == -1.0
        assert echo["max_steps"] == 10_000_000

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="dt_safty"):
            parse_config(MINIMAL + "dt_safty: 0.2\n")

    def test_small_n_reported_before_missing_keys(self):
        with pytest.raises(ConfigError, match="must be >= 16"):
            parse_config("n: 8\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config("")

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="'n'"):
            parse_config("n: sixty\nt_end: 1.0\ninit: flat\n")

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="'n'"):
            parse_config("n: true\nt_end: 1.0\ninit: flat\n")

    def test_scientific_notation_string_coerced(self):
        config, _, _ = parse_config(MINIMAL + "stop_knorm: 1e-8\n")
        assert config.stop_knorm == 1e-8

    def test_bad_init_kind(self):
        with pytest.raises(ConfigError, match="init"):
            parse_config("n: 64\nt_end: 1.0\ninit: parabola\n")

    def test_custom_without_path(self):
        with pytest.raises(ConfigError, match="path"):
            parse_config("n: 64\nt_end: 1.0\ninit: custom-file\n")

    @pytest.mark.parametrize("path", ["5", "[a.json]"])
    def test_custom_path_must_be_a_file_name(self, path):
        with pytest.raises(ConfigError, match="'path'"):
            parse_config(f"n: 64\nt_end: 1.0\ninit: custom-file\npath: {path}\n")

    def test_amplitude_exceeding_half_gap(self):
        with pytest.raises(ConfigError, match="half the line gap"):
            parse_config("n: 64\nt_end: 1.0\ninit: cosine-graph\nA: 1.5\n")

    def test_non_mapping_document(self):
        with pytest.raises(ConfigError, match="key-value"):
            parse_config("- 1\n- 2\n")

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError, match="YAML"):
            parse_config("n: [unclosed\n")

    def test_infinite_horizon_rejected(self):
        with pytest.raises(ConfigError, match="t_end"):
            parse_config("n: 64\nt_end: .inf\ninit: cosine-graph\n")

    @pytest.mark.parametrize("lines, key", [
        ({"line_left": -np.inf}, "line_left"),
        ({"line_right": np.nan}, "line_right"),
        ({"line_left": -1e308, "line_right": 1e308}, "line_right - line_left"),
        ({"line_left": 1.0, "line_right": -1.0}, "must exceed"),
    ], ids=["infinite", "nan", "gap-overflows", "unordered"])
    def test_initial_lines_must_be_finite_with_a_finite_gap(self, lines, key):
        for kind in ("flat", "cosine-graph"):
            with pytest.raises(ValueError, match=re.escape(key)):
                InitialSpec(kind=kind, **lines)

    def test_document_maps_to_the_reference_frame(self):
        # half = 0.25: times scale by half**6, curvatures by 1 / half; the
        # echo keeps the document's values
        config, spec, echo = parse_config(MINIMAL + "line_left: 1.5\nline_right: 2.0\n"
                                          "stop_knorm: 0.5\nA: 0.0125\n")
        assert config.t_end == 0.05 / 0.25 ** 6
        assert config.stop_knorm == 0.125
        assert (echo["t_end"], echo["stop_knorm"]) == (0.05, 0.5)
        curve = generate_initial(spec)
        assert (curve.line_left, curve.line_right) == (-1.0, 1.0)
        assert np.abs(curve.points[:, 1]).max() == pytest.approx(0.05, rel=1e-6)


class TestGenerateInitial:
    def test_flat_is_exact(self):
        curve = generate_initial(InitialSpec(kind="flat", n=64))
        assert np.all(curve.points[:, 1] == 0.0)
        assert curve.points[0, 0] == -1.0
        assert curve.points[-1, 0] == 1.0

    def test_cosine_amplitude_reached(self, cosine_curve):
        # the crest of the half-period graph sits at the midpoint
        assert np.abs(cosine_curve.points[:, 1]).max() == pytest.approx(
            0.05, rel=1e-6
        )

    def test_cosine_nodes_uniform(self, cosine_curve):
        d = np.diff(cosine_curve.points, axis=0)
        ds = np.hypot(d[:, 0], d[:, 1])
        assert np.abs(ds - ds.mean()).max() < 1e-6 * ds.mean()

    def test_nonpositive_margin_warns(self):
        with pytest.warns(RuntimeWarning, match="margin"):
            generate_initial(
                InitialSpec(kind="cosine-graph", amplitude=0.1, mode=2, n=64)
            )

    def test_custom_file_points(self, tmp_path):
        # flat-ended bump, so the contact conditions hold at the endpoints
        x = np.linspace(-1.0, 1.0, 65)
        pts = [[float(a), float(0.01 * (1.0 - a * a) ** 2)] for a in x]
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"points": pts}))
        curve = generate_initial(InitialSpec(kind="custom-file", n=64, path=str(path)))
        assert curve.n == 64
        assert curve.points[0, 0] == -1.0

    def test_custom_file_endpoint_mismatch(self, tmp_path):
        x = np.linspace(-0.9, 1.0, 65)
        pts = [[float(a), 0.0] for a in x]
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"points": pts}))
        with pytest.raises(ConfigError, match="endpoint"):
            generate_initial(InitialSpec(kind="custom-file", n=64, path=str(path)))

    @pytest.mark.parametrize("document", [
        {"frames": [{"t": 0.0}]},
        {"frames": {"0": {"points": [[-1.0, 0.0], [1.0, 0.0]]}}},
    ], ids=["frame-without-points", "frames-not-a-list"])
    def test_malformed_custom_file_exits_2(self, tmp_path, capsys, document):
        path = tmp_path / "snaps.json"
        path.write_text(json.dumps(document))
        config = tmp_path / "config.yaml"
        config.write_text(f"n: 64\nt_end: 0.05\ninit: custom-file\npath: {path}\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "configuration error" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="frame"):
            generate_initial(InitialSpec(kind="custom-file", n=64, path=str(path)))

    def test_custom_file_frame_out_of_range(self, tmp_path):
        path = tmp_path / "snaps.json"
        path.write_text(json.dumps({"frames": [{"t": 0.0, "points": [[0.0, 0.0]]}]}))
        with pytest.raises(ConfigError, match="frame"):
            generate_initial(
                InitialSpec(kind="custom-file", n=64, path=str(path), frame=5)
            )


class TestEmit:
    def test_files_and_csv_shape(self, flat_run, tmp_path):
        written = emit(flat_run, None, tmp_path)
        names = [p.name for p in written]
        assert names == ["diagnostics.csv", "snapshots.json"]
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(CSV_COLUMNS) == 15
        assert len(lines) == 1 + len(flat_run.snapshots)

    def test_snapshots_schema(self, flat_run, tmp_path):
        emit(flat_run, None, tmp_path)
        doc = json.loads((tmp_path / "snapshots.json").read_text())
        assert doc["meta"]["schema_version"] == 1
        assert doc["meta"]["termination"] == "max_steps"
        assert "wall_time" not in doc["meta"]
        assert len(doc["frames"]) == len(flat_run.snapshots)
        frame = doc["frames"][0]
        assert frame["t"] == 0.0
        assert len(frame["points"]) == 129

    def test_verify_json_only_with_reports(self, flat_run, tmp_path):
        from hexaflow import check_dissipation

        report = check_dissipation(flat_run)
        written = emit(flat_run, [report], tmp_path)
        assert written[-1].name == "verify.json"
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["reports"][0]["name"] == "dissipation"
        assert doc["reports"][0]["passed"] is True

    def test_reemit_is_byte_identical(self, flat_run, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        emit(flat_run, None, a)
        emit(flat_run, None, b)
        for name in ("diagnostics.csv", "snapshots.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_empty_trajectory(self, tmp_path):
        emit(Trajectory((), {"termination": "none"}), None, tmp_path)
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert len(lines) == 1
        doc = json.loads((tmp_path / "snapshots.json").read_text())
        assert doc["frames"] == []

    def test_snapshots_match_the_streaming_encoder_bytes(self, flat_curve, tmp_path):
        # the reference: each node through float() and the streaming encoder
        points = flat_curve.points.copy()
        points[1:6, 1] = [-0.0, 5e-324, 1e-300, 0.1 + 0.2, -1.5e-17]
        points[7, 0] += 0.1 + 0.2 - 0.3
        points[64, 0] = -0.0
        curve = DiscreteCurve(points, flat_curve.line_left, flat_curve.line_right)
        profile = compute_geometry(flat_curve)
        record = make_record(0.0, profile, normal_speed(profile), profile.length)
        snapshots = tuple(Snapshot(t, c, record)
                          for t, c in ((0.0, flat_curve), (0.1 + 0.2, curve)))
        metadata = {"termination": "t_end", "steps": 3, "final_time": 0.1 + 0.2,
                    "rejections": 0, "wall_time": 1.25, "config": {"A": 1e-300, "m": 1}}
        emit(Trajectory(snapshots, metadata), None, tmp_path)

        meta = {k: v for k, v in metadata.items() if k != "wall_time"}
        meta["schema_version"] = 1
        frames = [{"t": snap.time,
                   "points": [[float(x), float(y)] for x, y in snap.curve.points]}
                  for snap in snapshots]
        stream = io.StringIO()
        json.dump({"meta": meta, "frames": frames}, stream, sort_keys=True,
                  separators=(",", ":"))
        expected = (stream.getvalue() + "\n").encode("utf-8")
        assert (tmp_path / "snapshots.json").read_bytes() == expected
        assert b",-0.0]" in expected and b",5e-324]" in expected
        assert b"[-0.0,0.0]" in expected
        assert b"0.30000000000000004" in expected

    @pytest.mark.parametrize("command, document", [
        ("run", MINIMAL),
        ("run", MINIMAL + "line_left: 3.0\nline_right: 5.0\n"),
        ("sweep", MINIMAL + "A: [0.02, 0.05]\n"),
    ], ids=["lines-1-1", "lines-3-5", "sweep-cells"])
    def test_streamed_snapshots_equal_the_one_shot_encoding(self, tmp_path, monkeypatch,
                                                            command, document):
        emitted = []
        real = hexaflow.cli.emit

        def recording(trajectory, reports, out_dir):
            emitted.append((trajectory, Path(out_dir)))
            return real(trajectory, reports, out_dir)

        monkeypatch.setattr("hexaflow.cli.emit", recording)
        config = tmp_path / "config.yaml"
        config.write_text(document)
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        assert len(emitted) == (2 if command == "sweep" else 1)
        for trajectory, out in emitted:
            assert len(trajectory.snapshots) >= 2
            assert (out / "snapshots.json").read_bytes() == _one_shot_snapshots(trajectory)

    def test_round_trip_reproduces_record(self, short_run, tmp_path):
        emit(short_run, None, tmp_path)
        final = short_run.snapshots[-1]
        spec = InitialSpec(
            kind="custom-file",
            n=final.curve.n,
            path=str(tmp_path / "snapshots.json"),
            frame=-1,
        )
        curve = generate_initial(spec)
        profile = compute_geometry(curve)
        rec = make_record(
            final.time, profile, normal_speed(profile),
            short_run.snapshots[0].record.length,
        )
        old = final.record
        for field in dataclasses.fields(rec):
            if field.name == "bc_residuals":
                continue
            new_v = getattr(rec, field.name)
            old_v = getattr(old, field.name)
            assert new_v == pytest.approx(old_v, rel=1e-12, abs=1e-15), field.name


class TestSweepCells:
    def test_expands_product(self):
        doc = {"A": [0.02, 0.05], "m": 1, "n": [32, 48], "t_end": 1.0}
        cells = sweep_cells(doc)
        names = [name for name, _ in cells]
        assert names == [
            "A0.02_m1_n32", "A0.02_m1_n48", "A0.05_m1_n32", "A0.05_m1_n48",
        ]
        for _, cell in cells:
            assert not any(isinstance(v, list) for v in cell.values())
        assert cells[0][1]["A"] == 0.02
        assert cells[0][1]["t_end"] == 1.0

    def test_scalar_document_is_single_cell(self):
        doc = {"A": 0.05, "m": 2, "n": 64}
        cells = sweep_cells(doc)
        assert len(cells) == 1
        assert cells[0][0] == "A0.05_m2_n64"


class TestMainEntry:
    def _write_config(self, tmp_path, extra: str = "") -> str:
        path = tmp_path / "config.yaml"
        path.write_text(MINIMAL + extra)
        return str(path)

    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "diagnostics.csv").exists()
        assert (out / "snapshots.json").exists()
        assert not (out / "verify.json").exists()
        stdout = capsys.readouterr().out
        assert "termination=t_end" in stdout
        assert "small-energy margin" in stdout

    def test_run_quiet_silences_stdout(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_run_determinism_bytes(self, tmp_path):
        cfg = self._write_config(tmp_path)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(a), "--quiet"]) == 0
        assert main(["run", "--config", cfg, "--out", str(b), "--quiet"]) == 0
        for name in ("diagnostics.csv", "snapshots.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_snapshot_every_override(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--snapshot-every", "50", "--quiet"]) == 0
        doc = json.loads((out / "snapshots.json").read_text())
        assert doc["meta"]["config"]["snapshot_every"] == 50

    def test_verify_passes_and_writes_reports(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "PASS dissipation" in stdout
        assert "FAIL" not in stdout
        doc = json.loads((out / "verify.json").read_text())
        assert doc["schema_version"] == 1
        names = [rep["name"] for rep in doc["reports"]]
        assert "dissipation" in names
        assert "psw-sample-study" in " ".join(names).replace("_", "-") or any(
            "psw" in name for name in names
        )
        assert all(rep["passed"] for rep in doc["reports"])

    @pytest.mark.parametrize("command", ["run", "verify", "sweep"])
    def test_verify_runs_the_sample_study_once_before_the_flow(self, tmp_path, monkeypatch,
                                                               command):
        # the study reads no trajectory, so its buffer is gone before the
        # first step loads scipy.linalg; `run` and `sweep` never call it
        calls = []
        real_study, real_run = hexaflow.cli.psw_sample_study, hexaflow.cli.run_flow

        def study():
            calls.append("psw_sample_study")
            return real_study(samples_per_mode=1)

        def run(*args, **kwargs):
            calls.append("run_flow")
            return real_run(*args, **kwargs)

        monkeypatch.setattr("hexaflow.cli.psw_sample_study", study)
        monkeypatch.setattr("hexaflow.cli.run_flow", run)
        out = tmp_path / "out"
        assert main([command, "--config", self._write_config(tmp_path), "--out", str(out),
                     "--quiet"]) == 0
        if command == "verify":
            assert calls == ["psw_sample_study", "run_flow"]
            study_report = json.loads((out / "verify.json").read_text())["reports"][-1]
            assert study_report["name"] == "psw-sample-study"
            assert study_report["context"].startswith("16 samples (1 per mode cap")
        else:
            assert calls == ["run_flow"]

    def test_verify_with_too_few_snapshots_writes_run_and_exits_2(self, tmp_path, capsys):
        # 6 steps at the default cadence of 100: snapshots at t = 0 and at the end only
        path = tmp_path / "short.yaml"
        path.write_text("n: 32\nt_end: 0.002\ninit: cosine-graph\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        assert not (out / "verify.json").exists()
        doc = json.loads((out / "snapshots.json").read_text())
        assert len(doc["frames"]) == 2
        assert doc["meta"]["termination"] == "t_end"
        rows = (out / "diagnostics.csv").read_text().splitlines()
        assert len(rows) == 3
        err = capsys.readouterr().err
        assert "recorded 2" in err
        assert "--snapshot-every 3" in err
        # the hinted cadence records enough snapshots to verify
        again = tmp_path / "again"
        assert main(["verify", "--config", str(path), "--out", str(again),
                     "--snapshot-every", "3", "--quiet"]) in (0, 1)
        assert len(json.loads((again / "snapshots.json").read_text())["frames"]) == 3
        assert (again / "verify.json").exists()

    def test_psw_subcommand(self, tmp_path, capsys):
        out = tmp_path / "psw"
        assert main(["psw", "--seed", "1", "--out", str(out)]) == 0
        doc = json.loads((out / "verify.json").read_text())
        assert len(doc["reports"]) == 3
        assert all(rep["passed"] for rep in doc["reports"])
        assert "PASS" in capsys.readouterr().out

    def test_sweep_creates_cell_directories(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text("n: [32, 48]\nt_end: 0.002\ninit: cosine-graph\n")
        out = tmp_path / "cells"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        for name in ("A0.05_m1_n32", "A0.05_m1_n48"):
            assert (out / name / "diagnostics.csv").exists()

    def test_sweep_matches_serial_cells(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text("n: 32\nA: [0.02, 0.05]\nt_end: 0.002\ninit: cosine-graph\n"
                        "snapshot_every: 10\n")
        out = tmp_path / "cells"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        for amplitude in ("0.02", "0.05"):
            single = tmp_path / "single.yaml"
            single.write_text(f"n: 32\nA: {amplitude}\nt_end: 0.002\n"
                              "init: cosine-graph\nsnapshot_every: 10\n")
            alone = tmp_path / f"alone{amplitude}"
            assert main(["run", "--config", str(single), "--out", str(alone),
                         "--quiet"]) == 0
            swept = json.loads((out / f"A{amplitude}_m1_n32" / "snapshots.json").read_text())
            ran = json.loads((alone / "snapshots.json").read_text())
            assert swept["meta"]["config"] == ran["meta"]["config"]
            for key in ("steps", "termination", "rejections"):
                assert swept["meta"][key] == ran["meta"][key]
            assert len(swept["frames"]) == len(ran["frames"])
            for a, b in zip(swept["frames"], ran["frames"]):
                assert np.abs(np.array(a["points"]) - np.array(b["points"])).max() <= 1e-10

    def test_sweep_rejects_duplicate_cells_before_running(self, tmp_path, capsys):
        path = tmp_path / "sweep.yaml"
        path.write_text("n: 32\nA: [0.05, 0.05]\nt_end: 0.002\ninit: cosine-graph\n")
        out = tmp_path / "cells"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        assert "A0.05_m1_n32" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_validates_every_cell_before_running(self, tmp_path, capsys):
        path = tmp_path / "sweep.yaml"
        path.write_text("n: 32\nA: [0.05, 0.02, 1.5]\nt_end: 0.002\ninit: cosine-graph\n")
        out = tmp_path / "cells"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        assert "half the line gap" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_cell_that_cannot_be_built_is_named(self, tmp_path, capsys):
        # at m = 3 and A = 0.45 resampling leaves the spacing 3.4% (n = 32)
        # and 1.0% (n = 64) off uniform, past SPACING_TOL
        path = tmp_path / "sweep.yaml"
        path.write_text("A: [0.05, 0.45]\nm: [3]\nn: [32, 64]\nt_end: 0.002\n"
                        "init: cosine-graph\n")
        out = tmp_path / "cells"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cell A0.45_m3_n32: ")
        assert "n = 32, A = 0.45, m = 3" in err
        assert "spacing deviates" in err
        assert not out.exists()

    def test_sweep_empty_grid_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sweep.yaml"
        path.write_text("n: 32\nA: []\nt_end: 0.002\ninit: cosine-graph\n")
        out = tmp_path / "cells"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        assert "'A'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n", "A", "max_steps"])
    def test_null_value_exits_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(json.dumps({"n": 64, "t_end": 0.05, "init": "cosine-graph", key: None}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"key '{key}'" in capsys.readouterr().err

    def test_sweep_underflow_exits_1_and_keeps_other_cells(self, tmp_path, monkeypatch):
        import hexaflow.flow as flow

        real = flow._advance

        def reject_large(points, geometry, dt, solve):
            new_points, new_geometry = real(points, geometry, dt, solve)
            new_geometry.valid[np.abs(points[:, :, 1]).max(axis=1) > 0.065] = False
            return new_points, new_geometry

        monkeypatch.setattr("hexaflow.flow._advance", reject_large)
        path = tmp_path / "sweep.yaml"
        path.write_text("n: 32\nA: [0.02, 0.08]\nt_end: 0.002\ninit: cosine-graph\n")
        out = tmp_path / "cells"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 1
        terminations = {
            name: json.loads((out / name / "snapshots.json").read_text())["meta"]["termination"]
            for name in ("A0.02_m1_n32", "A0.08_m1_n32")
        }
        assert terminations == {"A0.02_m1_n32": "t_end", "A0.08_m1_n32": "dt_underflow"}

    def test_python_dash_m_entry_point(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "hexaflow", "--help"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "usage: hexaflow" in proc.stdout
        assert proc.stderr == ""

    def test_nan_stop_knorm_exits_2(self, tmp_path, capsys):
        # NaN passes a `< 0` test; the run would never stop on curvature and
        # snapshots.json would hold a bare NaN token, which is not JSON
        cfg = self._write_config(tmp_path, "stop_knorm: .nan\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert "stop_knorm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "verify", "sweep", "psw"])
    @pytest.mark.parametrize("below", [False, True], ids=["is-file", "under-file"])
    def test_out_on_a_file_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                   command, below):
        def refuse(*args, **kwargs):
            raise AssertionError("work started although --out cannot be written")

        for name in ("run_flow", "run_ensemble", "psw_sample_study"):
            monkeypatch.setattr(f"hexaflow.cli.{name}", refuse)
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        out = blocker / "cells" if below else blocker
        argv = [command, "--out", str(out), "--quiet"]
        if command != "psw":
            argv += ["--config", self._write_config(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{blocker} is a file" in err
        assert blocker.read_text() == "keep"

    def test_unknown_keys_of_mixed_types_exit_2(self, tmp_path, capsys):
        # YAML reads the key 1 as an int, which does not sort among str keys
        cfg = self._write_config(tmp_path, "1: a\nb: 2\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: unknown keys 'b', 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("lines, key", [
        ("line_left: -.inf\n", "line_left"),
        ("line_left: -1e308\nline_right: 1e308\n", "line_right - line_left"),
    ], ids=["infinite", "gap-overflows"])
    def test_lines_that_overflow_exit_2(self, tmp_path, capsys, lines, key):
        cfg = self._write_config(tmp_path, lines)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("lines, key", [
        ("line_left: -1e308\nline_right: 0\n", "line_right - line_left"),
        ("line_left: -1e200\nline_right: 1e200\n", "line_right - line_left"),
        ("line_left: -1e-200\nline_right: 1e-200\n", "line_right - line_left"),
    ], ids=["left-far-out", "both-far-out", "gap-too-small"])
    def test_lines_out_of_scale_exit_2(self, tmp_path, capsys, lines, key):
        # finite lines with a finite gap whose arithmetic would overflow or underflow
        cfg = self._write_config(tmp_path, lines + "A: 0\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("left, right", [(999999999998.0, 1e12), (1.0, 1.000000000001)],
                             ids=["far-offset", "offset-tiny-gap"])
    def test_offset_lines_give_the_reference_results(self, tmp_path, left, right):
        # lines far from x = 0, or 1e-12 apart there, map to x = -1 and 1:
        # the run is the origin's, its outputs mapped out by powers of half
        half, mid = 0.5 * (right - left), 0.5 * (left + right)
        outputs = []
        for lines, scale in (("", 1.0), (f"line_left: {left!r}\nline_right: {right!r}\n", half)):
            cfg = tmp_path / "config.yaml"
            cfg.write_text(f"n: 64\ninit: cosine-graph\nsnapshot_every: 10\nA: {0.05 * scale!r}\n"
                           f"t_end: {0.002 * scale ** 6!r}\n{lines}")
            out = tmp_path / f"out{scale}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
            rows = np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=1)
            powers = np.array([LENGTH_POWERS[column] for column in CSV_COLUMNS])
            outputs.append((rows * scale ** -powers,
                            json.loads((out / "snapshots.json").read_text())))
        (origin_rows, origin), (rows, mapped) = outputs
        np.testing.assert_allclose(rows, origin_rows, rtol=1e-9,
                                   atol=1e-9 * np.abs(origin_rows).max())
        for key in ("steps", "termination", "rejections"):
            assert mapped["meta"][key] == origin["meta"][key], key
        assert len(mapped["frames"]) == len(origin["frames"]) == len(origin_rows) == 4
        # writing x = mid + half * xi rounds xi by up to half an ulp of mid, over half
        bound = 1e-12 + np.spacing(abs(mid)) / half
        for a, b in zip(mapped["frames"], origin["frames"]):
            assert a["t"] / half ** 6 == pytest.approx(b["t"], rel=1e-12)
            back = (np.array(a["points"]) - [mid, 0.0]) / half
            assert np.abs(back - np.array(b["points"])).max() <= bound

    def test_sweep_names_each_cell_outside_the_small_energy_margin(self, tmp_path, capsys):
        path = tmp_path / "sweep.yaml"
        path.write_text("n: [32]\nm: [1, 2]\nA: [0.05, 0.1]\nt_end: 0.002\ninit: cosine-graph\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # one line per cell, no warning
            assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "cells"),
                         "--quiet"]) == 0
        expected = []
        for a, m in ((0.05, 1), (0.05, 2), (0.1, 1), (0.1, 2)):  # grid order
            spec = InitialSpec(kind="cosine-graph", amplitude=a, mode=m, n=32)
            _, margin, _ = generate_initial(spec, with_margin=True)
            if margin <= 0.0:
                expected.append(f"cell A{a}_m{m}_n32: small-energy margin is not positive "
                                f"(delta = {margin:.6g}) at n = 32, A = {a}, m = {m}")
        assert len(expected) == 3
        assert capsys.readouterr().err.splitlines() == expected

    def test_verify_is_scale_free(self, tmp_path):
        # one shape between lines gap apart (A = 0.025 gap, t_end = 0.02 (gap/2)**6)
        # is stepped and checked in the reference frame: verify.json is that of
        # the document between x = -1 and 1 that it maps to, byte for byte
        # (at gap 0.2, A maps to 0.05 plus an ulp)
        def verify(half: float, amplitude: float, t_end: float) -> tuple[int, bytes]:
            cfg = tmp_path / "config.yaml"
            cfg.write_text(f"n: 64\ninit: cosine-graph\nsnapshot_every: 10\nA: {amplitude!r}\n"
                           f"t_end: {t_end!r}\nline_left: {-half!r}\nline_right: {half!r}\n")
            out = tmp_path / f"half{half}"
            code = main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"])
            return code, (out / "verify.json").read_bytes()

        for gap in (0.2, 0.02, 2e-5):
            half = 0.5 * gap
            amplitude, t_end = 0.025 * gap, 0.02 * half ** 6
            reference = verify(1.0, amplitude / half, t_end / half ** 6)
            assert reference[0] == 0
            assert verify(half, amplitude, t_end) == reference, gap

    def test_run_measures_the_initial_curve_once(self, tmp_path, capsys, monkeypatch):
        # the margin line reuses generate_initial's measurement and still
        # comes before the run
        measured = []
        real = hexaflow.cli.compute_geometry

        def counting(curve):
            measured.append(curve.n)
            return real(curve)

        monkeypatch.setattr("hexaflow.cli.compute_geometry", counting)
        assert main(["run", "--config", self._write_config(tmp_path),
                     "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("small-energy margin delta = ")
        assert out.index("small-energy margin") < out.index("run finished")
        assert measured == [64]

    def test_verify_measures_each_snapshot_once(self, tmp_path, monkeypatch):
        # the four identity checks and both boundary reports share one profile
        # per snapshot, and let them go before the sample study runs
        measured = {"cli": 0, "verify": 0}
        for module in measured:
            real = getattr(hexaflow, module).compute_geometry

            def counting(curve, module=module, real=real):
                measured[module] += 1
                return real(curve)

            monkeypatch.setattr(f"hexaflow.{module}.compute_geometry", counting)
        real_study = hexaflow.cli.psw_sample_study

        def study():
            assert not hexaflow.verify._shared
            return real_study(samples_per_mode=1)

        monkeypatch.setattr("hexaflow.cli.psw_sample_study", study)
        out = tmp_path / "out"
        assert main(["verify", "--config", self._write_config(tmp_path),
                     "--out", str(out), "--quiet"]) == 0
        frames = json.loads((out / "snapshots.json").read_text())["frames"]
        assert len(frames) >= 3
        assert measured == {"cli": 1, "verify": len(frames)}

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("n: 8\nt_end: 1.0\ninit: flat\n")
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "not found" in capsys.readouterr().err


COMMAND_SCRIPT = """
import sys
{prelude}
import hexaflow.cli
print("scipy after import:", "scipy" in sys.modules)
code = hexaflow.cli.main([{command!r}, "--config", {config!r}, "--out", {out!r}, "--quiet"])
print("exit:", code)
print("scipy after command:", "scipy" in sys.modules)
"""


def _fresh_command(tmp_path, command: str, prelude: str = "") -> tuple[Path, dict]:
    """Run one command in a new interpreter; its --out and what it printed."""
    config = tmp_path / "config.yaml"
    # both cells of each n step as one ensemble
    config.write_text("n: [32, 48]\nt_end: 0.002\ninit: cosine-graph\nA: [0.02, 0.05]\n"
                      if command == "sweep" else MINIMAL)
    out = tmp_path / "out"
    script = COMMAND_SCRIPT.format(prelude=prelude, command=command, config=str(config),
                                   out=str(out))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return out, dict(line.split(": ") for line in proc.stdout.splitlines())


def test_import_and_sweep_never_load_scipy(tmp_path):
    """scipy is the single-run banded solver; ensembles and the CLI import never need it."""
    out, printed = _fresh_command(tmp_path, "sweep")
    assert printed == {"scipy after import": "False", "exit": "0",
                       "scipy after command": "False"}
    assert len([p for p in out.iterdir() if (p / "snapshots.json").is_file()]) == 4


def test_sweep_runs_with_scipy_blocked(tmp_path):
    out, printed = _fresh_command(tmp_path, "sweep", 'sys.modules["scipy"] = None')
    assert printed["exit"] == "0"
    cells = sorted(p.name for p in out.iterdir())
    assert cells == ["A0.02_m1_n32", "A0.02_m1_n48", "A0.05_m1_n32", "A0.05_m1_n48"]
    for cell in cells:
        assert {p.name for p in (out / cell).iterdir()} == {"diagnostics.csv",
                                                             "snapshots.json"}


def test_single_run_loads_scipy_at_its_first_step(tmp_path):
    _, printed = _fresh_command(tmp_path, "run")
    assert printed == {"scipy after import": "False", "exit": "0",
                       "scipy after command": "True"}


def test_benchmark_tracer_targets_resolve():
    """Every attribute the benchmark tracer wraps exists once the CLI is imported."""
    spans_path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import hexaflow.cli  # noqa: F401  (loads every module the tracer patches)

    missing = [f"{module}.{attr}" for module, attr in spans.WRAPPED
               if not callable(getattr(sys.modules.get(module), attr, None))]
    assert not missing


def _documented_default(text):
    """MISSING for "required", None for "–", else the YAML value."""
    if text == "required":
        return dataclasses.MISSING
    return None if text == "–" else yaml.safe_load(text)


def test_documented_keys_and_defaults_match_the_schema():
    """README's key table and the cli docstring's key list follow the dataclass fields."""
    schema = {key: f.default for key, f in _CONFIG_KEYS.items()}

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Key | Default | Meaning |", 1)[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:  # below the rule under the header
        keys, defaults = line.split("|")[1:3]
        keys = re.findall(r"`([^`]+)`", keys)
        values = re.findall(r"`([^`]+)`", defaults) or [defaults.strip()] * len(keys)
        rows.update({k: _documented_default(v) for k, v in zip(keys, values, strict=True)})
    assert rows == schema

    listing = hexaflow.cli.__doc__.split("Keys and defaults:", 1)[1].split("\n\n")[1]
    listed = {}
    for line in listing.splitlines():
        key, text = line.split(maxsplit=1)
        found = re.search(r"\(default (\S+?)[,;)]", text)
        listed[key] = _documented_default(
            "required" if "(required" in text else found.group(1) if found else "–")
    assert listed == schema
