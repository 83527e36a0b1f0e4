"""Command-line entry points, configuration parsing and serialization.

Subcommands: `run` simulates and writes diagnostics, `verify` additionally
runs every verification check, `psw` samples the Poincare-type inequalities
standalone, and `sweep` runs a grid of configurations.  `run`, `verify` and
`sweep` share one path: a plan of runs, each checked before any stepping
(`run` and `verify` plan one run written to --out, `sweep` one per grid cell,
each in its own subdirectory), all initial curves, for `verify` the sample
study, then the flow's run loop once per flow configuration, and `emit` for
each run: `run_flow` (banded solve) for a configuration only one run has, as
every `run` and `verify`, `run_ensemble` for runs that share one (in
practice, sweep cells of equal n).

Configuration documents are YAML key-value files.  The keys, their
defaults and integer or float types are the fields of FlowConfig and
InitialSpec (`init`, `A` and `m` name the fields kind, amplitude and mode);
a field without a default is a required key.  Keys and defaults:

  n               node count (required, >= 16)
  t_end           time horizon (required, > 0)
  init            cosine-graph | flat | custom-file (required)
  A               cosine amplitude (default 0.05; must stay below half the gap)
  m               cosine mode, integer >= 1 (default 1)
  dt_safety       step factor in (0, 1] (default 0.1)
  snapshot_every  steps between snapshots (default 100)
  line_left       left boundary line abscissa (default -1.0)
  line_right      right boundary line abscissa (default 1.0; 1e-12 .. 1e12 from line_left)
  stop_knorm      terminate when sup|k| drops below this (default 0, disabled)
  max_steps       step cap (default 10000000)
  path            source file for custom-file initial data
  frame           frame index into a custom file (default -1, the last)

Unknown keys are rejected so misspellings cannot silently fall back to
defaults.  All defaults are echoed into the run metadata.

Runs step between x = -1 and 1; only this module knows a document's lines.
With half = (line_right - line_left) / 2 and mid their midpoint, x maps to
(x - mid) / half, y to y / half and t to t / half**6, and back on output.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import MISSING, asdict, dataclass, fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import yaml

from .curve import (
    MIN_SEGMENTS,
    CurveError,
    DiscreteCurve,
    check_lines,
    compute_geometry,
    integrate,
    resample_uniform,
)
from .diagnostics import C0_PI3, Trajectory, small_energy_margin
from .flow import FlowConfig, run_ensemble, run_flow
from .verify import (
    MIN_SNAPSHOTS,
    CheckReport,
    check_boundary_hierarchy,
    check_dissipation,
    check_k2_identity,
    check_kss_inequality,
    check_length_identity,
    check_psw,
    psw_sample_study,
    snapshot_profiles,
)

SCHEMA_VERSION = 1
DENSE_SAMPLES = 8192

# diagnostics.csv: each column, a DiagnosticsRecord field or (bc_*) a
# bc_residuals entry, and the power of half by which it goes from reference
# to document units
CSV_COLUMNS = {
    "time": 6, "omega": 0, "length": 1, "energy": -3, "knorm2": -1, "ksnorm2": -3,
    "kssnorm2": -5, "k_inf": -1, "ks_inf": -2, "delta_margin": 0, "dissipation": -9,
    "bc_ks_left": -2, "bc_ks_right": -2, "bc_ksss_left": -4, "bc_ksss_right": -4,
}


class ConfigError(ValueError):
    """A configuration document is malformed or violates a constraint."""


@dataclass(frozen=True)
class InitialSpec:
    """Recipe for the initial curve."""

    kind: str
    amplitude: float = 0.05
    mode: int = 1
    n: int = 128
    line_left: float = -1.0
    line_right: float = 1.0
    path: str | None = None
    frame: int = -1

    def __post_init__(self):
        if self.kind not in ("cosine-graph", "flat", "custom-file"):
            raise ValueError(f"unknown initial kind {self.kind!r}")
        if self.n < MIN_SEGMENTS:
            raise ValueError(f"n must be >= {MIN_SEGMENTS}, got {self.n}")
        check_lines(self.line_left, self.line_right)
        if self.kind == "cosine-graph":
            half_gap = 0.5 * (self.line_right - self.line_left)
            if not 0.0 <= self.amplitude < half_gap:
                raise ValueError(
                    f"A must satisfy 0 <= A < {half_gap} (half the line gap), "
                    f"got {self.amplitude}"
                )
            if self.mode < 1:
                raise ValueError(f"m must be a positive integer, got {self.mode}")
        if self.kind == "custom-file" and not self.path:
            raise ValueError("custom-file initial data needs a 'path' key")


def _frame(config) -> tuple[float, float]:
    """half and mid of the lines a config names (default -1 and 1): x = mid + half * xi."""
    left, right = config.get("line_left", -1.0), config.get("line_right", 1.0)
    return 0.5 * (right - left), 0.5 * (left + right)


def _load_custom_points(spec: InitialSpec) -> np.ndarray:
    with open(spec.path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "frames" in data:
        frames = data["frames"]
        if not isinstance(frames, list):
            raise ConfigError(f"{spec.path}: 'frames' must be a list, "
                              f"got {type(frames).__name__}")
        if not frames:
            raise ConfigError(f"{spec.path}: no frames to ingest")
        try:
            frame = frames[spec.frame]
        except IndexError:
            raise ConfigError(
                f"{spec.path}: frame {spec.frame} out of range ({len(frames)} frames)"
            ) from None
        if not isinstance(frame, dict) or "points" not in frame:
            raise ConfigError(f"{spec.path}: frame {spec.frame} has no 'points' entry")
        points = frame["points"]
    elif isinstance(data, dict) and "points" in data:
        points = data["points"]
    else:
        raise ConfigError(f"{spec.path}: expected a 'points' or 'frames' entry")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigError(f"{spec.path}: points must be an (n+1) x 2 table")
    gap = spec.line_right - spec.line_left
    if (abs(pts[0, 0] - spec.line_left) > 1e-9 * gap
            or abs(pts[-1, 0] - spec.line_right) > 1e-9 * gap):
        raise ConfigError(
            f"{spec.path}: endpoint abscissae {pts[0, 0]}, {pts[-1, 0]} do not "
            f"match the configured lines {spec.line_left}, {spec.line_right}"
        )
    half, mid = _frame(vars(spec))
    pts[:, 0] -= mid
    pts /= half
    pts[[0, -1], 0] = -1.0, 1.0
    return pts


def generate_initial(spec: InitialSpec, *, with_margin: bool = False):
    """Build the initial curve for a run, between the lines x = -1 and 1.

    The cosine graph y = (A / half) cos(m*pi*(u+1)/2), u in [-1, 1], meets
    both lines perpendicularly with every odd derivative of y vanishing at
    the ends, so the contact conditions hold exactly in the continuum; it is
    sampled densely and resampled to n+1 uniform nodes.  A nonpositive
    small-energy margin (scale-free, so that of the document's curve too)
    triggers a warning, not an error: the run proceeds, only the decay
    guarantees are off.  With `with_margin`, returns (curve, margin,
    |k_s|^2 L^3) and leaves reporting the margin to the caller.
    """
    if spec.kind == "flat":
        x = np.linspace(-1.0, 1.0, spec.n + 1)
        curve = DiscreteCurve(np.column_stack([x, np.zeros_like(x)]))
    elif spec.kind == "cosine-graph":
        half, _ = _frame(vars(spec))
        u = np.linspace(-1.0, 1.0, DENSE_SAMPLES + 1)
        y = spec.amplitude / half * np.cos(0.5 * spec.mode * math.pi * (u + 1.0))
        curve = resample_uniform(DiscreteCurve(np.column_stack([u, y])), spec.n)
    else:
        curve = DiscreteCurve(_load_custom_points(spec))
        if curve.n != spec.n:
            curve = resample_uniform(curve, spec.n)
    profile = compute_geometry(curve)
    ksnorm2 = integrate(profile.k_s ** 2, profile)
    margin = small_energy_margin(ksnorm2, profile.length)
    if with_margin:
        return curve, margin, ksnorm2 * profile.length ** 3
    if margin <= 0.0:
        warnings.warn(
            f"small-energy margin is not positive (delta = {margin:.6g}); "
            "length decrease and exponential decay are not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )
    return curve


def _coerce_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}")
    return int(value)


def _coerce_float(key: str, value) -> float:
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(f"key {key!r}: expected a number, got {value!r}")


_COERCE = {"int": _coerce_int, "float": _coerce_float}  # by field annotation
_YAML_KEY = {"kind": "init", "amplitude": "A", "mode": "m"}  # field name -> key


def _config_keys() -> dict:
    """Every configuration key and the dataclass field it sets.

    FlowConfig comes first, so n, which both classes have, takes its default
    from FlowConfig: it has none there and is therefore required.
    """
    keys = {}
    for f in fields(FlowConfig) + fields(InitialSpec):
        keys.setdefault(_YAML_KEY.get(f.name, f.name), f)
    return keys


_CONFIG_KEYS = _config_keys()


def _field_values(cls, echo: dict) -> dict:
    return {f.name: echo[_YAML_KEY.get(f.name, f.name)] for f in fields(cls)}


def parse_config(text: str) -> tuple[FlowConfig, InitialSpec, dict]:
    """Parse a YAML configuration document into validated run parameters.

    Returns the flow configuration (in the reference frame), the
    initial-curve recipe, and the full echo of every key with defaults filled
    in (recorded into run metadata).  Unknown keys, type mismatches and constraint violations raise
    ConfigError naming the key.
    """
    return _config_from_dict(_load_document(text))


def _load_document(text: str) -> dict:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"configuration is not valid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"configuration must be a key-value document, got {type(doc).__name__}")
    return doc


def _config_from_dict(doc: dict) -> tuple[FlowConfig, InitialSpec, dict]:
    """Coerce key types and build the validated run parameters of one document.

    Keys, defaults, types and the constraints on values are those of
    FlowConfig and InitialSpec.
    """
    unknown = sorted(map(repr, set(doc) - set(_CONFIG_KEYS)))
    if unknown:
        raise ConfigError("unknown key" + ("s" if len(unknown) > 1 else "")
                          + " " + ", ".join(unknown))

    echo = {key: f.default for key, f in _CONFIG_KEYS.items() if f.default is not MISSING}
    echo.update(doc)
    for key, f in _CONFIG_KEYS.items():
        if key in echo and f.type in _COERCE:
            echo[key] = _COERCE[f.type](key, echo[key])

    # a bad n is reported before missing required keys, so a document
    # containing only that value gets the more useful error
    if "n" in echo and echo["n"] < MIN_SEGMENTS:
        raise ConfigError(f"key 'n': must be >= {MIN_SEGMENTS}, got {echo['n']}")
    missing = [k for k, f in _CONFIG_KEYS.items() if f.default is MISSING and k not in doc]
    if missing:
        raise ConfigError("missing required key" + ("s" if len(missing) > 1 else "")
                          + " " + ", ".join(repr(k) for k in missing))

    if echo["init"] != "custom-file":
        echo["path"] = None
    elif echo["path"] is not None and not isinstance(echo["path"], str):
        raise ConfigError(f"key 'path': expected a file name, got {echo['path']!r}")
    try:
        spec = InitialSpec(**_field_values(InitialSpec, echo))
        half, _ = _frame(echo)
        config = replace(FlowConfig(**_field_values(FlowConfig, echo)),
                         t_end=echo["t_end"] / half ** 6, stop_knorm=echo["stop_knorm"] * half)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, spec, echo


def sweep_cells(doc: dict) -> list[tuple[str, dict]]:
    """Expand list-valued A, m, n keys into one configuration per grid cell."""
    if not isinstance(doc, dict):
        raise ConfigError("sweep configuration must be a key-value document")
    grids = {}
    for key in ("A", "m", "n"):
        value = doc.get(key)
        grids[key] = list(value) if isinstance(value, list) else [value]
        if not grids[key]:
            raise ConfigError(f"key {key!r}: an empty list leaves the grid without cells")
    cells = []
    for a, m, n in product(grids["A"], grids["m"], grids["n"]):
        cell = dict(doc)
        for key, value in (("A", a), ("m", m), ("n", n)):
            if value is None:
                cell.pop(key, None)
            else:
                cell[key] = value
        # label unswept dimensions by their effective default
        label_a = a if a is not None else InitialSpec.amplitude
        label_m = m if m is not None else InitialSpec.mode
        name = f"A{label_a}_m{label_m}_n{n}"
        cells.append((name, cell))
    return cells


def _format_number(value: float) -> str:
    return repr(float(value))


def emit(trajectory: Trajectory, reports: list[CheckReport] | None, out_dir) -> list[Path]:
    """Write diagnostics.csv, snapshots.json and (given reports) verify.json.

    Times, points and diagnostics are mapped to the lines of the metadata's
    config; verify.json stays in reference units.  Numbers are serialized in
    full round-trip precision and every mapping is key-sorted, so identical
    inputs produce byte-identical files.  The wall-time field of the run
    metadata is deliberately excluded.
    """
    half, mid = _frame(trajectory.metadata.get("config", {}))
    scales = [half ** power for power in CSV_COLUMNS.values()]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    csv_path = out / "diagnostics.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for snap in trajectory.snapshots:
            rec = snap.record
            row = (rec.bc_residuals[name[3:]] if name.startswith("bc_") else getattr(rec, name)
                   for name in CSV_COLUMNS)
            fh.write(",".join(_format_number(v * scale) for v, scale in zip(row, scales))
                     + "\n")
    written.append(csv_path)

    meta = {k: v for k, v in trajectory.metadata.items() if k != "wall_time"}
    meta["schema_version"] = SCHEMA_VERSION
    time_scale = half ** 6
    if "final_time" in meta:
        meta["final_time"] *= time_scale
    # a frame at a time, in the bytes of _encode({"meta": meta, "frames": [...]}) + "\n"
    snapshots_path = out / "snapshots.json"
    with open(snapshots_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{"frames":[')
        for index, snap in enumerate(trajectory.snapshots):
            points = snap.curve.points * half
            if mid:  # adding 0.0 would turn a -0.0 abscissa into 0.0
                points[:, 0] += mid
            fh.write(("," if index else "")
                     + _encode({"t": snap.time * time_scale, "points": points.tolist()}))
        fh.write('],"meta":' + _encode(meta) + "}\n")
    written.append(snapshots_path)
    if reports is not None:
        written.append(_write_reports(out, reports))
    return written


def _encode(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _write_json(path: Path, document: dict) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_encode(document) + "\n")
    return path


def _write_reports(out: Path, reports: list[CheckReport]) -> Path:
    return _write_json(out / "verify.json",
                       {"schema_version": SCHEMA_VERSION,
                        "reports": [asdict(report) for report in reports]})


def _print_summary(trajectory: Trajectory) -> None:
    meta = trajectory.metadata
    final = trajectory.snapshots[-1].record
    half, _ = _frame(meta.get("config", {}))
    print(f"run finished: termination={meta['termination']} steps={meta['steps']} "
          f"t={meta['final_time'] * half ** 6:.6g} snapshots={len(trajectory.snapshots)}")
    print(f"final: L={final.length * half:.9g} energy={final.energy * half ** -3:.6g} "
          f"k_inf={final.k_inf * half ** -1:.6g} omega={final.omega:.3g}")


def _print_reports(reports: list[CheckReport]) -> None:
    for report in reports:
        flag = "PASS" if report.passed else "FAIL"
        print(f"{flag} {report.name}: residual {report.residual:.3g} "
              f"(tolerance {report.tolerance:.3g})")


def _verify_reports(trajectory: Trajectory, study: CheckReport) -> list[CheckReport]:
    # the six trajectory reports read one profile per snapshot, which the
    # first check builds; the sample study, run before the flow, is the seventh
    return [
        check_dissipation(trajectory),
        check_length_identity(trajectory),
        check_k2_identity(trajectory),
        check_kss_inequality(trajectory),
        check_boundary_hierarchy(snapshot_profiles(trajectory)[0]),
        check_boundary_hierarchy(snapshot_profiles(trajectory)[-1]),
        study,
    ]


def _output_dir(path: str) -> Path:
    """The --out directory, rejected when it is or lies under an existing file."""
    out = Path(path)
    for node in (out, *out.parents):
        if node.is_file():
            raise ValueError(f"--out {out} cannot be a directory: {node} is a file")
    return out


def _plan(args) -> list[tuple[str, Path, FlowConfig, InitialSpec, dict]]:
    """Every run of a `run`, `verify` or `sweep` command, checked before any runs.

    Entries are (label, output directory, config, spec, echo): one unlabelled
    run written to --out, or one labelled run per sweep cell, written to the
    cell's subdirectory.
    """
    out = _output_dir(args.out)
    doc = _load_document(Path(args.config).read_text(encoding="utf-8"))
    if args.snapshot_every is not None:
        doc["snapshot_every"] = args.snapshot_every
    if args.command != "sweep":
        return [("", out, *_config_from_dict(doc))]
    plan = []
    names = set()
    for name, cell in sweep_cells(doc):
        if name in names:
            raise ConfigError(f"sweep cell {name!r} appears twice in the grid")
        names.add(name)
        plan.append((f"cell {name}: ", out / name, *_config_from_dict(cell)))
    return plan


def _cmd_flow(args) -> int:
    """`run`, `verify` and `sweep`: exit 1 if a run underflows or a check fails.

    A `verify` run that records too few snapshots for the checks is still
    written, without verify.json, and exits 2; its sample study has run.  An
    unbuildable initial curve (an error) or a nonpositive margin (a line on
    standard error) is named with its cell's label, n, A and m, before any run.
    """
    groups: dict[FlowConfig, list[tuple[str, Path, dict, DiscreteCurve, str]]] = {}
    notes = []
    for label, out, config, spec, echo in _plan(args):
        try:
            curve, margin, ks_l3 = generate_initial(spec, with_margin=True)
        except CurveError as exc:
            raise ConfigError(f"{label}cannot build the {spec.kind} initial curve with "
                              f"n = {spec.n}, A = {spec.amplitude}, m = {spec.mode}: "
                              f"{exc}") from exc
        if margin <= 0.0:
            notes.append(f"{label}small-energy margin is not positive (delta = {margin:.6g}) "
                         f"at n = {spec.n}, A = {spec.amplitude}, m = {spec.mode}\n")
        summary = (f"small-energy margin delta = {margin:.6g} "
                   f"(|k_s|^2 L0^3 = {ks_l3:.6g}, threshold = {C0_PI3:.6g})")
        groups.setdefault(config, []).append((label, out, echo, curve, summary))
    sys.stderr.write("".join(notes))
    # The sample study reads no trajectory, so it runs before the flow: its
    # buffer is gone before the first banded solve loads scipy.linalg.
    study = psw_sample_study() if args.command == "verify" else None
    failed = False
    too_few = False
    for config, runs in groups.items():
        if not args.quiet:
            for label, _, _, _, summary in runs:
                print(f"{label}{summary}")
        extras = [{"config": echo} for _, _, echo, *_ in runs]
        if len(runs) == 1:
            trajectories = [run_flow(config, runs[0][3], extra_metadata=extras[0])]
        else:
            trajectories = run_ensemble(config, [run[3] for run in runs], extras)
        for (label, out, *_), trajectory in zip(runs, trajectories):
            recorded = len(trajectory.snapshots)
            unverifiable = args.command == "verify" and recorded < MIN_SNAPSHOTS
            reports = (_verify_reports(trajectory, study)
                       if args.command == "verify" and not unverifiable else None)
            emit(trajectory, reports, out)
            status = trajectory.metadata["termination"]
            if not args.quiet:
                _print_summary(trajectory)
                if reports is not None:
                    _print_reports(reports)
                if label:
                    print(f"{label}termination={status} -> {out}")
            if status == "dt_underflow":
                print(f"{label}run aborted: dt underflow", file=sys.stderr)
                failed = True
            if reports is not None and not all(report.passed for report in reports):
                failed = True
            if unverifiable:
                steps = trajectory.metadata["steps"]
                hint = (f"rerun with --snapshot-every {steps // 2} or less" if steps >= 2
                        else "that takes a run of at least 2 steps")
                print(f"{label}cannot verify: the checks need at least {MIN_SNAPSHOTS} "
                      f"snapshots, the run recorded {recorded} in {steps} steps at "
                      f"snapshot_every = {config.snapshot_every}; {hint}; "
                      f"wrote the run to {out}", file=sys.stderr)
                too_few = True
    return 2 if too_few else 1 if failed else 0


def _cmd_psw(args) -> int:
    out = _output_dir(args.out)
    length = math.pi
    grid = 4096
    s = np.linspace(0.0, length, grid + 1)
    reports = [
        psw_sample_study(seed=args.seed),
        check_psw(np.cos(s), length, "mean-zero"),
        check_psw(np.sin(s), length, "dirichlet"),
    ]
    out.mkdir(parents=True, exist_ok=True)
    _write_reports(out, reports)
    if not args.quiet:
        _print_reports(reports)
    return 0 if all(report.passed for report in reports) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hexaflow",
        description="Sixth-order curve-straightening flow between parallel lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("run", "simulate and write diagnostics"),
                            ("verify", "simulate, then run every verification check"),
                            ("sweep", "run a grid of configurations")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML configuration file")
        p.add_argument("--snapshot-every", type=int, default=None,
                       help="override snapshot cadence (steps)")
        p.set_defaults(func=_cmd_flow)
    p = sub.add_parser("psw", help="sample the Poincare-type inequalities")
    p.add_argument("--seed", type=int, default=0, help="random seed (recorded)")
    p.set_defaults(func=_cmd_psw)
    for p in sub.choices.values():
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
