"""Digests of hexaflow's recorded outputs, to show that a change leaves them byte-identical.

    python3 tools/digests.py SRC [BASE_SRC]

SRC and BASE_SRC are directories holding the `hexaflow` package (a
checkout's `src`).  Each recorded document runs as one `hexaflow` command
in a fresh interpreter with that package, and one line is printed per
output set: the sha256 of its bytes, the command's exit code and the set's
name.  With BASE_SRC, every set also runs on that package, both digests
and exit codes are printed, and the line ends `same` or `DIFFERS`; the
script exits 1 if any set differs.

Output sets:
  verify  n = 256, t_end = 0.02, snapshot_every = 100 at two amplitudes:
          diagnostics.csv, snapshots.json and verify.json, each alone
          (a `run` of the same document writes the first two)
  psw     `psw --seed 0`: verify.json
  sweep   the four grids of the benchmark's seed 101 (n in {32, 64},
          m in {1, 2, 3}, t_end = 0.1, snapshot_every = 50): the digest of
          the whole --out directory, as
          `find . -type f | sort | xargs sha256sum | sha256sum` gives it
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

VERIFY = {"init": "cosine-graph", "m": 1, "n": 256, "t_end": 0.02, "snapshot_every": 100}
VERIFY_AMPLITUDES = (0.041396, 0.058604)
SWEEP = {"init": "cosine-graph", "m": [1, 2, 3], "n": [32, 64], "t_end": 0.1,
         "snapshot_every": 50}
SWEEP_AMPLITUDES = (
    [0.061005, 0.068995, 0.033505, 0.096495],
    [0.05413, 0.07587, 0.02663, 0.10337],
    [0.047255, 0.082745, 0.019755, 0.110245],
    [0.04038, 0.08962, 0.01288, 0.11712],
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    """sha256 of a file, or "-" when the command did not write it."""
    return _sha256(path.read_bytes()) if path.is_file() else "-"


def directory_digest(root: Path) -> str:
    """`find . -type f | sort | xargs sha256sum | sha256sum` inside `root`, in byte order."""
    names = sorted("./" + path.relative_to(root).as_posix()
                   for path in root.rglob("*") if path.is_file())
    listing = "".join(f"{_sha256((root / name).read_bytes())}  {name}\n" for name in names)
    return _sha256(listing.encode())


def hexaflow(src: Path, args: list[str]) -> int:
    """Exit code of one `hexaflow` command run in a new interpreter on the package in `src`."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-m", "hexaflow", *args, "--quiet"],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode


def digests(src: Path, work: Path):
    """(name, exit code, digest) of every output set, run in the directory `work`."""
    work.mkdir(parents=True, exist_ok=True)

    def run(name: str, command: str, document: dict) -> tuple[int, Path]:
        config = work / f"{name}.yaml"
        config.write_text(yaml.safe_dump(document), encoding="utf-8")
        out = work / name
        return hexaflow(src, [command, "--config", str(config), "--out", str(out)]), out

    for a in VERIFY_AMPLITUDES:
        code, out = run(f"verify-A{a}", "verify", {**VERIFY, "A": a})
        for file in ("diagnostics.csv", "snapshots.json", "verify.json"):
            yield f"verify A={a} {file}", code, file_digest(out / file)
    out = work / "psw"
    code = hexaflow(src, ["psw", "--seed", "0", "--out", str(out)])
    yield "psw --seed 0 verify.json", code, file_digest(out / "verify.json")
    for k, amplitudes in enumerate(SWEEP_AMPLITUDES):
        code, out = run(f"sweep{k}", "sweep", {**SWEEP, "A": amplitudes})
        yield f"sweep grid {k} A={amplitudes}", code, directory_digest(out)


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2 or not all((Path(a) / "hexaflow").is_dir() for a in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    srcs = [Path(a).resolve() for a in argv]
    differs = False
    with tempfile.TemporaryDirectory(prefix="hexaflow-digests-") as work:
        sets = [digests(src, Path(work) / str(k)) for k, src in enumerate(srcs)]
        for results in zip(*sets):
            name = results[0][0]
            codes = "/".join(str(code) for _, code, _ in results)
            line = "  ".join(digest for _, _, digest in results) + f"  exit {codes}  {name}"
            if len(results) == 2:
                same = results[0] == results[1]
                differs |= not same
                line += "  same" if same else "  DIFFERS"
            print(line, flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
