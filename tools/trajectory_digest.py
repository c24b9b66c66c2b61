"""Print a digest of plap's trajectories and CLI artifacts, one line per run.

Two checkouts that print the same digest integrate every run below to the
same bits.  Compare a change with its parent checked out beside it:

    diff <(python tools/trajectory_digest.py ../parent/src) <(python tools/trajectory_digest.py)

``SRC_DIR`` (default: this checkout's ``src``) is where ``plap`` is imported
from; the instance generator ``gen`` always comes from this checkout's
``bench``, so both sides run the same instances.  Neither is written to.
Standard library and numpy only.

The runs, 270 in all, each at r_max 1e4 unless said otherwise:

- the four ``configs/*.json`` at their own r_max, at 8, 64 and 256 points
  per decade;
- the ten-instance pools of seeds 1 to 3, ``tight-coarse`` (tol 1e-12 to
  1e-11, the whole region) and ``fine-grid`` (tol 1e-9 to 1e-6, passing
  classes only), at 8, 64 and 256 points per decade;
- the admissible ``sweep`` points of seeds 1 to 3, at 8 and 64.

A run prints its label, the SHA-256 of its r, u, v, P and S bytes and its
sorted ``meta``; a failed run prints the exception's class, message,
radius, state and h instead.  Then ``plap profile``, ``integrate``,
``verify --series-out`` and ``sweep`` run in-process on each config, and
each prints its exit code, its stderr and the SHA-256 of each output file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
R_MAX = 1e4


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(label: str, run) -> str:
    """One line for ``run()``: its trajectory's digest and meta, or its failure."""
    try:
        traj = run()
    except Exception as exc:
        radius, state, h = (getattr(exc, name, None) for name in ("radius", "state", "h"))
        return f"{label} FAIL {type(exc).__name__}: {exc} | radius={radius!r} state={state!r} h={h!r}"
    data = b"".join(column.tobytes() for column in (traj.r, traj.u, traj.v, traj.P, traj.S))
    return f"{label} {sha(data)} {sorted(traj.meta.items())!r}"


def run_lines(plap, gen) -> list[str]:
    lines = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        system = plap.system_from_config(json.loads(path.read_text(encoding="utf-8")))
        for ppd in (8, 64, 256):
            run = lambda: plap.integrate_radial(system, 1.0, 1.0, 1e-9, points_per_decade=ppd)
            lines.append(digest(f"config {path.stem} ppd={ppd}", run))
    for seed in SEEDS:
        pools = {
            "tight-coarse": gen.instance_pool(seed, 10, (1e-12, 1e-11), True),
            "fine-grid": gen.instance_pool(seed, 10, (1e-9, 1e-6), False),
        }
        for name, pool in pools.items():
            for index, cfg in enumerate(pool):
                system = plap.system_from_config(cfg)
                for ppd in (8, 64, 256):
                    run = lambda: plap.integrate_radial(
                        system, cfg["a"], cfg["b"], cfg["tol"], r_max=R_MAX, points_per_decade=ppd
                    )
                    lines.append(digest(f"pool {name} seed={seed} #{index} ppd={ppd}", run))
    for seed in SEEDS:
        for index, cfg in enumerate(gen.sweep_points(gen.sweep_config(seed))):
            if not gen.admissible(cfg):
                continue
            system = plap.system_from_config(cfg)
            for ppd in (8, 64):
                run = lambda: plap.integrate_radial(
                    system, cfg["a"], cfg["b"], cfg["tol"], r_max=R_MAX, points_per_decade=ppd
                )
                lines.append(digest(f"sweep seed={seed} #{index} ppd={ppd}", run))
    return lines


def cli_lines(cli_main) -> list[str]:
    """Each CLI command on each config, run in a scratch directory that is removed after."""
    commands = {
        "profile": ["--out", "profile.json"],
        "integrate": ["--out", "traj.csv"],
        "verify": ["--out", "report.json", "--series-out", "series.csv"],
        "sweep": ["--out", "sweep.csv"],
    }
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for path in sorted((ROOT / "configs").glob("*.json")):
                for command, outs in commands.items():
                    stderr = io.StringIO()
                    with contextlib.redirect_stderr(stderr):
                        code = cli_main([command, "--config", str(path), *outs])
                    files = [name for name in outs if not name.startswith("--")]
                    hashes = " ".join(
                        f"{name}={sha(Path(name).read_bytes()) if Path(name).exists() else 'missing'}"
                        for name in files
                    )
                    lines.append(f"cli {command} {path.stem} exit={code} {hashes} stderr={stderr.getvalue()!r}")
                    for name in files:
                        Path(name).unlink(missing_ok=True)
        finally:
            os.chdir(cwd)
    return lines


def main(argv: list[str]) -> int:
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    if not (src / "plap" / "__init__.py").is_file():
        print(f"no plap package in {src}", file=sys.stderr)
        return 1
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import gen
    import plap
    from plap.cli import main as cli_main

    if Path(plap.__file__).resolve().parent != src / "plap":
        print(f"imported plap from {plap.__file__}, not from {src}", file=sys.stderr)
        return 1
    for line in run_lines(plap, gen) + cli_lines(cli_main):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
