"""Print a digest of plap's trajectories and CLI artifacts, one line per run.

Two checkouts that print the same digest integrate every run below to the
same bits.  Compare a change with its parent checked out beside it:

    diff <(python tools/trajectory_digest.py ../parent/src) <(python tools/trajectory_digest.py)

Two fresh processes on one checkout must print the same digest too; CI
checks that under ``python -W error``.

``SRC_DIR`` (default: this checkout's ``src``) is where ``plap`` is imported
from; the instance generator ``gen`` always comes from this checkout's
``bench``, so both sides run the same instances.  Neither is written to.
Standard library and numpy only.

The ``integrate_radial`` runs, 270 in all, each at r_max 1e4 unless said
otherwise:

- the four ``configs/*.json`` at their own r_max, at 8, 64 and 256 points
  per decade;
- the ten-instance pools of seeds 1 to 3, ``tight-coarse`` (tol 1e-12 to
  1e-11, the whole region) and ``fine-grid`` (tol 1e-9 to 1e-6, passing
  classes only), at 8, 64 and 256 points per decade;
- the admissible ``sweep`` points of seeds 1 to 3, at 8 and 64.

A run prints its label, the SHA-256 of its r, u, v, P and S bytes and its
sorted ``meta``; a run that raises ``StepSizeUnderflow`` or ``Overflow``
prints the exception's class, message, radius, state and h instead.  Any
other exception stops the digest.

Then the 21 runs of ``CLI_RUNS`` go through ``plap.cli.main`` in-process,
in a scratch directory: ``profile``, ``integrate``, ``verify --series-out``
and ``sweep`` on each config at its own settings, and five runs with flags
(``verify --rmax 1e4`` and ``verify --rmax 1e4 --a 1e-12`` on
``coupled_p3``, ``integrate --rmax 1e4`` on ``coupled_p3``, ``integrate
--rmax 1 --a 2 --b 2`` on ``poisson`` and ``verify --rmax 1e-5`` on
``steep``).  Each prints its exit code, its stderr and the SHA-256 of each
output file.  A new CLI invocation worth guarding goes into that list.
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
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
SEEDS = (1, 2, 3)
R_MAX = 1e4

OUTS = {
    "profile": ("--out", "profile.json"),
    "integrate": ("--out", "traj.csv"),
    "verify": ("--out", "report.json", "--series-out", "series.csv"),
    "sweep": ("--out", "sweep.csv"),
}
# (command, config stem, flags); every run writes the files OUTS names
CLI_RUNS = [(command, path.stem, ()) for path in CONFIGS for command in OUTS] + [
    ("verify", "coupled_p3", ("--rmax", "1e4")),
    ("verify", "coupled_p3", ("--rmax", "1e4", "--a", "1e-12")),
    ("integrate", "coupled_p3", ("--rmax", "1e4")),
    ("integrate", "poisson", ("--rmax", "1", "--a", "2", "--b", "2")),
    ("verify", "steep", ("--rmax", "1e-5")),
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_lines(plap, gen) -> list[str]:
    """One line per run: its trajectory's digest and meta, or its typed failure."""
    runs = []  # (label, config, r_max, grid densities); a config without a, b or tol runs at 1, 1, 1e-9
    for path in CONFIGS:
        runs.append((f"config {path.stem}", json.loads(path.read_text(encoding="utf-8")), None, (8, 64, 256)))
    for seed in SEEDS:
        pools = {
            "tight-coarse": gen.instance_pool(seed, 10, (1e-12, 1e-11), True),
            "fine-grid": gen.instance_pool(seed, 10, (1e-9, 1e-6), False),
        }
        for name, pool in pools.items():
            for index, cfg in enumerate(pool):
                runs.append((f"pool {name} seed={seed} #{index}", cfg, R_MAX, (8, 64, 256)))
    for seed in SEEDS:
        for index, cfg in enumerate(gen.sweep_points(gen.sweep_config(seed))):
            if gen.admissible(cfg):
                runs.append((f"sweep seed={seed} #{index}", cfg, R_MAX, (8, 64)))
    lines = []
    for label, cfg, r_max, densities in runs:
        system = plap.system_from_config(cfg)
        a, b, tol = cfg.get("a", 1.0), cfg.get("b", 1.0), cfg.get("tol", 1e-9)
        for ppd in densities:
            try:
                traj = plap.integrate_radial(system, a, b, tol, r_max=r_max, points_per_decade=ppd)
            except (plap.StepSizeUnderflow, plap.Overflow) as exc:
                lines.append(
                    f"{label} ppd={ppd} FAIL {type(exc).__name__}: {exc} "
                    f"| radius={exc.radius!r} state={exc.state!r} h={exc.h!r}"
                )
                continue
            data = b"".join(column.tobytes() for column in (traj.r, traj.u, traj.v, traj.P, traj.S))
            lines.append(f"{label} ppd={ppd} {sha(data)} {sorted(traj.meta.items())!r}")
    return lines


def cli_lines(cli_main) -> list[str]:
    """Each run of ``CLI_RUNS``, in a scratch directory that is removed after."""
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for command, stem, flags in CLI_RUNS:
                outs = OUTS[command]
                config = str(ROOT / "configs" / f"{stem}.json")
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    code = cli_main([command, "--config", config, *flags, *outs])
                files = [Path(name) for name in outs if not name.startswith("--")]
                hashes = " ".join(
                    f"{file}={sha(file.read_bytes()) if file.exists() else 'missing'}" for file in files
                )
                label = " ".join(("cli", command, stem, *flags))
                lines.append(f"{label} exit={code} {hashes} stderr={stderr.getvalue()!r}")
                for file in files:
                    file.unlink(missing_ok=True)
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
