"""Run the verification battery on seeded draws of the admissible region and count the outcomes.

    python tools/admissible_census.py --draws N --seed S [--src SRC_DIR]

The draws come from ``admissible_draw`` in ``tests/admissible.py``, the
sampler that ``test_admissible_region_reports_or_fails_typed`` draws from
through hypothesis, here driven by ``random.Random(S)``.  N counts the
draws it returns; a draw past its lambda and mu cap is skipped and counted.
Each draw runs ``plap.run_verification`` at 8 points per decade, as the
property does.  ``SRC_DIR`` (default: this checkout's ``src``) is where
``plap`` is imported from, so one sample can census both sides of a change.

It prints, in this order and with no timing, so two runs can be diffed:
the draws that passed; those that read ``not_passed``, then each check that
failed among them (``monotonicity``, ``ordering`` and ``convexity_bounds``,
which gate every report, and ``limits`` and ``identities``, which gate runs
that reach r = 1e4); each typed failure (``StepSizeUnderflow``,
``Overflow``); each other exception by type; and each warning by category
and message.  Then one line per draw that failed monotonicity, ordering or
a sandwich, raised an untyped exception or warned, with its index, data and
system, to rerun by hand.  Those are the cells that should read 0.  It
always exits 0: it reports, and the tests gate.
"""

import argparse
import random
import sys
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the checks that gate every report; the limit verdict also gates runs to 1e4
GATING = ("monotonicity", "ordering", "convexity_bounds")
# the grid density of test_admissible_region_reports_or_fails_typed
POINTS_PER_DECADE = 8


def census(draws: int, seed: int) -> list[str]:
    """The census lines of ``draws`` admissible draws from ``random.Random(seed)``."""
    import plap
    from admissible import MAX_EXPONENT, admissible_draw

    rng = random.Random(seed)
    counts, failed, typed, untyped, warned = Counter(), Counter(), Counter(), Counter(), Counter()
    notes = []
    skipped = 0
    while counts["draws"] < draws:
        instance = admissible_draw(rng.uniform, rng.randint, lambda: rng.random() < 0.5)
        if instance is None:
            skipped += 1
            continue
        index = counts["draws"]
        counts["draws"] += 1
        system, a, b, tol = instance
        flags, report = [], None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                report, _, _ = plap.run_verification(system, a, b, tol, points_per_decade=POINTS_PER_DECADE)
            except (plap.StepSizeUnderflow, plap.Overflow) as exc:
                typed[type(exc).__name__] += 1
            except Exception as exc:  # noqa: BLE001 - counted, never raised
                untyped[type(exc).__name__] += 1
                flags.append(f"untyped {type(exc).__name__}: {exc}")
        warned.update(f"{warning.category.__name__}: {warning.message}" for warning in caught)
        if caught:
            flags.append(f"warned {len(caught)} times")
        if report is not None and report.passed:
            counts["passed"] += 1
        elif report is not None:
            counts["not_passed"] += 1
            checks = [name for name in GATING if not getattr(report, name).passed]
            if report.limits_asserted:
                checks += [name for name, ok in (("limits", report.limits_passed), ("identities", report.identities_passed)) if not ok]
            failed.update(checks)
            if set(checks) & set(GATING):
                flags.append(f"not_passed {' '.join(checks)}")
        if flags:
            notes.append(f"draw {index} {'; '.join(flags)} | a={a!r} b={b!r} tol={tol!r} system={system!r}")

    lines = [
        f"draws {counts['draws']} seed {seed} points_per_decade {POINTS_PER_DECADE} "
        f"(skipped {skipped} with lambda or mu above {MAX_EXPONENT})",
        f"passed {counts['passed']}",
        f"not_passed {counts['not_passed']}",
        *(f"not_passed {name} {failed[name]}" for name in (*GATING, "limits", "identities")),
        *(f"typed {name} {typed[name]}" for name in ("StepSizeUnderflow", "Overflow")),
        f"untyped {sum(untyped.values())}",
        *(f"untyped {name} {count}" for name, count in sorted(untyped.items())),
        f"warnings {sum(warned.values())}",
        *(f"warning {message} {count}" for message, count in sorted(warned.items())),
    ]
    return lines + notes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, required=True, help="admissible draws to run")
    parser.add_argument("--seed", type=int, required=True, help="seed of random.Random")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="where plap is imported from")
    args = parser.parse_args(argv)
    if args.draws < 1:
        parser.error("--draws must be at least 1")
    src = args.src.resolve()
    if not (src / "plap" / "__init__.py").is_file():
        parser.error(f"no plap package in {src}")
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    for line in census(args.draws, args.seed):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
