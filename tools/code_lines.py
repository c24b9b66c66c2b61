"""Print the code lines of each ``src/plap`` module and their total.

A code line is any line that is not blank, not a comment alone and not part
of a module, class or function docstring.  Standard library only:

    python tools/code_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to this checkout's ``src/plap``.
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "plap"
    counts = {path.name: code_lines(path) for path in sorted(package.glob("*.py"))}
    if not counts:
        print(f"no Python modules in {package}", file=sys.stderr)
        return 1
    for name, count in counts.items():
        print(f"{name:16} {count:5}")
    print(f"{'total':16} {sum(counts.values()):5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
