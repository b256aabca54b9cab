"""The number of settable values in `src/`, pinned.

Every default a caller can override is an option that tests and benchmarks
must cover, so the count is held here under one rule instead of being
recounted by hand for each change."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SETTABLE_VALUES = 105


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(root: Path = SRC) -> int:
    """Every defaulted parameter, positional or keyword-only, of every
    function and lambda under `root`, plus every field with a default
    (`field(...)` included) in a `@dataclass`."""
    count = 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(
                    isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    for stmt in node.body
                )
    return count


def test_settable_value_count_is_pinned():
    """A change that adds or removes an option updates SETTABLE_VALUES and
    gives the reason in CHANGES.md."""
    assert settable_values() == SETTABLE_VALUES
