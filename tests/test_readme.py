import ast
import re
from pathlib import Path

from agtaut.verify import CHECKS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "agtaut"


def test_module_table_lists_every_public_name():
    # each public function and class a library module defines must appear,
    # in backticks, in that module's row of the README's library overview;
    # verify's check_* suites are listed by CHECKS instead
    rows = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        match = re.match(r"\| `agtaut\.(\w+)`\s*\|(.*)\|$", line)
        if match:
            rows[match.group(1)] = set(re.findall(r"`(\w+)", match.group(2)))
    library = {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__", "cli"}
    assert set(rows) == library
    suites = {check.__name__ for check in CHECKS.values()}
    missing = [
        f"{module}.{node.name}"
        for module in sorted(library)
        for node in ast.parse((SRC / f"{module}.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in rows[module] | suites
    ]
    assert not missing, missing
