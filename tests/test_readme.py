import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_module_table_lists_every_exported_name():
    # each name agtaut/__init__.py imports from a module must appear, in
    # backticks, in that module's row of the README's library overview
    rows = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        match = re.match(r"\| `agtaut\.(\w+)`\s*\|(.*)\|$", line)
        if match:
            rows[match.group(1)] = set(re.findall(r"`(\w+)", match.group(2)))
    tree = ast.parse((ROOT / "src" / "agtaut" / "__init__.py").read_text())
    missing = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name not in rows.get(node.module, ())
    ]
    assert rows and not missing, missing
