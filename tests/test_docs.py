"""README tables that restate the engine's and the CLI's tables must list
exactly their rows, and README's Python examples must run."""

import re
from pathlib import Path

from geoprofile.cli import COMMANDS
from geoprofile.engine import FAMILIES, METHODS, Family, MethodId

README = Path(__file__).resolve().parent.parent / "README.md"


def _table(header: str) -> list[list[str]]:
    """Cells of the README table whose header row is ``header``."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2  # skip the header and the |---| row
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _code(cell: str) -> list[str]:
    """The `backticked` tokens of a cell, in order."""
    return re.findall(r"`([^`]*)`", cell)


def test_nodes_table_matches_families():
    documented = {}
    for key, families, default in _table("| key | read by family | default |"):
        (key,) = _code(key)
        names = families.split("(")[0].split(",")
        documented[key] = ({Family(n.strip()) for n in names}, int(default))
    expected = {}
    for family, blocks in FAMILIES.items():
        for block in blocks:
            for param in block.params:
                readers, _ = expected.setdefault(f"nodes_{param.name}", (set(), param.nodes))
                readers.add(family)
                assert expected[f"nodes_{param.name}"][1] == param.nodes
    assert documented == expected


def test_methods_table_matches_methods():
    documented = {}
    header = "| method | resident buffer family | buffer prior kinds | non-resident weight |"
    for method, family, kinds, weight in _table(header):
        (method,) = _code(method)
        documented[MethodId(method)] = (
            Family(_code(family)[0]),
            dict(token.split("=") for token in _code(kinds)),
            None if _code(weight) == ["nonres_weight"] else float(weight),
        )
    expected = {
        method: (
            row.buffer.family,
            {param: kind.value for param, kind in (row.buffer.prior_kinds or {}).items()},
            row.nonres_weight,
        )
        for method, row in METHODS.items()
    }
    assert documented == expected


def test_commands_table_matches_cli():
    rows = _table("| command | flags |")
    documented = {_code(command)[0]: tuple(_code(flags)) for command, flags in rows}
    assert documented == {command: flags for command, (_, _, flags) in COMMANDS.items()}


def test_python_examples_run(tmp_path, monkeypatch):
    # the blocks run in order in one namespace, as a reader would paste them
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert (tmp_path / "synthetic.csv").is_file()
    assert namespace["own_surface"].mass.shape == (70, 100)
