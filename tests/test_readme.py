"""README drift guard: its CLI examples parse, its Layout table names every module in short rows,
and every code name it gives resolves."""

import importlib
import inspect
import re
import shlex
from functools import reduce
from pathlib import Path

import pytest

import pulldisc
from pulldisc import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _section(title: str) -> str:
    """The README text under `## title`, up to the next heading of that level."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _cli_examples() -> list[list[str]]:
    block = re.search(r"```sh\n(.*?)```", _section("CLI"), re.S).group(1)
    lines = [shlex.split(line, comments=True)[1:]
             for line in block.splitlines() if line.startswith("pulldisc ")]
    assert lines
    return lines


def test_cli_examples_parse():
    for argv in _cli_examples():
        try:  # parsed only: no command runs
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README CLI line does not parse: pulldisc {shlex.join(argv)}")


def test_model_examples_run(capsys):
    # These write nothing, so they run: a flag the command does not read fails here.
    runs = [argv for argv in _cli_examples()
            if argv[0] == "analytic" or argv[:2] == ["im", "solicit"]]
    assert runs
    for argv in runs:
        assert cli.main(argv) == 0, capsys.readouterr().err


def test_layout_names_every_module():
    rows = [line.split("|")[1] for line in _section("Layout").splitlines() if line.startswith("|")]
    listed = {name for row in rows for name in re.findall(r"`pulldisc\.(\w+)`", row)}
    modules = {p.stem for p in (ROOT / "src" / "pulldisc").glob("*.py")} - {"__init__"}
    assert listed == modules, sorted(listed ^ modules)


def test_layout_rows_stay_short():
    # A row names a module's concern; its behaviour rules belong in the prose sections.
    rows = [line.split("|")[1:3] for line in _section("Layout").splitlines() if line.startswith("|")]
    long = {module.strip(): len(concern.split()) for module, concern in rows if len(concern.split()) > 40}
    assert not long, long


def _lookup(obj, attr: str):
    """`obj.attr`, or the field for a dataclass field only instances carry;
    KeyError if neither exists."""
    return getattr(obj, attr) if hasattr(obj, attr) else getattr(obj, "__dataclass_fields__", {})[attr]


def test_dotted_names_resolve():
    # A name headed by a pulldisc module or class must name real code; any
    # other head is a config key (`blend.announce_interval`) or a file name.
    modules = {p.stem: importlib.import_module(f"pulldisc.{p.stem}")
               for p in (ROOT / "src" / "pulldisc").glob("*.py") if p.stem != "__init__"}
    classes = {name: obj for module in modules.values() for name, obj in vars(module).items()
               if inspect.isclass(obj) and obj.__module__ == module.__name__}
    heads = {"pulldisc": pulldisc, **modules, **classes}
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README))
    checked, missing = 0, []
    for name in sorted(names):
        head, *path = name.split(".")
        if head not in heads or re.search(r"\.(py|json|csv|md)$", name):
            continue
        checked += 1
        try:
            reduce(_lookup, path, heads[head])
        except KeyError:
            missing.append(name)
    assert checked and not missing, missing
