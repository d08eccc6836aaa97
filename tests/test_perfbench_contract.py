"""The benchmark's hold on the program: every layer boundary that
`perfbench/run.py` wraps, and every name its workloads import, exists.

A renamed or moved name (`Owner.receive`, `keytree.retrieve_naive`, ...)
would otherwise surface only when the benchmark runs; here it fails the
test suite. Nothing under perfbench/ is run beyond its imports and its
`instrument`, which `restore` undoes."""

import importlib
import sys
from pathlib import Path

from pulldisc import inventory, keytree

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_benchmark_finds_every_name_it_wraps_or_imports(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # only read perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    assert Path(run.__file__).resolve().parent == PERFBENCH
    importlib.import_module("workloads")
    tracer = importlib.import_module("tracer").Tracer()
    try:
        run.instrument(tracer)
        assert {"inventory.receive", "keytree.retrieve_naive"} <= set(tracer.names)
    finally:
        tracer.restore()
    assert not hasattr(inventory.Owner.receive, "__wrapped__")
    assert not hasattr(keytree.retrieve_naive, "__wrapped__")
