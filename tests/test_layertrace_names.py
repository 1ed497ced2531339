"""The perfbench layer trace wraps src functions by name, and one missing
name fails every traced call when the trace installs.  This guards the names
from the test side: perfbench/layertrace.py is loaded by path (it imports
only the standard library) and only read."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_every_traced_name_resolves_on_heckework():
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = []
    for module_name, path, _, _ in layertrace.TARGETS:
        obj = importlib.import_module("heckework." + module_name)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append("%s.%s" % (module_name, path))
    assert layertrace.TARGETS
    assert missing == []
