"""The benchmark's tracer still installs against the package.

`perfbench/tracer.py` wraps package names where callers look them up (the
gates, `mixture_prepare`, `thermal_ms_dense` and `partial_trace` in
`circuits`, among others) and fails on a missing one, so a name that a module
stops calling must stay bound there.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    from mesoparity import circuits

    before = circuits.collective_flip
    tracer = Tracer("t")
    try:
        tracer.install()  # an AttributeError here names the missing binding
        assert circuits.collective_flip is not before
    finally:
        tracer.uninstall()
    assert circuits.collective_flip is before
