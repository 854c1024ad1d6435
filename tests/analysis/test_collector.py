"""The analyzer runs with the cyclic GC paused and leaves no cycles.

``analyze_sources`` pauses the collector for its body, so it must hand
the caller's collector state back unchanged, and everything it built
must be freed by reference counting alone (docs/analysis.md).
"""

import gc

import pytest

from repro.analysis import SourceFile, analyze_sources
from repro.errors import ParameterError

NESTED = SourceFile.from_text(
    "def outer(total_cycles):\n"
    "    def walk(n_cycles):\n"
    "        return walk(n_cycles - 1) if n_cycles else total_cycles\n"
    "    return walk(total_cycles) + 1.0\n",
    relpath="src/repro/nested.py",
)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("rules", [None, ["NOPE"]], ids=["ok", "raises"])
def test_collector_state_is_restored(enabled, rules):
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if rules is None:
            analyze_sources([NESTED], rules=rules)
        else:
            with pytest.raises(ParameterError):
                analyze_sources([NESTED], rules=rules)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()


def test_deep_analysis_leaves_no_cyclic_garbage():
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        analyze_sources([NESTED], deep=True)
        gc.collect()
        leaked = {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert not leaked & {
        "ProjectModel", "ModuleInfo", "FunctionInfo", "UnitFlowAnalyzer"
    }
