"""The benchmark's span targets still name what the pipeline calls.

``perfbench/spans.py`` patches each ``(module, attribute)`` of ``TARGETS``
on the name its caller looks up; a refactor that renames or moves one of
them breaks ``perfbench/run.py --trace 1``. The file is loaded by path, so
the benchmark directory needs no package marker.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_is_restored():
    spans = _load_spans()
    missing = [(path, attr) for path, attr, _, _ in spans.TARGETS
               if not callable(spans._owner(path).__dict__.get(attr))]
    assert not missing, f"span targets that no longer resolve: {missing}"
    targets = [(spans._owner(path), attr) for path, attr, _, _ in spans.TARGETS]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    with spans.installed(spans.Recorder()):
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(targets, originals))
