"""Chart tick placement: pinned tick lists for the ranges the pipeline
draws, and termination on ranges only a few ulps wide."""

import ast
import resource
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from swarmids import svg

SVG = Path(svg.__file__)

# (lo, hi) -> ticks, as the ticks were placed before the index-based loop.
PINNED = {
    "bar_rate": (0.0, 1.08, [0.0, 0.25, 0.5, 0.75, 1.0]),
    "bar_small_rate": (0.0, 0.013284, [0.0, 0.005, 0.01]),
    "iterations": (1, 5, [1.0, 2.0, 3.0, 4.0, 5.0]),
    "one_iteration": (0.5, 1.5, [0.6, 0.8, 1.0, 1.2, 1.4]),
    "history": (1.6, 1.7414634146341463, [1.6, 1.65, 1.7]),
    "flat_history": (2.07, 2.53, [2.1, 2.2, 2.3, 2.4, 2.5]),
}


@pytest.mark.parametrize("lo, hi, ticks", PINNED.values(), ids=PINNED.keys())
def test_ticks_pinned(lo, hi, ticks):
    assert svg._nice_ticks(lo, hi) == ticks


def test_adjacent_floats_keep_distinct_grid_lines():
    # A best-fitness history 1 ulp wide still gets two or more grid lines
    # inside the plot area, each with its own label.
    chart = svg.line_chart([1, 2], [1.3073170731707315, 1.3073170731707318],
                           "t", "iteration", "fitness")
    root = ET.fromstring(chart)
    ns = "{http://www.w3.org/2000/svg}"
    rows = [float(line.get("y1")) for line in root.iter(f"{ns}line")]
    labels = [text.text for text in root.iter(f"{ns}text")
              if text.get("x") == str(svg.MARGIN_LEFT - 8)]
    assert len(set(rows)) >= 2
    assert all(svg.MARGIN_TOP <= y <= svg.HEIGHT - svg.MARGIN_BOTTOM for y in rows)
    assert len(labels) == len(rows) == len(set(labels))


def _capped():
    # The child may not grow past 1 GiB, so an unbounded tick list fails fast.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_adjacent_floats_terminate():
    # Two fitness values 1 ulp apart: the step is below half an ulp of lo,
    # so stepping by addition would never leave lo. Run in a capped child.
    code = textwrap.dedent(f"""
        import importlib.util, sys
        spec = importlib.util.spec_from_file_location("svg", {str(SVG)!r})
        svg = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(svg)
        ys = [1.3073170731707315, 1.3073170731707318]
        sys.stdout.write(repr(svg._nice_ticks(*svg._y_scale(ys))) + "\\n")
        sys.stdout.write(svg.line_chart([1, 2], ys, "t", "iteration", "fitness"))
    """)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, preexec_fn=_capped,
    )
    assert done.returncode == 0, done.stderr
    ticks_line, chart = done.stdout.split("\n", 1)
    ticks = ast.literal_eval(ticks_line)
    assert 1 <= len(ticks) <= 10
    assert all(abs(t - 1.3073170731707315) < 1e-11 for t in ticks)
    ET.fromstring(chart)
