"""Peak memory of ``prepare``: each ingestion representation is dropped
once it is consumed, a subsample keeps only the drawn records, fitting and
encoding split only one chunk of the records at a time, and the encoded
matrix is normalized in place.

The stage runs in a child process, which reports how far its peak resident
set grew past what it had once the package was imported. On this 40,000-row
corpus the growth was 160 MB at ``--subsample 0`` and 35 MB at
``--subsample 6000`` while every parsed record, the split columns and both
matrices lived until the last artifact was written; 101, 14.7 and 19.1 MB
at ``--subsample 0``, ``1000`` and ``6000`` with them dropped but every
record parsed and every field its own string; 48.3, 6.5 and 14.2 MB with a
labels-only first read and the columns' repeated strings shared; and
29.3–29.4, 6.0 and 11.4–12.2 MB with no string columns and the matrix
normalized in place; and 27.4, 7.2 and 10.8 MB with both reads taking the
data in 256 Ki-character blocks and the numbers read by ``np.loadtxt``
(Python 3.11, numpy 2.4, Linux x86-64). Each part of
the change that dropped the string columns fails a bound alone: encoding
from whole split columns grew 98.5 MB at ``--subsample 0`` and 18.2 MB at
``--subsample 6000``, and a normalize into a second matrix 41.9 MB at
``--subsample 0``.

The bounds leave about 7.6 MB (``0``), 2.8 MB (``1000``) and 4.2 MB
(``6000``) over the growth measured last. ``1000`` guards the labels-only
first read, which a single read of every record breaks (14.8 MB).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import swarmids

from _synth import make_kdd_csv

# The child reads its peak from VmHWM, the high-water mark of the memory it
# was exec'd into. Its ru_maxrss would not do: Linux carries the peak of the
# process that forked it (this test runner) across the exec.
CHILD = """
import sys
from swarmids.cli import main

def peak_mb():
    with open("/proc/self/status") as status:
        kib = next(line for line in status if line.startswith("VmHWM:")).split()[1]
    return int(kib) / 1024

base = peak_mb()
code = main(["prepare", "--data", sys.argv[1], "--out", sys.argv[2],
             "--subsample", sys.argv[3], "--seed", "1"])
print(code, peak_mb() - base)
"""

ROWS = 40_000


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    # Ten copies of 4,000 generated rows: the size matters here, not variety.
    path = tmp_path_factory.mktemp("memory") / "corpus.csv"
    path.write_text(make_kdd_csv(ROWS // 10, seed=3) * 10, encoding="utf-8")
    return path


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("subsample, bound_mb", [(0, 35.0), (1000, 10.0), (6000, 15.0)])
def test_prepare_peak_memory_growth(corpus, tmp_path, subsample, bound_mb):
    src = str(Path(swarmids.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(corpus), str(tmp_path / "out"), str(subsample)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert done.returncode == 0, done.stderr
    code, growth = done.stdout.split()[-2:]
    assert code == "0"
    assert float(growth) < bound_mb, (
        f"prepare --subsample {subsample} on {ROWS} rows grew the peak RSS by "
        f"{float(growth):.1f} MB, over the {bound_mb} MB bound"
    )
