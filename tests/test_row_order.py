"""numpy's row-order stream, pinned against a reference port.

Every canonical artifact depends on ``Generator.permutation``: each plane
draws one row order per epoch from its own ``default_rng``. numpy promises
no stream stability across releases (NEP 19), so a numpy that changed its
shuffle would otherwise show up only as unexplained digest mismatches in
``test_artifacts.py``. These tests compare the port in ``_pcg64.py`` with
numpy over consecutive draws from one generator, which carry the buffered
32-bit half from one draw into the next.
"""

import numpy as np
import pytest

from swarmids.seeds import derive_seed

from _pcg64 import Pcg64

MOVED = (
    "numpy {} draws row orders that differ from the reference PCG64 port "
    "(masked-rejection random_interval, Fisher-Yates from the top): the "
    "shuffles behind every canonical artifact changed, so the artifacts will move"
)


def _draws_match(seed, sizes) -> bool:
    rng = np.random.default_rng(seed)
    port = Pcg64(rng.bit_generator.state)
    return all(rng.permutation(n).tolist() == port.permutation(n) for n in sizes)


# An epoch-like run of five draws, with the sizes a fit split reaches.
@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, derive_seed(1, "ova", 3)])
@pytest.mark.parametrize("n", [1000, 16000, 20000])
def test_consecutive_large_draws_match(seed, n):
    assert _draws_match(seed, [n] * 5), MOVED.format(np.__version__)


def test_many_seeds_and_sizes_match():
    sizes = [1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 100, 255, 256, 257, 999]
    mismatched = [seed for seed in range(60) if not _draws_match(seed, sizes)]
    assert not mismatched, MOVED.format(np.__version__) + f" (seeds {mismatched})"


def test_port_stops_at_the_64_bit_branch():
    port = Pcg64(np.random.default_rng(0).bit_generator.state)
    assert port.interval(0xFFFFFFFF) <= 0xFFFFFFFF
    with pytest.raises(ValueError, match="32-bit branch"):
        port.interval(2**32)
