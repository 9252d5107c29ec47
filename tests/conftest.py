import os
import shutil
import sysconfig
from pathlib import Path

import pytest

from swarmids import _kernels as kernels
from swarmids.dataset import apply_normalize, encode, fit_encoding, fit_normalize, parse_kdd

from _synth import make_kdd_csv


# The compiler the suite builds the kernel with: the environment's CC, so
# that CI can test each compiler, else the one the package itself uses.
COMPILER = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "").split()


def _missing_toolchain():
    """Why the suite cannot build the kernel library, or None."""
    if not COMPILER or shutil.which(COMPILER[0]) is None:
        return f"C compiler {' '.join(COMPILER)!r} not found"
    return None


MISSING_TOOLCHAIN = _missing_toolchain()


@pytest.fixture(scope="session")
def build(tmp_path_factory):
    """Build the kernel library with the package's own ``_kernels.build``
    into a temp dir and bind it with ``_kernels.load_compiled``.

    The build adds ``-Wall -Werror`` to the package's flags, so a compiler
    warning (an unused function or variable) fails it. Returns
    ``(hinge_train or None, build error, library path or None)``; a failed
    build is reported by ``test_kernels.py::test_compiled_backend_built``.
    """
    if MISSING_TOOLCHAIN:
        return None, MISSING_TOOLCHAIN, None
    try:
        path = kernels.build(tmp_path_factory.mktemp("kernel"), compiler=COMPILER,
                             flags=kernels.FLAGS + ("-Wall", "-Werror"))
        return kernels.load_compiled(path), None, path
    except (kernels.BuildError, ImportError) as exc:
        return None, str(exc), None


def nsl_kdd_train_path() -> Path | None:
    """Locate a real NSL-KDD train file, if one is available."""
    candidates = [os.environ.get("NSL_KDD_TRAIN")]
    here = Path(__file__).resolve().parent
    candidates += [
        here.parent / "data" / "KDDTrain+.txt",
        here / "data" / "KDDTrain+.txt",
    ]
    for candidate in candidates:
        if candidate and Path(candidate).exists():
            return Path(candidate)
    return None


requires_nsl_kdd = pytest.mark.skipif(
    nsl_kdd_train_path() is None,
    reason="real NSL-KDD train file not available (set NSL_KDD_TRAIN or place "
    "data/KDDTrain+.txt)",
)


@pytest.fixture(scope="session")
def synth_csv() -> str:
    return make_kdd_csv(900, seed=7)


@pytest.fixture(scope="session")
def synth_records(synth_csv):
    return parse_kdd(synth_csv)


@pytest.fixture(scope="session")
def synth_dataset(synth_records):
    raw = encode(synth_records, fit_encoding(synth_records, fitted_on="test-synth"))
    return apply_normalize(raw, fit_normalize(raw))


@pytest.fixture()
def synth_file(tmp_path, synth_csv) -> Path:
    path = tmp_path / "synth_kdd.csv"
    path.write_text(synth_csv, encoding="utf-8")
    return path
