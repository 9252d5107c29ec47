import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from swarmids._kernels import _LIBRARY, load_compiled
from swarmids.dataset import apply_normalize, encode, fit_encoding, fit_normalize, parse_kdd

from _synth import make_kdd_csv


REPO = Path(__file__).resolve().parent.parent


def _missing_toolchain():
    """The C compiler, if building the kernel library needs it and this
    machine lacks it, or None."""
    cc = (sysconfig.get_config_var("CC") or "").split()
    if not cc or shutil.which(cc[0]) is None:
        return f"C compiler {' '.join(cc)!r} not found"
    return None


MISSING_TOOLCHAIN = _missing_toolchain()


@pytest.fixture(scope="session")
def build(tmp_path_factory):
    """Run ``setup.py build_ext`` into a temp dir and bind the library it
    built with the package's own ``_kernels.load_compiled``.

    The build adds ``-Wall -Werror``, so a compiler warning (an unused
    function or variable) fails it. Returns ``(hinge_train or None, build
    output, library path or None)``; a failed build is reported by
    ``test_kernels.py::test_compiled_backend_built``.
    """
    if MISSING_TOOLCHAIN:
        return None, MISSING_TOOLCHAIN, None
    tmp = tmp_path_factory.mktemp("build_ext")
    env = {k: v for k, v in os.environ.items() if k != "SWARMIDS_SKIP_EXT"}
    env["CFLAGS"] = f"{env.get('CFLAGS', '')} -Wall -Werror".strip()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    log = proc.stdout + proc.stderr
    path = tmp / "lib" / "swarmids" / "_kernels" / _LIBRARY.name  # where the package looks
    if proc.returncode != 0 or not path.is_file():
        return None, log, None
    try:
        return load_compiled(path), log, path
    except ImportError as exc:
        return None, f"{log}\n{exc!r}", None


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
