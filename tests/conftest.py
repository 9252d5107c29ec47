import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from swarmids.dataset import (
    apply_normalize, encode, fit_encoding, fit_normalize, parse_kdd, to_columns,
)

from _synth import make_kdd_csv


REPO = Path(__file__).resolve().parent.parent


def _missing_toolchain():
    """What building the extension needs and this machine lacks, or None."""
    cc = (sysconfig.get_config_var("CC") or "").split()
    if not cc or shutil.which(cc[0]) is None:
        return f"C compiler {' '.join(cc)!r} not found"
    header = Path(sysconfig.get_paths()["include"]) / "Python.h"
    if not header.is_file():
        return f"{header} not found"
    return None


MISSING_TOOLCHAIN = _missing_toolchain()


@pytest.fixture(scope="session")
def build(tmp_path_factory):
    """Run ``setup.py build_ext`` into a temp dir and load the result by path.

    The build adds ``-Wall -Werror``, so a compiler warning (an unused
    function or variable) fails it. Returns ``(module or None, build
    output)``; a failed build is reported by
    ``test_kernels.py::test_compiled_backend_built``.
    """
    if MISSING_TOOLCHAIN:
        return None, MISSING_TOOLCHAIN
    tmp = tmp_path_factory.mktemp("build_ext")
    env = {k: v for k, v in os.environ.items() if k != "SWARMIDS_SKIP_EXT"}
    env["CFLAGS"] = f"{env.get('CFLAGS', '')} -Wall -Werror".strip()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    log = proc.stdout + proc.stderr
    built = sorted((tmp / "lib" / "swarmids" / "_kernels").glob("_hinge_sgd.*"))
    if proc.returncode != 0 or not built:
        return None, log
    spec = importlib.util.spec_from_file_location("swarmids._kernels._hinge_sgd", built[0])
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        return None, f"{log}\n{exc!r}"
    return module, log


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
    columns = to_columns(synth_records)
    raw = encode(columns, fit_encoding(columns, fitted_on="test-synth"))
    return apply_normalize(raw, fit_normalize(raw))


@pytest.fixture()
def synth_file(tmp_path, synth_csv) -> Path:
    path = tmp_path / "synth_kdd.csv"
    path.write_text(synth_csv, encoding="utf-8")
    return path
