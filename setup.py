"""Build script: compiles the hot SGD kernel unless SWARMIDS_SKIP_EXT=1.

The kernel is a plain C library (no Python headers; ``swarmids._kernels``
loads it with ctypes) built with the system C compiler as
``_hinge_sgd`` + the interpreter's extension suffix; a failed compile fails
the build. ``python setup.py build_ext --inplace`` builds it into a source
checkout. The package works without it (a pure-Python twin is selected at
import time), it is just much slower on large training sets.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("SWARMIDS_SKIP_EXT") != "1":
    # -ffp-contract=off keeps the compiled kernel bit-identical to the
    # pure-Python fallback (no FMA fusion of a*b+c).
    ext_modules = [
        Extension(
            "swarmids._kernels._hinge_sgd",
            ["src/swarmids/_kernels/_hinge_sgd.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
        )
    ]

setup(ext_modules=ext_modules)
