"""Package structure, read from the source with ``ast``: the internal
import graph has no cycle, no module reads the environment, the class
list lives only in ``dataset.CLASS_NAMES``, and the classifier calls no
BLAS. Also the kernel interface: one SGD function per backend, a C
kernel that is plain C, and the names the benchmark patches or calls;
and what importing the CLI loads."""

import ast
import ctypes
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import swarmids
from swarmids import classifier
from swarmids._kernels import _hinge_sgd_py, available_backends

PACKAGE = Path(swarmids.__file__).resolve().parent


def _modules() -> dict[str, Path]:
    """Dotted name -> file, for every Python module of the package."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = ("swarmids",) + path.relative_to(PACKAGE).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _imports(name: str, path: Path, modules: dict[str, Path]) -> set[str]:
    """Package modules that ``name`` imports, at any depth of its body."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    targets = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                base = f"{anchor}.{base}" if base else anchor
            targets.add(base)
            # ``from . import x`` imports the submodule x when there is one.
            targets.update(f"{base}.{alias.name}" for alias in node.names)
    return {target for target in targets if target in modules and target != name}


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path of module names, or None."""
    state: dict[str, str] = {}
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = "open"
        stack.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == "open":
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node)
            if found:
                return found
    return None


def test_import_graph_is_acyclic():
    modules = _modules()
    graph = {name: _imports(name, path, modules) for name, path in modules.items()}
    assert graph["swarmids.evaluation"] >= {"swarmids.confusion", "swarmids.selection"}
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))


def test_cycle_finder_sees_a_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}
    assert _cycle(graph) == ["a", "b", "c", "a"]


def test_no_module_reads_the_environment():
    reads = []
    for name, path in _modules().items():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                reads.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ("environ", "getenv") for alias in node.names
            ):
                reads.append(f"{name}:{node.lineno}")
    assert not reads, f"environment reads: {reads}"


def _fields_and_parameters(tree: ast.AST, name: str) -> list[int]:
    """Lines where ``name`` is a class field or a function parameter."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.arg == name:
            lines.append(node.lineno)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                targets = getattr(item, "targets", [getattr(item, "target", None)])
                if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                    lines.append(item.lineno)
    return lines


def test_field_and_parameter_finder():
    tree = ast.parse(
        "class A:\n    class_names: tuple\nclass B:\n    class_names = ()\n"
        "def f(x, *, class_names=None): pass\nclass_names = ()\n"
    )
    assert _fields_and_parameters(tree, "class_names") == [2, 4, 5]


def test_class_list_is_not_carried_around():
    # Datasets, models and reports use dataset.CLASS_NAMES; none keeps a copy.
    found = [
        f"{name}:{line}"
        for name, path in _modules().items()
        for line in _fields_and_parameters(ast.parse(path.read_text(encoding="utf-8")),
                                           "class_names")
    ]
    assert not found, f"class_names as a field or parameter: {found}"


BLAS_CALLS = ("dot", "vdot", "inner", "matmul", "einsum", "tensordot")


def _blas_uses(tree: ast.AST) -> list[int]:
    """Lines with a ``@`` or a call of a function named in ``BLAS_CALLS``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) in BLAS_CALLS:
                lines.append(node.lineno)
    return sorted(lines)


def test_blas_finder():
    tree = ast.parse(
        "a = x @ w\nb = np.dot(x, w)\nc = x.dot(w)\nd = np.einsum('ij,j', x, w)\n"
        "e = x * w\nf = np.add.accumulate(x)\nx @= w\ng = inner(x, w)\n"
    )
    assert _blas_uses(tree) == [1, 2, 3, 4, 7, 8]


def test_classifier_calls_no_blas():
    # OpenBLAS picks its kernel, and so its rounding, for the CPU at run
    # time; margins that decide predictions are summed in feature order.
    path = _modules()["swarmids.classifier"]
    found = _blas_uses(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"BLAS in classifier.py at lines {found}"


def _public_callables(module) -> list[str]:
    return sorted(name for name, value in vars(module).items()
                  if callable(value) and not name.startswith("_"))


KERNEL_C = PACKAGE / "_kernels" / "_hinge_sgd.c"


def _c_functions() -> list[tuple[str, str]]:
    """(return-type line, name) of each function defined in the C kernel,
    whose definitions put the name at the start of a line."""
    return re.findall(r"^(.*)\n(\w+)\(", KERNEL_C.read_text(encoding="utf-8"), re.M)


def test_each_backend_exports_one_sgd_function(build):
    assert _public_callables(_hinge_sgd_py) == ["hinge_train"]
    functions = _c_functions()
    assert [name for kind, name in functions if not kind.startswith("static")] == ["hinge_train"]
    if build[2] is not None:  # the library the build fixture bound
        library = ctypes.CDLL(str(build[2]))
        assert [name for _, name in functions if hasattr(library, name)] == ["hinge_train"]


def test_c_kernel_is_plain_c():
    # The library needs no Python headers: ctypes binds it, and the
    # arguments are checked in Python.
    includes = re.findall(r"^#include\s*(\S+)", KERNEL_C.read_text(encoding="utf-8"), re.M)
    assert includes == ["<stddef.h>"], f"_hinge_sgd.c includes {includes}"


def test_benchmark_names_still_resolve():
    # perfbench/spans.py patches classifier.hinge_epoch and hinge_objective,
    # and perfbench/kernels.py runs available_backends()'s callables as
    # epoch(x, y, order, w, b, lam, t0, t) -> (b, t).
    assert callable(classifier.hinge_epoch) and callable(classifier.hinge_objective)
    for epoch in available_backends().values():
        w = np.zeros(2)
        b, t = epoch(np.eye(2), np.array([1.0, -1.0]), np.arange(2), w, 0.0, 0.5, 2.0, 0)
        assert isinstance(b, float) and t == 2 and w.any()


# Standard-library network and mail modules: about 3 MB and 50 ms of import
# that no stage uses (``xml.sax.saxutils`` pulls them all in).
NETWORK_MODULES = ("urllib.request", "http.client", "email", "ssl", "socket")


def test_cli_import_loads_no_network_modules():
    src = str(PACKAGE.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, swarmids.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "swarmids.cli" in loaded
    assert not loaded & set(NETWORK_MODULES), sorted(loaded & set(NETWORK_MODULES))
