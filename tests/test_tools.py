"""tools/diff_outputs.py: the difference figures it prints; perfbench's layer names."""

import importlib.util
import os
import subprocess
import sys

import numpy as np

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "diff_outputs.py")
_spec = importlib.util.spec_from_file_location("diff_outputs", _PATH)
diff_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_outputs)


def test_max_diff_bound_ratio():
    # |change - base| / (1e-12 + 1e-10 |base|): 1 on the bound, NaN pairs equal
    base = np.array([1.0, 0.0, 100.0, np.nan])
    change = np.array([1.0 + 0.5e-10, 1e-12, 100.0, np.nan])
    d, rel, bound = diff_outputs._max_diff(base, change)
    assert d == abs(change[0] - 1.0)
    assert rel == np.inf  # 1e-12 against a base of 0
    assert bound == 1.0
    assert diff_outputs._max_diff(base, base.copy()) == (0.0, 0.0, 0.0)


def test_csv_lines_carry_the_bound_ratio(tmp_path):
    for side, v in (("base", "2.0"), ("change", "2.0000000001")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "a.csv").write_text(f"t,x\n0.0,{v}\n")
    lines = diff_outputs._magnitudes(str(tmp_path / "base"), str(tmp_path / "change"), "a.csv")
    assert len(lines) == 1 and lines[0].split()[0] == "x"
    ratio = float(lines[0].split("bound ratio")[1])
    assert abs(ratio - 1e-10 / (1e-12 + 2e-10)) <= 1e-3 * ratio


def test_surface_counts_lines_and_public_names(tmp_path):
    pkg = tmp_path / "fde"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('from .a import x\n__all__ = ["x"]\n')
    (pkg / "a.py").write_text('__all__ = ["x", "y"]\n\nx = y = 1\n')
    (pkg / "b.py").write_text("z = 2\n")
    (pkg / "c.py").write_text(
        "import dataclasses\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Box:\n"
        "    size: int\n"
        "    kind: str = 'a'\n"
        "    LIMIT = 3\n"
        "    def grow(self, by, *, times=1):\n"
        "        return lambda k: k\n"
        "class Plain:\n"
        "    n: int\n"
        "    @classmethod\n"
        "    def make(cls, n, *args, **kw):\n"
        "        def inner(x):\n"
        "            return x\n"
        "        return inner\n")
    (pkg / "notes.txt").write_text("not a module\n")
    # 2 + 3 + 1 + 15 lines; __init__'s re-export is not counted again; the
    # settable values are Box's 2 annotated fields, grow's by and times,
    # make's n, args and kw, and inner's x, but not Plain's annotation, self,
    # cls or the lambda's k
    assert diff_outputs._surface(str(tmp_path)) == (21, 2, 8)


def test_surface_of_the_package_matches_its_modules():
    import importlib
    import pkgutil

    import fde

    src = os.path.dirname(os.path.dirname(os.path.abspath(fde.__file__)))
    names = sum(len(getattr(importlib.import_module(f"fde.{info.name}"), "__all__", ()))
                for info in pkgutil.iter_modules(fde.__path__))
    assert diff_outputs._surface(src)[1] == names


def test_modules_loaded_counts_a_fresh_import(tmp_path):
    # a package whose cli imports json loads json's modules, fde and fde.cli
    # on top of what a bare interpreter holds
    pkg = tmp_path / "fde"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("import json\n")
    bare = subprocess.run([sys.executable, "-c", "import sys, json; print(len(sys.modules))"],
                          capture_output=True, text=True, check=True)
    assert diff_outputs._modules_loaded(str(tmp_path)) == int(bare.stdout) + 2


def test_modules_loaded_counts_what_a_command_imports(tmp_path):
    # given a command, the fresh process also runs it in-process, with --out
    # a directory of its own, and counts the modules its run imported too
    pkg = tmp_path / "fde"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "import json\n"
        "def run_command(argv):\n"
        "    import os, csv\n"
        "    assert argv[:1] == ['profile'] and argv[-2] == '--out' and os.path.isdir(argv[-1])\n"
        "    print('output')\n")
    bare = subprocess.run([sys.executable, "-c",
                           "import sys, json, os, csv; print(len(sys.modules))"],
                          capture_output=True, text=True, check=True)
    assert (diff_outputs._modules_loaded(str(tmp_path), ("profile", "--smax", "60"))
            == int(bare.stdout) + 2)


def test_modules_loaded_after_profile_leaves_out_scipy_integrate():
    # the count diff_outputs prints for a fresh fde profile --smax 60: the full
    # far field steps LSODA without scipy.integrate's package init, so it
    # loads few modules on top of import fde.cli
    import fde

    src = os.path.dirname(os.path.dirname(os.path.abspath(fde.__file__)))
    before = diff_outputs._modules_loaded(src)
    after = diff_outputs._modules_loaded(src, diff_outputs._PROFILE_ARGV)
    assert before <= after < before + 20


def test_perfbench_finds_every_layer_it_traces(monkeypatch):
    # perfbench wraps fde's functions by name; a refactor that drops or
    # renames one loses that layer's span, which only this check notices
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ stays read-only
    monkeypatch.syspath_prepend(bench)
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    with tracing.Tracer() as tracer:
        pass
    assert tracer.missing == []


def test_every_public_name_has_a_caller_outside_the_tests():
    # src/ holds what the commands, the tools and the benchmark run; a public
    # name that only the tests use belongs in tests/reference.py
    import importlib
    import pkgutil
    import re

    import fde

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    lines = []
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            if os.path.relpath(dirpath, root) == os.path.join("perfbench", "tests"):
                dirnames[:] = []
                continue
            for name in filenames:
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name)) as f:
                        lines += f.read().splitlines()
    modules = [fde] + [importlib.import_module(f"fde.{info.name}")
                       for info in pkgutil.iter_modules(fde.__path__)]
    uncalled = []
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            own = re.compile(rf'\s*((def|class)\s+{name}\b|"{name}",?\s*$)')
            used = re.compile(rf"\b{name}\b")
            if not any(used.search(line) and not own.match(line) for line in lines):
                uncalled.append(f"{mod.__name__}.{name}")
    assert uncalled == []
