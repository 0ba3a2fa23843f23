"""The oracle boundary: ``repro.oracle`` is a reference, not a serving path.

numpy is the engine; :mod:`repro.oracle` holds the scalar forms of its
kernels for tests, verification and the paper-figure harness.  Two
properties keep it that way:

* nothing the engine runs imports the oracle — only ``repro/oracle.py``
  itself, the CLI (``serve --verify``) and ``repro/bench`` may;
* every function the oracle exports is held against the engine by some
  ``==`` test, so no scalar reference sits unused.
"""

import ast
from pathlib import Path

from repro import oracle

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
TESTS = Path(__file__).resolve().parent

#: Where an import of ``repro.oracle`` is allowed, relative to ``SRC``.
ALLOWED = ("oracle.py", "cli.py", "bench/")


def module_name(path: Path, root: Path = SRC) -> str:
    parts = ("repro",) + path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imports_oracle(path: Path, root: Path = SRC) -> bool:
    """Does the module at ``path`` (under the package directory ``root``)
    import ``repro.oracle`` — absolutely or relatively, as a module or
    through ``from repro import oracle``?"""
    package = module_name(path, root).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import) and any(
            a.name == "repro.oracle" or a.name.startswith("repro.oracle.")
            for a in node.names
        ):
            return True
        if isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            target = ".".join(base + ([node.module] if node.module else []))
            if target == "repro.oracle" or target.startswith("repro.oracle."):
                return True
            if target == "repro" and any(a.name == "oracle" for a in node.names):
                return True
    return False


def test_only_verification_and_the_figure_harness_import_the_oracle():
    importers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if imports_oracle(path)
    )
    assert importers, "the walk found no importer at all: the check is broken"
    stray = [name for name in importers if not name.startswith(ALLOWED)]
    assert stray == []


def test_the_import_walk_sees_every_spelling(tmp_path):
    """The walk above has teeth: each way of spelling the import counts."""
    fake = tmp_path / "repro" / "core"
    fake.mkdir(parents=True)
    for line, counted in (
        ("from .. import oracle", True),
        ("from ..oracle import query", True),
        ("import repro.oracle", True),
        ("from repro import oracle", True),
        ("from repro.oracle import query", True),
        ("from . import kernels", False),
        ("from ..core import oracle_free", False),
    ):
        module = fake / "probe.py"
        module.write_text(line + "\n")
        assert imports_oracle(module, tmp_path / "repro") is counted, line


def test_every_oracle_export_is_held_to_the_engine_by_an_equality_test():
    """Grep the test sources: each exported name is referenced (as
    ``oracle.<name>`` or imported from ``repro.oracle``) by a test module
    that asserts ``==``."""
    sources = {
        path: path.read_text()
        for path in TESTS.rglob("test_*.py")
        if path.name != Path(__file__).name
    }
    unheld = []
    for name in oracle.__all__:
        assert callable(getattr(oracle, name)), name
        if not any(
            ("==" in text)
            and (f"oracle.{name}" in text or _imports_name(text, name))
            for text in sources.values()
        ):
            unheld.append(name)
    assert unheld == []


def _imports_name(text: str, name: str) -> bool:
    return any(
        isinstance(node, ast.ImportFrom) and node.module == "repro.oracle"
        and any(a.name == name for a in node.names)
        for node in ast.walk(ast.parse(text))
    )
