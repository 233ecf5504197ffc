"""The oracles stay independent of the package's internals."""

import ast
from pathlib import Path

import polaraut

# what the candidate-by-candidate support test `_aut_alive` reads, which
# is checked on its own against is_affine_automorphism and
# codeword_level_automorphism
PRIVATE_ALLOWED = {"_by_row", "_form_lut", "_support"}


def _polaraut_imports(path: Path) -> tuple[list[str], list[str]]:
    """(names imported from polaraut modules, polaraut modules imported
    whole) by the module at path."""
    names, modules = [], []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "polaraut":
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules += [a.name for a in node.names if a.name.split(".")[0] == "polaraut"]
    return names, modules


def test_oracles_import_only_public_names():
    names, modules = _polaraut_imports(Path(__file__).with_name("oracles.py"))
    assert names
    # a whole module would reach its private names as attributes
    assert modules == []
    private = {n for n in names if n.startswith("_") or not hasattr(polaraut, n)}
    assert private <= PRIVATE_ALLOWED, sorted(private - PRIVATE_ALLOWED)
