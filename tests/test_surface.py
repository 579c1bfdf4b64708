import ast
from pathlib import Path

import nlqcorr

PACKAGE = Path(nlqcorr.__file__).parent

# public names that nothing in the package reads, each with the reader that keeps it
ALLOWED_UNUSED = {
    "beams.frequency_average": "perfbench",
    "beams.sub_beam_state": "perfbench",
    "dynamics.integrate": "test oracle, perfbench",
    "dynamics.exact_pair_propagator": "test oracle, perfbench",
    "hamfun.polchinski_extend": "test oracle, acceptance criteria 3 and 6, perfbench",
    "hamfun.from_callable": "perfbench",
    "hamfun.effective_hamiltonian": "acceptance criterion 10",
    "entropy.kn_affine": "acceptance criterion 7",
    "entropy.kn_decomposition_check": "acceptance criterion 7",
}


def _used_names(node) -> set[str]:
    """Every name a ``Name``, an ``Attribute`` or an import alias under ``node`` refers to."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rpartition(".")[2])
    return used


def _unused_public_definitions() -> list[str]:
    definitions, statements = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            statements.append(stmt)
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                definitions.append((f"{path.stem}.{stmt.name}", stmt))
    uses = [(stmt, _used_names(stmt)) for stmt in statements]
    return [qualified for qualified, definition in definitions
            if not any(definition.name in names for stmt, names in uses if stmt is not definition)]


def test_every_public_definition_is_used_by_the_package():
    unused = set(_unused_public_definitions())
    assert unused - set(ALLOWED_UNUSED) == set(), "public names nothing in the package uses"
    assert set(ALLOWED_UNUSED) - unused == set(), "allow-list entries the package now uses"
    assert all(ALLOWED_UNUSED.values())
