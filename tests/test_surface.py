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
    "beams.BeamSpec.from_flight_times": "perfbench beam-staggered",
    "hamfun.HamiltonianFunction.state_energy": "acceptance criterion 10",
    "protocols.MeasurementOutcomeTable.marginal": "tests of the outcome tables' marginals",
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
    """Public module-level functions and classes, and public methods of public classes,
    whose name no other statement of the package uses.

    Name matching cannot see a dead method whose name a used one shares: an
    unused ``energy`` or ``effective_matrix`` on a second class would pass,
    because ``HamiltonianFunction``'s methods of those names are used.
    """
    modules = [(path.stem, ast.parse(path.read_text()).body) for path in sorted(PACKAGE.glob("*.py"))]
    statements = [stmt for _, body in modules for stmt in body]
    uses = [(stmt, _used_names(stmt)) for stmt in statements]
    unused = []
    for stem, body in modules:
        for stmt in body:
            if not (isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")):
                continue
            # a definition's own statement does not count as a use of it
            others = [names for other, names in uses if other is not stmt]
            if not any(stmt.name in names for names in others):
                unused.append(f"{stem}.{stmt.name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            members = [(member, _used_names(member)) for member in stmt.body]
            for method, _ in members:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    siblings = [names for member, names in members if member is not method]
                    if not any(method.name in names for names in others + siblings):
                        unused.append(f"{stem}.{stmt.name}.{method.name}")
    return unused


def test_every_public_definition_is_used_by_the_package():
    unused = set(_unused_public_definitions())
    assert unused - set(ALLOWED_UNUSED) == set(), "public names nothing in the package uses"
    assert set(ALLOWED_UNUSED) - unused == set(), "allow-list entries the package now uses"
    assert all(ALLOWED_UNUSED.values())
