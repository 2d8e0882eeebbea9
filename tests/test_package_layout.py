"""The package's shape, read from its source with ``ast``.

Imports between ``sigeq``'s modules run one way: ``detection`` at the bottom,
the choosers and realizers above it, ``equilibrium`` (the one module that
builds reports) above them, and drivers such as the robustness scan on top.
Every import sits at the top of its module but one: ``oracle`` imports
``scipy.special`` inside the functions that need it, so that only a Monte
Carlo draw loads scipy.  The public names of ``sigeq`` are pinned, so a
deleted name cannot come back as a re-export unnoticed.
"""

import ast
import inspect
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import sigeq

SRC = Path(__file__).resolve().parent.parent / "src" / "sigeq"

PUBLIC_NAMES = {
    "AgentParams", "AveragePower", "Concept", "DerivedQuantities", "DynamicsTrace",
    "EquilibriumReport", "Existence", "GameSpec", "McEstimate",
    "MismatchedAgentsError", "NoiseModel", "OutcomeKind", "PeakPower",
    "Perturbation", "ReceiverRule", "RobustnessScan", "RuleKind", "ScanEntry",
    "SignalDesign", "SpecError", "Tau", "bayes_risk", "best_response_dynamics",
    "best_response_transmitter", "check_power", "classify_transmitter_preference",
    "conditional_error_probs", "d_max_of", "derived_quantities",
    "informative_risks", "mc_estimate", "nash_avg_best_response",
    "optimal_receiver_rule", "preset_biased_cost", "preset_deception",
    "preset_subjective_priors", "prior_only_rule", "q_function", "receiver_case",
    "require_identical_agents", "risk_pair", "robustness_scan", "rule_error_probs",
    "rules_equal", "single_cost_perturbations", "solve",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _package_imports(name: str, tree: ast.Module) -> set[str]:
    """The package modules ``name`` imports; ``from . import x`` imports the
    package itself, ``__init__``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.add(node.module.split(".")[0] if node.module else "__init__")
            elif node.module and node.module.split(".")[0] == "sigeq":
                parts = node.module.split(".")
                found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "sigeq":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    found.discard(name)
    return found


def test_package_imports_form_an_acyclic_graph():
    graph = {name: _package_imports(name, tree) for name, tree in _modules().items()}
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
    assert graph["detection"] == set()
    # the choosers and realizers return values; equilibrium builds the reports
    for layer in ("stackelberg", "nash", "vector", "avgpower"):
        assert order.index(layer) < order.index("equilibrium")
        assert "equilibrium" not in graph[layer]
    assert order.index("equilibrium") < order.index("team")


def test_every_import_sits_at_the_top_of_its_module():
    for name, tree in _modules().items():
        seen_def = None
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                seen_def = seen_def or node.name
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                assert seen_def is None, (
                    f"{name}.py:{node.lineno}: import after the definition of {seen_def}")


def test_the_one_deferred_import_is_scipy_special_in_the_oracle():
    deferred = set()
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, ast.ImportFrom):
                        deferred.add((name, node.module))
                    elif isinstance(node, ast.Import):
                        deferred.update((name, alias.name) for alias in node.names)
    assert deferred == {("oracle", "scipy.special")}


RECORDS = {
    "AgentParams", "NoiseModel", "PeakPower", "AveragePower", "GameSpec", "Tau",
    "DerivedQuantities", "ReceiverRule", "SignalDesign", "EquilibriumReport",
    "DynamicsTrace", "McEstimate", "Perturbation", "ScanEntry", "RobustnessScan",
}
_DATACLASS_MAKERS = {"dataclass", "make_dataclass"}


def test_every_record_is_declared_with_the_one_decorator():
    """Only ``detection._record`` applies ``dataclass``, so no record falls back
    to the dataclass's own ``__init__``, one ``object.__setattr__`` per field."""
    declared = set()
    for name, tree in _modules().items():
        inside = set()
        if name == "detection":
            record = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_record")
            inside = {id(node) for node in ast.walk(record)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used = node.id
            elif isinstance(node, ast.Attribute):
                used = node.attr
            elif isinstance(node, ast.alias) and name != "detection":
                used = node.name
            else:
                used = None
            assert used not in _DATACLASS_MAKERS or id(node) in inside, (
                f"{name}.py:{getattr(node, 'lineno', '?')}: {used} outside "
                "detection._record; declare the record with @_record")
            if isinstance(node, ast.ClassDef):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    if isinstance(target, ast.Name) and target.id == "_record":
                        declared.add(node.name)
    assert declared == RECORDS


def test_public_names_are_pinned():
    public = {name for name, obj in vars(sigeq).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == PUBLIC_NAMES
