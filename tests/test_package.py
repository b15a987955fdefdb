"""Public names: every module's ``__all__`` resolves and star-imports,
every import is used, the argument slots the span tracer reads keep their
parameters, and the result fields it reads exist."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import symtable

import pytest

MODULES = ["oamlink", "oamlink.beam", "oamlink.ber", "oamlink.crosstalk",
           "oamlink.montecarlo", "oamlink.numerics"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


# The positional slots benchmarks/spans.py reads its counts and method
# suffixes from, by parameter name.
TRACED_SLOTS = {
    "oamlink.crosstalk.channel_profile": {3: "r_ch", 4: "method"},
    "oamlink.crosstalk.crosstalk_matrix": {4: "method"},
    "oamlink.beam.lg_field": {2: "x", 3: "y"},
    "oamlink.beam.shifted_aperture_field": {2: "r_prime", 3: "phi_prime"},
    "oamlink.numerics.bessel_j": {1: "x"},
}


@pytest.mark.parametrize("name", TRACED_SLOTS)
def test_traced_argument_slots_keep_their_parameters(name):
    # A signature change that shifted one of these slots would make the
    # tracer miscount radii or points, or misname a method, without failing.
    module, _, attr = name.rpartition(".")
    params = list(inspect.signature(getattr(importlib.import_module(module), attr)).parameters)
    assert {slot: params[slot] for slot in TRACED_SLOTS[name]} == TRACED_SLOTS[name]


# The result fields benchmarks/spans.py reads its counts from.
TRACED_RESULT_FIELDS = {
    "oamlink.ber.BerResult": {"quad_self_check_rel", "quad_converged",
                              "degraded_node_fraction"},
    "oamlink.montecarlo.TrialOutcome": {"trials", "workers", "degraded_fraction"},
    "oamlink.sweep.OptimizeResult": {"evaluations"},
    "oamlink.crosstalk.ExactEvaluation": {"phi_points", "rel_change"},
}


@pytest.mark.parametrize("name", TRACED_RESULT_FIELDS)
def test_traced_result_fields_exist(name):
    # A rename of one of these would break a traced benchmark run; the
    # traced test under benchmarks/ runs no optimize job, so it would not
    # see ``evaluations`` go.
    module, _, attr = name.rpartition(".")
    fields = {f.name for f in dataclasses.fields(getattr(importlib.import_module(module), attr))}
    assert TRACED_RESULT_FIELDS[name] <= fields


# The imports that only give benchmarks/spans.py a name to rebind; each
# carries "# noqa: F401" on its line.
TRACER_IMPORTS = {"ber.mode_envelope", "crosstalk.shifted_aperture_field",
                  "sweep.crosstalk_matrix"}


def _module_names_read(table: symtable.SymbolTable) -> set[str]:
    """Module-level names read in ``table``'s scope or in any scope below it
    that does not bind them itself."""
    names = {sym.get_name() for sym in table.get_symbols()
             if sym.is_referenced() and (table.get_type() == "module" or sym.is_global()
                                         or sym.is_free())}
    for child in table.get_children():
        names |= _module_names_read(child)
    return names


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names in annotations, which the symbol table skips under
    ``from __future__ import annotations``; quoted ones are parsed."""
    notes = [getattr(node, attr) for node in ast.walk(tree)
             for attr in ("annotation", "returns") if getattr(node, attr, None) is not None]
    names = set()
    for note in notes:
        for node in ast.walk(note):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _annotation_names(ast.parse(f"x: {node.value}"))
            elif isinstance(node, ast.Name):
                names.add(node.id)
    return names


def test_montecarlo_imports_nothing_from_ber():
    # The simulator is the independent check on the analytic average, so it
    # must not share the analytic module's code.
    path = pathlib.Path(importlib.import_module("oamlink.montecarlo").__file__)
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    assert [n for n in names if n == "oamlink.ber" or n.startswith("oamlink.ber.")] == []


def test_cli_restates_no_library_bound():
    # The CLI names a refusal's key by calling the library's check; a bound
    # or reach it imported would be a rule written a second time.
    path = pathlib.Path(importlib.import_module("oamlink.cli").__file__)
    names = {alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert names & {"REACH_SIGMAS", "TOL_ULPS", "BESSEL_MAX_ARG"} == set()


def test_every_import_is_used():
    # A deletion that leaves its import behind, or a new import that only a
    # tracer reads, shows here; no linter is needed.
    package = pathlib.Path(importlib.import_module("oamlink").__file__).parent
    unused, tracer = [], set()
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = _module_names_read(symtable.symtable(source, str(path), "exec"))
        used |= _annotation_names(tree)
        module = "oamlink" if path.stem == "__init__" else f"oamlink.{path.stem}"
        used |= set(getattr(importlib.import_module(module), "__all__", ()))
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        for node in imports:
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    tracer.add(f"{path.stem}.{name}")
                elif name not in used:
                    unused.append(f"{path.name}: {name}")
    assert unused == []
    assert tracer == TRACER_IMPORTS
