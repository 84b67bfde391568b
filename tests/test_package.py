import ast
import builtins
import dataclasses
import importlib
import inspect
import pathlib
import re

import pytest

import pseudosim
from pseudosim import cli
from pseudosim.experiments import _SUITE_TABLE
from test_experiments import GUARDED_BODIES


def test_every_export_resolves_once():
    names = pseudosim.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(pseudosim, name)]
    assert missing == []


def _console_scripts() -> dict[str, str]:
    """``[project.scripts]`` of pyproject.toml, name -> "module:attr".  Read
    line by line: tomllib is in the standard library only from Python 3.11."""
    scripts, section = {}, None
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    for line in map(str.strip, text.splitlines()):
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, target = (part.strip() for part in line.split("=", 1))
            scripts[name] = target.strip('"')
    return scripts


def test_console_script_runs(monkeypatch):
    # the installed `pseudosim` command calls this entry point with no arguments
    module, attr = _console_scripts()["pseudosim"].split(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.entry
    monkeypatch.setattr("sys.argv", ["pseudosim", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        entry()
    assert exit_info.value.code == 0


SOURCE = pathlib.Path(pseudosim.__file__).parent
ROOT = pathlib.Path(__file__).parents[1]
MODULES = [importlib.import_module(f"pseudosim.{path.stem}")
           for path in sorted(SOURCE.glob("*.py")) if path.stem != "__init__"]


def _readme_sections() -> tuple[str, str]:
    """The README's quick start code and its "Key entry points" list."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    entry_points = readme.split("Key entry points:", 1)[1].split("\n#", 1)[0]
    return quick_start, entry_points


def test_every_export_has_a_consumer():
    # a name is exported because the README, a demo, the CLI or the
    # benchmark uses it
    texts = [*_readme_sections(), (SOURCE / "cli.py").read_text(encoding="utf-8")]
    texts += [path.read_text(encoding="utf-8")
              for path in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))]
    unused = [name for name in pseudosim.__all__
              if not any(re.search(rf"\b{name}\b", text) for text in texts)]
    assert unused == []


def test_readme_entry_points_resolve():
    # every call the entry points name is a function of the package, of one
    # of its modules, or a method of one of its classes (a formula's `max(`
    # is Python's)
    names = {name for span in re.findall(r"`([^`]*)`", _readme_sections()[1])
             for name in re.findall(r"(\w+)\(", span)}
    assert {"pseudo_similarity", "min_margins", "draw_hermitian", "max"} <= names
    classes = [obj for module in MODULES for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__ == module.__name__]
    unresolved = [name for name in sorted(names)
                  if not any(hasattr(owner, name) for owner in (pseudosim, builtins, *MODULES))
                  and not any(inspect.isfunction(vars(cls).get(name)) for cls in classes)]
    assert unresolved == []


DELETED = ("DimensionError", "adjoint", "is_hermitian", "numerical_rank", "charpoly_eigenvalues",
           "random_unitary", "hermitian_with_spectrum", "random_full_column_rank", "random_rank_l",
           "random_invertible_nonunitary", "trial_seed", "_classify_real", "_extract_nonzero",
           "SvdFactors._truncated")


def _resolves(owner, dotted: str) -> bool:
    """Whether ``owner.<dotted>`` names something, attribute by attribute."""
    for name in dotted.split("."):
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return True


def test_deleted_names_stay_deleted():
    # shape errors are ContractViolations, each generator is its draw, a
    # trial's seed is the README's formula, which the runner derives itself,
    # and a guard that passes over no array has no private body; every
    # import sits at module level, so no module defines or imports one
    assert [(module.__name__, name) for module in (pseudosim, *MODULES)
            for name in DELETED if _resolves(module, name)] == []


def test_validation_boundary_is_documented():
    # README "Validation boundary" names exactly the public functions that
    # have a private body the runner calls, so a body added or folded back
    # into its function without the README fails here
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "### Validation boundary\n", 1)[1].split("\n#", 1)[0]
    named = {name for name in re.findall(r"`(\w+)`", section) if not name.startswith("_")
             and any(inspect.isfunction(getattr(module, name, None)) for module in MODULES)}
    assert named == {function.__name__ for function in GUARDED_BODIES.values()}


def _tree(module: str) -> ast.Module:
    return ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(module: str) -> set[str]:
    """The package modules ``module`` imports, by their relative imports."""
    return {node.module for node in ast.walk(_tree(module))
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def _is_name(node, *names) -> bool:
    return isinstance(node, ast.Name) and node.id in names


def _numeric_rule(node) -> str | None:
    """The numeric rule ``node`` writes out by hand: "number" where it decides
    whether a value is a usable number, "scale" where it forms max(1.0, ...)."""
    if isinstance(node, ast.Call):
        if (_is_name(node.func, "isinstance") and len(node.args) == 2
                and any(_is_name(t, "bool") for t in ast.walk(node.args[1]))):
            return "number"
        if ((_is_name(node.func, "max") or isinstance(node.func, ast.Attribute)
             and node.func.attr == "maximum")
                and any(isinstance(a, ast.Constant) and type(a.value) is float and a.value == 1.0
                        for a in node.args)):
            return "scale"
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        if (any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(_is_name(o, "int") for o in operands)
                and any(isinstance(o, ast.Call) and _is_name(o.func, "type") for o in operands)):
            return "number"
        if any(isinstance(o, ast.Attribute) and o.attr == "inf" and _is_name(o.value, "math", "np")
               for o in operands):
            return "number"
    return None


def _numeric_rule_sites() -> set[tuple[str, str, str | None]]:
    """(rule, module, top-level name) of every hand-written numeric rule."""
    return {(rule, path.stem, getattr(top, "name", None))
            for path in sorted(SOURCE.glob("*.py")) for top in _tree(path.stem).body
            for node in ast.walk(top) if (rule := _numeric_rule(node))}


def test_each_rule_has_one_owner():
    # the report format is the CLI's, so the config holds only what a run needs
    assert [f.name for f in dataclasses.fields(pseudosim.ExperimentConfig)] == [
        "suites", "ensemble", "trials", "tolerances"]
    assert not {"reports", "cli"} & _package_imports("experiments")
    # a generator builds its matrices itself, without re-checking them
    assert _package_imports("ensembles") == {"errors", "rng"}
    # every import sits at module level, so none hides a cycle
    nested = [(path.stem, inner.lineno) for path in sorted(SOURCE.glob("*.py"))
              for node in ast.walk(_tree(path.stem))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert nested == []
    # errors.require_number alone decides a usable number, and
    # linalg.spectral_scale alone forms max(1, |x|); the trace/determinant
    # check keeps its scalar moduli (numpy's vectorised modulus differs in
    # the last bit)
    owners = {("number", "errors"), ("scale", "linalg")}
    sites = _numeric_rule_sites()
    assert {site[:2] for site in sites} >= owners
    assert {site for site in sites if site[:2] not in owners} == {
        ("scale", "experiments", "_trace_det_deviations")}


def test_no_module_keeps_an_unused_import():
    # an import that nothing reads is left over from deleted code
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem == "__init__":  # its imports are the package's exports
            continue
        tree = _tree(path.stem)
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in imports for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}: {name}" for name in sorted(bound - read)]
    assert unused == []


def _definitions(module: str):
    """(name, node) of each top-level statement of ``module``, where each
    statement of a top-level class counts on its own, as Class.name."""
    for top in _tree(module).body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                yield f"{top.name}.{getattr(node, 'name', None)}", node
        else:
            yield getattr(top, "name", None), top


def _call_sites(test) -> set[tuple[str, str | None]]:
    """(module, definition name) of every call in the package that ``test``
    picks out."""
    return {(path.stem, name) for path in sorted(SOURCE.glob("*.py"))
            for name, top in _definitions(path.stem)
            for node in ast.walk(top) if isinstance(node, ast.Call) and test(node)}


def _calls_method(call, name: str) -> bool:
    return isinstance(call.func, ast.Attribute) and call.func.attr == name


def test_ensembles_alone_builds_draws():
    # how a Draw becomes its member is decided in ensembles: no other module
    # reads a draw's Gaussians, stage or build, or stages a Gaussian itself
    readers = {path.stem for path in sorted(SOURCE.glob("*.py"))
               for node in ast.walk(_tree(path.stem))
               if isinstance(node, ast.Attribute) and node.attr in ("gaussians", "stage", "build")}
    assert readers == {"ensembles"}
    assert "haar_columns" not in {alias.name for node in ast.walk(_tree("experiments"))
                                  if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_rng_alone_makes_stream_words():
    # no module but rng touches the stream's words; a draw records where each
    # Gaussian starts, and only build_draws makes them, one stack per shape
    touching = {path.stem for path in sorted(SOURCE.glob("*.py"))
                for node in ast.walk(_tree(path.stem))
                if isinstance(node, ast.Name) and node.id in ("_words", "_box_muller")
                or isinstance(node, ast.Attribute) and node.attr in ("_words", "_box_muller")
                or isinstance(node, ast.alias) and node.name in ("_words", "_box_muller")}
    assert touching == {"rng"}
    assert _call_sites(lambda call: _is_name(call.func, "complex_normal_stack")
                       or _calls_method(call, "complex_normal_stack")) == {
        ("rng", "SplitMix64.complex_normals"), ("ensembles", "build_draws")}
    # so no draw_* function, suite draw or helper of theirs makes a Gaussian
    assert _call_sites(lambda call: _calls_method(call, "complex_normals")) == set()


def test_each_trial_is_checked_alone():
    # one pass stacks a chunk's Gaussians, for the Haar factors and for
    # solver-oracle's measurements alike
    assert _call_sites(lambda call: _is_name(call.func, "build_draws")
                       or _calls_method(call, "build_draws")) == {
        ("ensembles", "Draw.built"), ("experiments", "_check_chunk")}
    # a record's dimensions are its draw's: nothing patches them afterwards
    assert _call_sites(lambda call: _calls_method(call, "_replace")
                       and any(keyword.arg == "dims" for keyword in call.keywords)) == set()
    # every suite's check takes one built trial and the tolerances
    assert {suite: list(inspect.signature(check).parameters)
            for suite, (_, _, check) in _SUITE_TABLE.items()} == {
        suite: ["trial", "tols"] for suite in _SUITE_TABLE}


def test_trial_errors_are_caught_in_one_place():
    # ensembles._kept alone catches a trial's error, and keeps it without its
    # traceback, whose frames would hold the members of the error's chunk
    handlers = [(path.stem, name) for path in sorted(SOURCE.glob("*.py"))
                for name, top in _definitions(path.stem)
                for node in ast.walk(top) if isinstance(node, ast.ExceptHandler) and node.type
                for caught in ast.walk(node.type)
                if _is_name(caught, "TRIAL_ERRORS")
                or isinstance(caught, ast.Attribute) and caught.attr == "TRIAL_ERRORS"]
    assert handlers == [("ensembles", "_kept")]


def test_polynomial_roots_takes_coefficients_only():
    # the root iteration's budget of 500 corrections is part of the code:
    # no caller in the package ever set another
    assert list(inspect.signature(pseudosim.oracles.polynomial_roots).parameters) == ["coeffs"]


def test_each_suite_and_setting_is_declared_once():
    # a suite-table entry is three module functions: the runner hands each
    # dimension rule the tag it serves, so no entry binds it in a partial
    experiments = importlib.import_module("pseudosim.experiments")
    assert [(suite, step) for suite, entry in _SUITE_TABLE.items() for step in entry
            if not (inspect.isfunction(step) and getattr(experiments, step.__name__) is step)] == []
    # every flag but --config is stored under the INI key it sets, so the
    # file and the flags reach the config by one path
    keys = {f"{section}.{key}" for section, readers in cli._INI_KEYS.items() for key in readers}
    dests = [action.dest for action in cli.make_parser()._actions
             if action.dest not in ("config", "help")]
    assert len(dests) == 7
    assert [dest for dest in dests if dest not in keys] == []
