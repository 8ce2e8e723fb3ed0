"""The public surface, where the input checks live, and the README example."""

import ast
import doctest
import importlib
import inspect
from pathlib import Path

import lvbij

PACKAGE = Path(lvbij.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"
BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def test_each_public_name_is_listed_once_and_resolves():
    assert len(lvbij.__all__) == 50
    assert len(set(lvbij.__all__)) == 50
    for name in lvbij.__all__:
        assert hasattr(lvbij, name), name


def test_every_function_the_benchmark_traces_exists():
    # the traced benchmark run looks these functions up by name and skips a
    # missing one, dropping its metrics from the result without an error
    assign = next(node for node in ast.parse(SPANS.read_text()).body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    layers = ast.literal_eval(assign.value)
    assert layers
    for module, names in layers.items():
        mod = importlib.import_module(f"lvbij.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def _lv_name(node: ast.AST) -> str | None:
    # the benchmark scripts import the package as `lv`
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "lv":
        return node.attr
    return None


def test_every_name_and_keyword_the_benchmark_uses_resolves():
    # each `lv.<name>` the benchmark scripts read must exist, and each keyword
    # of an `lv.<name>(...)` call must be a parameter of that function, or the
    # benchmark's own command breaks
    names, keywords = set(), set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if name := _lv_name(node):
                names.add(name)
            elif isinstance(node, ast.Call) and (name := _lv_name(node.func)):
                keywords.update((name, kw.arg) for kw in node.keywords if kw.arg)
    assert ("roundtrip_sweep", "extended") in keywords
    assert [name for name in sorted(names) if not hasattr(lvbij, name)] == []
    for name, keyword in sorted(keywords):
        assert keyword in inspect.signature(getattr(lvbij, name)).parameters, f"{name}({keyword}=...)"


def test_only_core_defines_check_helpers():
    homes = sorted(
        path.stem
        for path in PACKAGE.glob("*.py")
        if any(isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")
               for node in ast.walk(_tree(path.stem)))
    )
    assert homes == ["core"]


def test_inverse_algorithm_does_not_import_seq_algorithm():
    # nothing on gamma_inverse's path imports seq_algorithm: not
    # inverse_algorithm, and not diagrams, whose readout takes its overlap
    # helpers from core
    for module in ("inverse_algorithm", "diagrams"):
        imported = set()
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert imported and not any(name and "seq_algorithm" in name for name in imported), module


def test_private_names_taken_from_sibling_modules():
    # besides core's helpers, a module reaches another module's kernels only
    # through its public functions, except for these three: the column shift,
    # say, is called only inside diagrams, through e_map and e_inverse
    taken = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path.stem)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != "core":
                taken.update((path.stem, f"{node.module}.{alias.name}")
                             for alias in node.names if alias.name.startswith("_"))
    assert taken == {
        ("diagram_algorithm", "seq_algorithm._rank_and_fill"),
        ("inverse_algorithm", "diagrams._preimage_readout"),
        ("oracle", "diagrams._adjacent_steps_ok"),
    }


def test_every_module_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10: feature_version makes
    # the parser refuse later grammar, such as except* (3.11)
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_readme_library_example():
    # the block between the ```python fences of the Library section; running
    # README.md itself through doctest would read the closing fence as output
    library = README.read_text().split("## Library", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library", str(README), 0)
    assert test.examples
    result = doctest.DocTestRunner().run(test)
    assert result.failed == 0


def test_no_floating_point_in_the_package():
    # README and core's docstring say that no floating point is involved:
    # no float literal, no call to float and no true division anywhere
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path.stem)):
            if ((isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
                    or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
                    or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
