"""Source-level guards: the benchmark's tracer wraps kvcompose functions
by name, so a renamed or deleted function would break
``perfbench/run.py --trace 1`` unseen; every ranking goes through
``numerics.argsort_desc``, the one home of the tie rule; only
``model.py`` reads ``max_context``, whose one check is in ``_forward``;
no dataclass merely wraps one array; the evaluator scores every
policy through ``composer.keep_masks`` alone; only ``baselines.py`` names
the one policy that reads the head-mean attention, so whether a capture
keeps it is decided in one place; outside ``model.py`` only
``scoring.py``, the module that reads attention, asks a forward pass to
keep any; and ``model.py`` and ``scoring.py`` call no ``np.exp``, so
``numerics.softmax_rows`` stays the one place attention is normalized."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is not in this checkout")
def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"kvcompose.{module}.{name}"
        for module, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"kvcompose.{module}"), name, None))
    ]
    assert missing == []


def ranking_sorts(source: str) -> list[int]:
    """Lines that call ``argsort``/``lexsort``, or ``sorted``/``.sort`` with a ``key=``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        keyed = any(k.arg == "key" for k in node.keywords)
        if name in ("argsort", "lexsort") or (name in ("sorted", "sort") and keyed):
            lines.append(node.lineno)
    return lines


def test_ranking_sorts_only_in_numerics():
    found = {
        f"{path.name}:{line}"
        for path in (ROOT / "src" / "kvcompose").glob("*.py")
        if path.name != "numerics.py"
        for line in ranking_sorts(path.read_text())
    }
    assert found == set()


def called_names(path: Path) -> list[str]:
    return [
        ast.unparse(node.func)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    ]


def test_attention_normalized_only_by_softmax_rows():
    src = ROOT / "src" / "kvcompose"
    found = {
        name
        for name in ("model.py", "scoring.py")
        if {"np.exp", "numpy.exp"} & set(called_names(src / name))
    }
    assert found == set()
    # the tracer wraps the name model.py imports, so _forward calls it bare
    assert called_names(src / "model.py").count("softmax_rows") == 1


def test_max_context_read_only_in_model():
    found = {
        f"{path.name}:{node.lineno}"
        for path in (ROOT / "src" / "kvcompose").glob("*.py")
        if path.name != "model.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "max_context"
    }
    assert found == set()


def single_array_dataclasses(source: str) -> list[str]:
    """Dataclasses whose one field is annotated ``np.ndarray``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [ast.unparse(d).split("(")[0] for d in node.decorator_list]
        if not any(d.endswith("dataclass") for d in decorators):
            continue
        fields = [stmt.annotation for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
        if len(fields) == 1 and ast.unparse(fields[0]) == "np.ndarray":
            names.append(node.name)
    return names


def test_no_dataclass_wraps_a_single_array():
    found = {
        f"{path.name}:{name}"
        for path in (ROOT / "src" / "kvcompose").glob("*.py")
        for name in single_array_dataclasses(path.read_text())
    }
    assert found == set()


def test_evaluator_has_one_path_for_every_policy():
    tree = ast.parse((ROOT / "src" / "kvcompose" / "evaluator.py").read_text())
    names_compared = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(ast.unparse(side).endswith(".name") for side in [node.left, *node.comparators])
    ]
    from_composer = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("composer", "kvcompose.composer")
        for alias in node.names
    ]
    assert names_compared == []
    assert from_composer == ["keep_masks"]


def test_only_baselines_names_tova():
    found = {
        f"{path.name}:{node.lineno}"
        for path in (ROOT / "src" / "kvcompose").glob("*.py")
        if path.name != "baselines.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value == "tova"
    }
    assert found == set()


def asks_for_attention(node: ast.AST) -> bool:
    """Whether ``node`` calls ``prefill`` or ``_forward`` with ``attention_rows``
    or ``head_mean``, by keyword, by position or through ``**kwargs``."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "attr", getattr(node.func, "id", None))
    plain_args = {"prefill": 2, "_forward": 5}.get(name)  # positions before attention_rows
    keywords = {k.arg for k in node.keywords}
    return plain_args is not None and (
        len(node.args) > plain_args or bool(keywords & {"attention_rows", "head_mean", None})
    )


def test_only_scoring_asks_to_keep_attention():
    found = {
        f"{path.name}:{node.lineno}"
        for path in (ROOT / "src" / "kvcompose").glob("*.py")
        if path.name not in ("model.py", "scoring.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if asks_for_attention(node)
    }
    assert found == set()
