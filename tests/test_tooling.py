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
keep any; ``model.py`` and ``scoring.py`` call no ``np.exp``, so
``numerics.softmax_rows`` stays the one place attention is normalized;
no module reads the environment, so a setting such as the forward
pass's row block size cannot become a hidden knob; and no function
writes a cache's ``keys``, ``values`` or ``next_positions`` and no module
calls ``.clone()``, so a cache is a value: a forward pass only reads the
cache it is given and returns a new one, and rebinding a field raises."""
import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from kvcompose.composer import CompressedCache
from kvcompose.model import KVCache

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


def environment_reads(source: str) -> list[int]:
    """Lines that read ``os.environ`` or call ``os.getenv``, also as bare
    names imported from ``os``."""
    tree = ast.parse(source)
    from_os = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "os"
        for alias in node.names
        if alias.name in ("environ", "getenv")
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.Name) and node.id in from_os)
    ]


def test_no_module_reads_the_environment():
    found = {
        f"{path.name}:{line}"
        for path in (ROOT / "src" / "kvcompose").glob("*.py")
        for line in environment_reads(path.read_text())
    }
    assert found == set()


CACHE_FIELDS = ("keys", "values", "next_positions")
LIST_WRITES = ("append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse")


def written_fields(node: ast.AST) -> list[str]:
    """The cache fields that ``node`` writes: an assignment (``=``,
    ``+=`` or annotated) to a ``keys``, ``values`` or ``next_positions``
    attribute or to an item of one, also inside a tuple target, or a call
    of a list method that changes such an attribute in place."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in LIST_WRITES:
        targets = [node.func.value]
    else:
        return []
    fields = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
            continue
        while isinstance(target, (ast.Subscript, ast.Starred)):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in CACHE_FIELDS:
            fields.append(target.attr)
    return fields


def cache_writers(source: str) -> set[str]:
    """Names of the top-level functions and classes of ``source`` that write a cache field."""
    return {
        getattr(top, "name", f"line {top.lineno}")
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if written_fields(node)
    }


def test_nothing_writes_a_cache_and_nothing_clones_one():
    src = ROOT / "src" / "kvcompose"
    writers = {
        f"{path.name}:{name}"
        for path in src.glob("*.py")
        for name in cache_writers(path.read_text())
    }
    clones = {
        f"{path.name}:{node.lineno}"
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "clone"
    }
    assert writers == set()
    assert clones == set()
    for cache in (KVCache([], [], []), CompressedCache([], [], [], [])):
        with pytest.raises(dataclasses.FrozenInstanceError):
            cache.next_positions = [1]


@pytest.mark.parametrize(
    "line, fields",
    [
        ("cache.keys[layer], cache.values[layer] = k, v", ["values", "keys"]),
        ("cache.next_positions[layer] += 1", ["next_positions"]),
        ("c.keys = c.values = []", ["keys", "values"]),
        ("a, (b.keys, *rest) = x", ["keys"]),
        ("cache.keys[0][:, 1] = 0.0", ["keys"]),
        ("cache.next_positions.append(3)", ["next_positions"]),
        ("keys, values = [], []", []),
        ("out[self.values > 0] = 1", []),
        ("n = cache.keys[0].shape[1]", []),
    ],
)
def test_cache_write_finder(line, fields):
    found = [f for node in ast.walk(ast.parse(line)) for f in written_fields(node)]
    assert sorted(found) == sorted(fields)
