"""Source-level guards: the benchmark's tracer wraps kvcompose functions
by name, so a renamed or deleted function would break
``perfbench/run.py --trace 1`` unseen, and each of them has a caller
in the program or a stated reason on a short list, so that no traced
metric reads 0 for want of a caller, and its capture and score measures
run on a capture of each scoring mode; every ranking goes through
``numerics.argsort_desc``, the one home of the tie rule; ``baselines.py``
calls no ``SeededRng`` method that draws one value a call and
``select_baseline_indices`` runs no ``for`` or ``while`` statement, so no
baseline draws or selects one row or head at a time; only
``model.py`` reads ``max_context``, whose one check is in ``_forward``;
no dataclass merely wraps one array; the evaluator scores every
policy through ``composer.keep_masks`` alone; only ``baselines.py`` holds
a policy's name as a string literal (the program's name and a model kind
aside), so its ``POLICIES`` table decides in one place which parameters
each policy reads and how it budgets its layers; outside ``model.py`` only
``scoring.py``, the module that reads attention, asks a forward pass to
keep any, and each of its passes skips its logits, which nothing reads
there; ``model.py``, ``scoring.py`` and ``baselines.py`` call no ``np.exp``,
so ``numerics.exp_rows`` stays the one home of attention's exponentials, and
only ``model._block_weights`` and ``numerics.softmax_rows`` call it, so a
capture's rows and tova's head means cannot drift from the pass's bits;
no module reads the environment, so a setting such as the forward
pass's row block size cannot become a hidden knob; only ``cache_io.py``
reads or writes a file (``read_text``, ``read_bytes``, ``write_text``,
``write_bytes`` or ``open``), so one reader and one writer map every
``OSError`` to an ``IoError`` and the CLI parses what it reads inside
its config-error handlers; no function
writes a cache's ``keys``, ``values`` or ``next_positions`` and no module
calls ``.clone()``, so a cache is a value: a forward pass only reads the
cache it is given and returns a new one, and rebinding a field raises;
only ``select_baseline_indices``, which picks each baseline's order
producer, compares a policy's name, so it covers the whole ratio grid in
one branch per baseline, every other function reads the policy's row of
``POLICIES``, and a baseline's selection reaches both evaluation and
``compress`` through the one mask rule and check in ``keep_masks``;
only ``RunConfig.resolved`` calls ``dataclasses.asdict`` and no module
calls ``astuple`` or ``copy.deepcopy``, so a report is written from its
dataclasses as they are, with no deep copy; outside ``check_*``
functions and a short list with reasons, no function takes an argument
that it reads only in guards (an ``if`` that only raises, or a ``for``
of such ifs), so a value its caller already vouches for is not passed
just to be checked again; every exception class the package defines is
named in one of its ``except`` clauses, or is on a short list with its
reason, so no error type exists that no handler tells apart; and every committed
``BENCH_*.json`` names only workloads and end-to-end metrics that
``BENCHMARK.json`` defines, in its units, with finite parent and change
medians."""
import ast
import builtins
import dataclasses
import importlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

from kvcompose.baselines import POLICY_NAMES
from kvcompose.composer import CompressedCache
from kvcompose.model import KVCache, construct_induction_model
from kvcompose.scoring import (
    TASK_MODES,
    AggregationChoice,
    TaskSet,
    collect_attention,
    score_pipeline,
)

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def perfbench_tracing():
    """perfbench's tracer module, loaded from its file without installing it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_names() -> dict[str, tuple[str, ...]]:
    """perfbench's ``TRACED``: module name -> the function names its tracer wraps."""
    return perfbench_tracing().TRACED


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is not in this checkout")
def test_traced_names_resolve():
    missing = [
        f"kvcompose.{module}.{name}"
        for module, names in traced_names().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"kvcompose.{module}"), name, None))
    ]
    assert missing == []


# traced functions that no program path calls, each with why it stays
TRACED_WITHOUT_CALLER = {
    "numerics.softmax_rows": "the oracle that _forward's kept attention rows must match",
    "cache_io.read_cache": "no program decodes a KVCF file yet",
}


def program_loads() -> list[tuple[str, frozenset[str]]]:
    """Each load of a name, bare or as an attribute, in ``src/kvcompose/``, with
    the ``module.function`` definitions it lies in; imports are no loads."""
    loads = []

    def visit(node, module, inside):
        if isinstance(node, ast.FunctionDef):
            inside = inside | {f"{module}.{node.name}"}
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name and isinstance(getattr(node, "ctx", None), ast.Load):
            loads.append((name, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, module, inside)

    for path in (ROOT / "src" / "kvcompose").glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, frozenset())
    return loads


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is not in this checkout")
def test_every_traced_name_has_a_program_caller():
    # a traced stage that no program path reaches reads 0 in every benchmark
    # metric named after it, which measures nothing; a load inside the
    # function's own definition is no caller
    loads = program_loads()
    uncalled = {
        f"{module}.{name}"
        for module, names in traced_names().items()
        for name in names
        if not any(n == name and f"{module}.{name}" not in inside for n, inside in loads)
    }
    assert uncalled == set(TRACED_WITHOUT_CALLER)


def test_traced_capture_attributes_keep_their_shapes(gqa_model):
    # perfbench's tracer reads these three arrays off every capture (its score
    # key and capture_bytes), so a rename or a lazy attribute that broke
    # would otherwise surface only under --trace 1
    cfg = gqa_model.config
    ts = TaskSet(mode="task-aware", tasks=((1, 2, 3), (4, 5)))
    cap = collect_attention(gqa_model, list(range(12)), ts)
    assert cap.A.shape == (cfg.layers, cfg.query_heads, 5, 12)
    assert cap.value_norms_raw.shape == (cfg.layers, cfg.kv_heads, 12)
    assert cap.value_norms_proj.shape == (cfg.layers, cfg.query_heads, 12)


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is not in this checkout")
@pytest.mark.parametrize("mode", TASK_MODES)
def test_perfbench_capture_measures_run(gqa_model, mode):
    # the measures perfbench's tracer applies to every capture and score call
    # under --trace 1, run on a capture of each mode: one that breaks on a lazy
    # attribute then fails here, not only in the traced benchmark
    tracing, cfg, context = perfbench_tracing(), gqa_model.config, list(range(12))
    ts = TaskSet.for_context(mode, len(context), ((1, 2, 3), (4, 5)), 4)
    cap = collect_attention(gqa_model, context, ts)
    measured = tracing.MEASURES["scoring.collect_attention"]((gqa_model, context, ts), {}, cap)
    rows = 4 if mode == "task-agnostic" else 5  # the window, or both tasks' tokens
    held = cfg.layers * (cfg.query_heads * rows + cfg.kv_heads + cfg.query_heads) * 12
    assert measured == {"capture_bytes": 8 * held}
    choice = AggregationChoice()
    scores = score_pipeline(cap, cfg.kv_heads, choice)
    (a, raw), keyed = tracing._score_key((cap, cfg.kv_heads, choice), {}, scores)["distinct"]
    assert keyed == choice
    assert a[0] == (cfg.layers, cfg.query_heads, rows, 12)
    assert raw[0] == (cfg.layers, cfg.kv_heads, 12)


def test_bench_records_name_only_benchmarked_metrics():
    # a committed BENCH_<n>.json is a before/after record of perfbench runs:
    # a workload or metric that BENCHMARK.json does not define, another unit,
    # or a median that is not a finite number would compare nothing
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records, "no BENCH_*.json at the repository root"
    for path in records:
        record = json.loads(path.read_text())
        assert record["workloads"] and set(record["workloads"]) <= workloads, path.name
        for workload, entry in record["workloads"].items():
            assert entry["metrics"], (path.name, workload)
            for name, metric in entry["metrics"].items():
                assert units.get(name) == metric["unit"], (path.name, workload, name)
                for side in ("parent", "change"):
                    assert math.isfinite(metric[side]["median"]), (path.name, workload, name, side)


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


PER_DRAW = ("sample", "randint", "uniform")  # SeededRng methods that draw one value a call


def per_draw_calls(source: str) -> list[int]:
    """Lines that call a method named as one of ``PER_DRAW``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in PER_DRAW
    ]


def loop_statements(source: str, function: str) -> list[int]:
    """Lines of the ``for`` and ``while`` statements in ``function``; comprehensions are none."""
    return [
        node.lineno
        for top in ast.walk(ast.parse(source))
        if isinstance(top, ast.FunctionDef) and top.name == function
        for node in ast.walk(top)
        if isinstance(node, (ast.For, ast.While))
    ]


def test_baselines_draw_no_row_at_a_time():
    source = (ROOT / "src" / "kvcompose" / "baselines.py").read_text()
    assert per_draw_calls(source) == []
    assert loop_statements(source, "select_baseline_indices") == []


@pytest.mark.parametrize(
    "source, draws, loops",
    [
        ("def f(rng):\n    return rng.sample(8, 2)", [2], []),
        ("def f(rng, n):\n    for _ in range(n):\n        rng.randint(n)", [3], [2]),
        ("def f(rng):\n    while True:\n        return rng.uniform()", [3], [2]),
        ("def f(rng, n):\n    return rng.uniform_block(n)", [], []),
        ("def f(rows):\n    return [r for r in rows]", [], []),
        ("def g(rows):\n    for r in rows:\n        pass", [], []),
    ],
    ids=[
        "sample", "randint-in-for", "uniform-in-while", "block", "comprehension", "other-function"
    ],
)
def test_per_draw_and_loop_finders(source, draws, loops):
    assert per_draw_calls(source) == draws
    assert loop_statements(source, "f") == loops


def called_names(path: Path) -> list[str]:
    return [
        ast.unparse(node.func)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    ]


def exp_rows_callers(source: str) -> list[str]:
    """The innermost function around each call to ``exp_rows``, bare or as an
    attribute, once per call; ``<module>`` outside every function."""
    callers = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "exp_rows" in (
                getattr(child.func, "attr", None), getattr(child.func, "id", None)
            ):
                callers.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if inner else where)

    visit(ast.parse(source), "<module>")
    return callers


@pytest.mark.parametrize(
    "source, callers",
    [
        ("def collect_attention(s):\n    ex, sums = exp_rows(s)", ["collect_attention"]),
        ("def f(s):\n    def g():\n        return numerics.exp_rows(s)", ["g"]),
        ("def f(s):\n    return [exp_rows(b) for b in s], exp_rows(s)", ["f", "f"]),
        ("weights = exp_rows(scores)", ["<module>"]),
        ("def f(s):\n    return softmax_rows(s, 1.0)", []),
    ],
)
def test_exp_rows_caller_finder(source, callers):
    assert exp_rows_callers(source) == callers


def test_attention_exponentials_only_in_exp_rows():
    # attention weights have one home: _forward and every capture's rebuilt rows
    # and means go through model._block_weights, whose scores, masks and
    # exp_rows call are the pass's, so a capture cannot drift from its bits;
    # softmax_rows, the tests' oracle, is the one other caller
    src = ROOT / "src" / "kvcompose"
    found = {
        name
        for name in ("model.py", "scoring.py", "baselines.py")
        if {"np.exp", "numpy.exp"} & set(called_names(src / name))
    }
    assert found == set()
    callers = sorted(
        (path.name, caller)
        for path in src.glob("*.py")
        for caller in exp_rows_callers(path.read_text())
    )
    assert callers == [("model.py", "_block_weights"), ("numerics.py", "softmax_rows")]


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


def policy_name_literals(source: str) -> list[int]:
    """Lines of ``source`` holding a string literal that names a policy, but for the
    program's name (a ``prog=`` keyword) and a model kind (compared with a ``kind`` key)."""
    tree = ast.parse(source)
    spared = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "prog":
            spared.add(id(node.value))
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any("'kind'" in ast.unparse(side) for side in sides):
                spared.update(map(id, sides))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in POLICY_NAMES and id(node) not in spared
    ]


def test_only_baselines_names_a_policy():
    found = {
        f"{path.name}:{line}"
        for path in (ROOT / "src" / "kvcompose").glob("*.py")
        if path.name != "baselines.py"
        for line in policy_name_literals(path.read_text())
    }
    assert found == set()


@pytest.mark.parametrize(
    "line, names",
    [
        ("if policy.name == 'kvcompose': pass", True),
        ("READS = {'tova': 'head-mean'}", True),
        ("rule = 'pyramid' if deep else 'uniform'", True),
        ("run(policy, 'unstructured')", True),
        ("if model.get('kind') == 'random': pass", False),
        ("if cfg.model['kind'] == 'random': pass", False),
        ("parser = ArgumentParser(prog='kvcompose')", False),
        ("label = 'kvcompose_v2'", False),
    ],
)
def test_policy_name_literal_finder(line, names):
    assert bool(policy_name_literals(line)) == names


def asks_for_attention(node: ast.AST) -> bool:
    """Whether ``node`` calls ``_forward`` with ``attention``, by keyword, as its
    fifth positional argument or through ``**kwargs``."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "attr", getattr(node.func, "id", None))
    keywords = {k.arg for k in node.keywords}
    return name == "_forward" and (len(node.args) > 4 or bool(keywords & {"attention", None}))


@pytest.mark.parametrize(
    "line, asks",
    [
        ("_forward(m, c, t, None, 3)", True),
        ("model._forward(m, c, t, masks, attention=True)", True),
        ("_forward(m, c, t, **kwargs)", True),
        ("_forward(m, c, t, masks)", False),
        ("_forward(m, c, t)", False),
        ("prefill(m, tokens)", False),
    ],
)
def test_attention_request_finder(line, asks):
    assert any(asks_for_attention(node) for node in ast.walk(ast.parse(line))) == asks


def test_only_scoring_asks_to_keep_attention():
    found = {
        f"{path.name}:{node.lineno}"
        for path in (ROOT / "src" / "kvcompose").glob("*.py")
        if path.name not in ("model.py", "scoring.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if asks_for_attention(node)
    }
    assert found == set()


def logit_keeping_passes(source: str) -> list[int]:
    """Lines that call ``_forward`` without passing ``logits=False`` by keyword."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_forward"
        and not any(
            k.arg == "logits" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in node.keywords
        )
    ]


@pytest.mark.parametrize(
    "line, keeps",
    [
        ("_forward(m, c, t, attention=True)", True),
        ("model._forward(m, c, t, logits=True)", True),
        ("_forward(m, c, t, attention=True, logits=False)", False),
        ("prefill(m, tokens)", False),
    ],
)
def test_logit_keeping_pass_finder(line, keeps):
    assert bool(logit_keeping_passes(line)) == keeps


def test_every_capture_pass_skips_its_logits():
    # a capture reads attention rows and means, never logits: a pass that kept
    # them would run the last layer's every block and its output projection
    path = ROOT / "src" / "kvcompose" / "scoring.py"
    assert logit_keeping_passes(path.read_text()) == []
    # the context pass and the task stacks, so the check above sees every pass
    assert called_names(path).count("_forward") == 2


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


FILE_CALLS = (
    "read_text", "read_bytes", "write_text", "write_bytes", "open",
    # numpy's own file readers and writers
    "save", "load", "savez", "savez_compressed", "fromfile", "tofile",
    "loadtxt", "savetxt", "genfromtxt", "memmap",
)


def file_accesses(source: str) -> list[int]:
    """Lines that call a name of ``FILE_CALLS``, as a method or attribute
    (``path.read_text()``, ``np.save(...)``) or bare (the builtin ``open``)."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in FILE_CALLS
    ]


@pytest.mark.parametrize(
    "line, accesses",
    [
        ("text = Path(path).read_text()", True),
        ("(out / 'config.json').write_text(echo)", True),
        ("path.write_bytes(data)", True),
        ("with open(path, 'rb') as f:\n    pass", True),
        ("np.save(path, a)", True),
        ("a = np.load(path)", True),
        ("np.savez_compressed(path, a=a)", True),
        ("a = np.fromfile(path, dtype='<f4')", True),
        ("a.tofile(path)", True),
        ("np.savetxt(path, a)", True),
        ("a = np.memmap(path, mode='r')", True),
        ("a = np.frombuffer(data, dtype='<f4')", False),
        ("data = a.tobytes()", False),
        ("data = cache_io.read_file(path, 'config')", False),
        ("cache_io.write_file(path, text, 'report')", False),
    ],
)
def test_file_access_finder(line, accesses):
    assert bool(file_accesses(line)) == accesses


def test_only_cache_io_touches_files():
    found = {
        f"{path.name}:{line}"
        for path in (ROOT / "src" / "kvcompose").glob("*.py")
        if path.name != "cache_io.py"
        for line in file_accesses(path.read_text())
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
    model = construct_induction_model(num_pairs=2, vocab=8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.wo = model.wo * 2


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


def compares_policy_name(node: ast.AST) -> bool:
    """Whether ``node`` compares a ``.name`` attribute to a policy name, or to
    a tuple, list or set of policy names, on either side."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]

    def names_policies(side: ast.AST) -> bool:
        items = side.elts if isinstance(side, (ast.Tuple, ast.List, ast.Set)) else [side]
        return bool(items) and all(
            isinstance(item, ast.Constant) and item.value in POLICY_NAMES for item in items
        )

    return any(isinstance(side, ast.Attribute) and side.attr == "name" for side in sides) and any(
        names_policies(side) for side in sides
    )


def policy_name_comparers(source: str) -> set[str]:
    """The top-level functions and methods (``Class.method``) of ``source``
    that compare a policy's name."""
    tree = ast.parse(source)
    functions = [
        (f"{top.name}.{fn.name}" if isinstance(top, ast.ClassDef) else fn.name, fn)
        for top in tree.body
        for fn in (top.body if isinstance(top, ast.ClassDef) else [top])
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return {name for name, fn in functions if any(map(compares_policy_name, ast.walk(fn)))}


def test_only_policy_dispatchers_compare_policy_names():
    found = {
        name
        for path in (ROOT / "src" / "kvcompose").glob("*.py")
        for name in policy_name_comparers(path.read_text())
    }
    assert found == {"select_baseline_indices"}


@pytest.mark.parametrize(
    "line, compares",
    [
        ("policy.name == 'tova'", True),
        ("self.name in ('kvcompose', 'unstructured')", True),
        ("'random' != cfg.eviction.name", True),
        ("p.name not in ['snapkv', 'pyramid']", True),
        ("self.name not in POLICY_NAMES", False),
        ("f.name == 'vocab_size'", False),
        ("policy.window == 4", False),
        ("label = f'policy {policy.name}'", False),
    ],
)
def test_policy_name_comparison_finder(line, compares):
    assert any(compares_policy_name(node) for node in ast.walk(ast.parse(line))) == compares


DEEP_COPIES = ("asdict", "astuple", "deepcopy")


def deep_copiers(source: str) -> set[str]:
    """``scope:callee`` for each call of ``asdict``, ``astuple`` or ``deepcopy``,
    bare or through its module, in a top-level statement of ``source`` (a
    class's methods as ``Class.method``)."""
    scopes = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            scopes += [(f"{top.name}.{getattr(s, 'name', s.lineno)}", s) for s in top.body]
        else:
            scopes.append((getattr(top, "name", f"line {top.lineno}"), top))
    return {
        f"{name}:{callee}"
        for name, scope in scopes
        for node in ast.walk(scope)
        if isinstance(node, ast.Call)
        and (callee := getattr(node.func, "attr", getattr(node.func, "id", None))) in DEEP_COPIES
    }


def test_only_the_config_echo_deep_copies():
    found = {
        f"{path.name}:{name}"
        for path in (ROOT / "src" / "kvcompose").glob("*.py")
        for name in deep_copiers(path.read_text())
    }
    assert found == {"cli.py:RunConfig.resolved:asdict"}


@pytest.mark.parametrize(
    "source, found",
    [
        ("x = dataclasses.asdict(r)", {"line 1:asdict"}),
        ("def f(p):\n    return astuple(p)", {"f:astuple"}),
        ("class C:\n    def g(self):\n        return copy.deepcopy(self)", {"C.g:deepcopy"}),
        ("json.dumps(report, default=vars)", set()),
        ("rows = (vars(p).values() for p in points)", set()),
    ],
)
def test_deep_copy_finder(source, found):
    assert deep_copiers(source) == found


# function arguments read only inside guards, each with why the function takes it
CHECKED_ONLY = {
    "model.construct_induction_model.num_pairs": (
        "a recall config's pair count, checked against the model's 128 positions and its "
        "vocabulary; the model serves any count up to that"
    ),
}


def is_guard(node: ast.AST) -> bool:
    """An ``if`` whose body only raises (and whose ``elif`` or ``else``, if any,
    does too), or a ``for`` whose body holds only such ifs."""
    if isinstance(node, ast.If):
        return all(isinstance(s, ast.Raise) for s in node.body) and all(
            isinstance(s, ast.Raise) or is_guard(s) for s in node.orelse
        )
    return (
        isinstance(node, ast.For)
        and not node.orelse
        and all(isinstance(s, ast.If) and is_guard(s) for s in node.body)
    )


def checked_only_arguments(source: str) -> set[str]:
    """``function.argument`` (``Class.method.argument`` for a method) for each
    argument of a function in ``source`` that is read, and only inside guards.
    ``check_*`` and ``_check_*`` functions, whose job is to check, and a
    method's ``self`` or ``cls`` are skipped."""
    found = set()

    def visit(node, prefix):
        for fn in ast.iter_child_nodes(node):
            if isinstance(fn, ast.ClassDef):
                visit(fn, f"{prefix}{fn.name}.")
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = f"{prefix}{fn.name}"
            visit(fn, f"{name}.")
            if fn.name.startswith(("check_", "_check_")):
                continue
            body = [n for stmt in fn.body for n in ast.walk(stmt)]
            guarded = {id(n) for guard in body if is_guard(guard) for n in ast.walk(guard)}
            for arg in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs):
                reads = [
                    n for n in body
                    if isinstance(n, ast.Name) and n.id == arg.arg and isinstance(n.ctx, ast.Load)
                ]
                if arg.arg not in ("self", "cls") and reads and all(id(n) in guarded for n in reads):
                    found.add(f"{name}.{arg.arg}")

    visit(ast.parse(source), "")
    return found


def test_no_function_takes_an_argument_it_only_checks():
    # a caller that already guarantees what such an argument is checked for
    # passes it for nothing; the checks belong where the value is made
    found = {
        f"{path.stem}.{name}"
        for path in (ROOT / "src" / "kvcompose").glob("*.py")
        for name in checked_only_arguments(path.read_text())
    }
    assert found == set(CHECKED_ONLY)


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f(a, b):\n    if a > b:\n        raise ValueError(a)\n    return b", {"f.a"}),
        (
            "def f(rows, n):\n    for r in rows:\n        if r > n:\n"
            "            raise ValueError(r)\n        elif r < 0:\n"
            "            raise ValueError(r)\n    return n",
            {"f.rows"},
        ),
        ("class C:\n    def g(self, a):\n        if a:\n            raise E\n", {"C.g.a"}),
        ("def f(a, b):\n    if a > b:\n        raise ValueError(a)\n    return a + b", set()),
        ("def f(a):\n    if a:\n        raise E\n    else:\n        return 1", set()),
        ("def f(a):\n    for x in a:\n        print(x)\n    if a:\n        raise E", set()),
        ("def check_f(a, b):\n    if a > b:\n        raise ValueError(a)\n    return b", set()),
        ("def _check_f(a):\n    if a < 0:\n        raise ValueError(a)", set()),
        ("def f(a, unused):\n    return a", set()),
    ],
)
def test_checked_only_argument_finder(source, found):
    assert checked_only_arguments(source) == found


# exception classes no ``except`` clause names, each with how they are told apart
UNHANDLED_ERRORS: dict[str, str] = {}


def exception_classes(sources: dict[str, str]) -> set[str]:
    """``module.Class`` for each class in ``sources`` (module -> source) that
    derives from a built-in exception, directly or through classes defined there."""
    bases = {
        (module, node.name): {getattr(b, "attr", getattr(b, "id", None)) for b in node.bases}
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }
    errors = {
        name for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    found, size = set(), -1
    while len(found) != size:
        size = len(found)
        for (module, name), named in bases.items():
            if named & errors:
                found.add(f"{module}.{name}")
                errors.add(name)
    return found


def handled_names(source: str) -> set[str]:
    """The class names the ``except`` clauses of ``source`` catch, bare or through a module."""
    return {
        getattr(t, "attr", getattr(t, "id", None))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        for t in (node.type.elts if isinstance(node.type, ast.Tuple) else [node.type])
    }


def test_some_handler_tells_every_error_type_apart():
    # a class no handler names is told apart from its base by nothing that runs
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "kvcompose").glob("*.py")}
    handled = set().union(*map(handled_names, sources.values()))
    found = {c for c in exception_classes(sources) if c.rsplit(".", 1)[1] not in handled}
    assert found == set(UNHANDLED_ERRORS)


@pytest.mark.parametrize(
    "sources, found",
    [
        ({"m": "class E(Exception):\n    pass"}, {"m.E"}),
        ({"m": "class E(ValueError):\n    pass\nclass F(E):\n    pass"}, {"m.E", "m.F"}),
        ({"a": "class A(Exception):\n    pass", "b": "class B(a.A):\n    pass"}, {"a.A", "b.B"}),
        ({"m": "class F(E):\n    pass\nclass E(KeyError):\n    pass"}, {"m.E", "m.F"}),
        ({"m": "class C:\n    pass\nclass D(C):\n    pass"}, set()),
        ({"m": "@dataclass\nclass P(Base):\n    x: int"}, set()),
    ],
)
def test_exception_class_finder(sources, found):
    assert exception_classes(sources) == found


@pytest.mark.parametrize(
    "source, handled",
    [
        ("try:\n    f()\nexcept ValueError:\n    pass", {"ValueError"}),
        ("try:\n    f()\nexcept (cache_io.IoError, OSError) as e:\n    pass", {"IoError", "OSError"}),
        ("try:\n    f()\nexcept:\n    pass", set()),
        ("raise ConfigError('bad')", set()),
        ("ok = isinstance(exc, UsageError)", set()),
    ],
)
def test_handled_name_finder(source, handled):
    assert handled_names(source) == handled
