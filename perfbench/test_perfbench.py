"""Tests of the benchmark's own arithmetic, on synthetic samples and spans.

    python3 -m pytest -q perfbench
"""
import types

import pytest

import tracing
from stats import Check, Outcome, count_failures, tail_percentile


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(11))) == (100.0 / 11, 0)


def test_tail_is_highest_qualifying_percentile():
    samples = [float(v) for v in range(100, 0, -1)]  # unsorted input
    pct, value = tail_percentile(samples)
    assert pct == 90.0
    assert value == 90.0
    assert sum(s > value for s in samples) == 10


def test_tail_of_two_hundred_samples_is_p95():
    pct, value = tail_percentile([float(v) for v in range(1, 201)])
    assert (pct, value) == (95.0, 190.0)


def test_self_time_subtracts_nested_children():
    # root [0, 100) > a [10, 40) > b [15, 25);  root > c [50, 90)
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [30, 20, 10, 40]


def test_self_time_counts_overlapping_children_once():
    starts = [0, 10, 20, 95]
    ends = [100, 30, 40, 120]  # children overlap; the last runs past its parent
    parents = [-1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == 100 - 30 - 5


def _synthetic_tracer():
    t = tracing.Tracer()
    # op 0: compress [0, 1000) > prefill [100, 600) > softmax [200, 300)
    # setup: prefill [0, 50); warm-up spans are ignored
    rows = [
        ("composer.compress", 0, 1000, -1, 0, None),
        ("model.prefill", 100, 600, 0, 0, {"rows": 8, "attn_bytes": 64}),
        ("numerics.softmax_rows", 200, 300, 1, 0, None),
        ("model.prefill", 0, 50, -1, "setup", {"rows": 4, "attn_bytes": 16}),
        ("model.prefill", 0, 5000, -1, "warmup", {"rows": 99, "attn_bytes": 99}),
    ]
    for i, (name, s, e, p, op, attrs) in enumerate(rows):
        t.names.append(name)
        t.starts.append(s)
        t.ends.append(e)
        t.parents.append(p)
        t.ops.append(op)
        if attrs:
            t.attrs[i] = attrs
    return t


def test_layer_metrics_from_synthetic_spans():
    m = tracing.layer_metrics(_synthetic_tracer(), {0}, "setup", points=0, input_rows=4)
    assert m["model.prefill.calls"] == (2, "count")
    assert m["model.prefill.busy_s"][0] == pytest.approx(550e-9)
    assert m["model.prefill.self_s"][0] == pytest.approx(450e-9)
    assert m["composer.compress.self_s"][0] == pytest.approx(500e-9)
    assert m["model.prefill.rows"][0] == 12
    assert m["model.prefill.rows_per_input_row"][0] == 2.0  # ops only: 8 rows / 4
    assert m["cli.main.calls"] == (0, "count")


def test_failures_count_ops_not_checks():
    outcomes = [
        Outcome([Check("a", True), Check("b", True)]),
        Outcome([Check("a", False), Check("b", False)]),
        Outcome([Check("a", True), Check("known", False, known_defect=True)]),
        Outcome(error="ValueError: boom"),
    ]
    fc = count_failures(outcomes)
    assert (fc.attempted, fc.failed, fc.unexpected) == (4, 3, 2)
    assert fc.failed_frac == 0.75
    assert fc.by_check["a"] == (1, 3, False)
    assert fc.by_check["known"] == (1, 1, True)
    assert fc.by_check["raised"] == (1, 4, False)


def test_install_wraps_every_binding_and_uninstall_restores(monkeypatch):
    import sys

    def prefill(tokens):
        return len(tokens)

    home = types.ModuleType("fakepkg.model")
    home.prefill = prefill
    user = types.ModuleType("fakepkg.scoring")
    user.prefill = prefill
    user.run = lambda tokens: user.prefill(tokens)
    pkg = types.ModuleType("fakepkg")
    for name, mod in (("fakepkg", pkg), ("fakepkg.model", home), ("fakepkg.scoring", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    monkeypatch.setattr(tracing, "TRACED", {"model": ("prefill",)})
    monkeypatch.setattr(tracing, "MEASURES", {})

    t = tracing.Tracer(package="fakepkg")
    t.install()
    t.op = 7
    assert user.run([1, 2]) == 2
    assert home.prefill is not prefill and user.prefill is not prefill
    t.uninstall()
    assert home.prefill is prefill and user.prefill is prefill
    user.run([1])
    assert t.names == ["model.prefill"] and t.ops == [7] and t.parents == [-1]


def test_benchmark_file_lists_what_the_runs_report():
    import json
    from pathlib import Path

    import run

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END
    units = tracing.layer_metrics(tracing.Tracer(), {0}, "setup", points=0, input_rows=0)
    units["trace.overhead_pct"] = (0.0, "%")
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert per_layer == [(n, units[n][1]) for n in tracing.record_metric_names()]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


def test_run_length_is_fixed_by_seconds():
    import run

    w = types.SimpleNamespace(op_s=0.85)
    assert [run.measured_ops(w, s) for s in (0.1, 1, 25, 60)] == [1, 1, 29, 71]
    w = types.SimpleNamespace(op_s=5.0)
    assert [run.measured_ops(w, s) for s in (1, 25)] == [1, 5]


def test_each_segment_is_scaled_by_the_kernel_times_around_it():
    import calibrate

    ref = types.SimpleNamespace(nominal_ns=40)
    scale = calibrate.Reference.calibrated_segments
    # kernel at nominal speed, then twice as slow, then nominal again
    assert scale(ref, [100, 300], [40, 80, 40]) == pytest.approx(100 * 40 / 60 + 300 * 40 / 60)
    assert scale(ref, [100], [20, 20]) == 200
    with pytest.raises(ValueError):
        scale(ref, [100, 100], [40, 40])


def test_ablate_progress_lines_cut_the_call_into_segments(monkeypatch):
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    cuts = []
    clock = workloads._ArmClock(lambda: cuts.append(len(clock.segments)))
    for k in range(workloads.ABLATE_ARMS):
        print(f"ablate arm=arm{k} auc=1.0 report=arm{k}/report.json", file=clock)
        clock.write("unrelated line\n")
    print(f"ablate configs={workloads.ABLATE_ARMS} combined=combined.csv", file=clock)
    # a cut after every 8th arm but the last: 5 cuts, 6 segments with the tail
    assert cuts == [1, 2, 3, 4, 5]
    assert "ablate configs=" in clock.getvalue()


def test_score_calls_are_told_apart_by_task_and_choice():
    import numpy as np

    def cap(a, norms=np.ones((2, 1, 48))):
        return types.SimpleNamespace(A=a, value_norms_raw=norms)

    one_hot = np.zeros((2, 2, 48, 1))
    one_hot[:, :, 5] = 1.0
    moved = np.zeros((2, 2, 48, 1))
    moved[:, :, 7] = 1.0  # same sum as one_hot, different task
    other_context = np.full((2, 1, 48), 2.0)
    keys = {
        tracing._score_key((c, 1, choice), {}, None)["distinct"]
        for c in (cap(one_hot), cap(moved), cap(one_hot.copy()), cap(one_hot, other_context))
        for choice in ("x", "y")
    }
    assert len(keys) == 6


def test_importing_the_runner_leaves_numpy_unloaded():
    """BLAS thread variables only take effect if set before numpy loads."""
    import subprocess
    import sys
    from pathlib import Path

    here = str(Path(__file__).resolve().parent)
    code = f"import sys; sys.path.insert(0, {here!r}); import run; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "False", done.stderr
