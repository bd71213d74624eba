"""kvcompose benchmark: one workload per process, one caller, closed loop.

    python3 perfbench/run.py --workload compress-long --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` times ops with nothing wrapped and reports the end-to-end
metrics, with times calibrated to a fixed reference kernel (see
calibrate.py) and raw wall times printed beside them. ``--trace 1`` wraps kvcompose's public functions, runs a fixed
number of ops alternately traced and untraced (so counts repeat exactly
and the untraced half gives the tracing overhead), and reports per-layer
metrics. ``--workload all`` runs every workload both ways, each in its own
process, and compares their output digests. Human-readable lines come
first; the last stdout line is one JSON object. Each run's record (and
the spans of a traced run) goes to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import tracing
from stats import Check, Outcome, count_failures, median, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("compress-long", "sweep-agreement", "ablate-recall")
CHILD_TIMEOUT_S = 170
# One caller on one thread: BLAS threads contend with the caller and with
# neighbours on small shared machines, which made timings both slower and
# noisier. A caller may still set these variables; the record shows them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# End-to-end metrics every workload reports: summary key -> unit.
END_TO_END = {"op_ms_p50": "ms", "items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def _import_program():
    """Import kvcompose from this checkout's src/, refusing any other copy."""
    if not (SRC / "kvcompose" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kvcompose sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import kvcompose

    if Path(kvcompose.__file__).resolve().parent != (SRC / "kvcompose").resolve():
        sys.exit(f"perfbench: imported kvcompose from {kvcompose.__file__}, not {SRC}")


def _blas_info() -> dict:
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    for var in BLAS_THREAD_VARS:
        info[var] = os.environ.get(var, "unset")
    threads = "unknown"
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*.so*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    info["blas_threads"] = threads
    return info


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int, warmup_ops: int) -> dict:
    import numpy as np

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "kvcompose").glob("*.py"))
    )
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas_info(),
        "src_lines": src_lines,
        "seed": seed,
        "warmup_ops": warmup_ops,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class _Timer:
    """Runs ops and set-ups, timing each raw and calibrated to the reference
    kernel, which it re-times after every call and, when ``split``, between
    an op's segments."""

    def __init__(self, workload, seed: int, work: Path, split: bool = True):
        import calibrate

        self.workload, self.seed, self.work, self.split = workload, seed, work, split
        self.ref = calibrate.Reference(workload.reference)

    def setup(self):
        """(state, raw s, calibrated s) of one set-up."""
        before = self.ref.last_ns
        t0 = perf_counter_ns()
        state = self.workload.setup(self.seed, self.work)
        raw = perf_counter_ns() - t0
        return state, raw / 1e9, self.ref.calibrated(raw, before, self.ref.measure()) / 1e9

    def op(self, state, i):
        """(result, outcome, calibrated ns); an op that raises is a failed
        outcome with no result, and measuring goes on."""
        refs = [self.ref.last_ns]
        between = (lambda: refs.append(self.ref.measure())) if self.split else (lambda: None)
        try:
            res = self.workload.run_op(state, i, between)
        except Exception as exc:  # the op failed; count it and keep measuring
            self.ref.measure()
            return None, Outcome(error=f"{type(exc).__name__}: {exc}"), None
        refs.append(self.ref.measure())
        segments = res.segments_ns if self.split else [res.elapsed_ns]
        cal = self.ref.calibrated_segments(segments, refs)
        return res, Outcome(checks=list(res.checks)), cal


def _determinism(res, outcome, seen: dict) -> None:
    """Adds a check that this op's output digest equals earlier ops on the same input."""
    first = seen.setdefault(res.key, res.digest)
    outcome.checks.append(Check("determinism", first == res.digest, detail=res.key))


def _print_checks(fc, setup_checks) -> None:
    for c in setup_checks:
        print(f"check setup.{c.name} {'PASS' if c.ok else 'FAIL'} {c.detail}")
    for name, (bad, seen, known) in sorted(fc.by_check.items()):
        verdict = "PASS" if bad == 0 else "FAIL"
        note = " (known defect: counted as failed ops)" if known and bad else ""
        print(f"check {name} {verdict} {bad}/{seen} ops failed{note}")


def _print_digests(seen: dict) -> None:
    for key, digest in sorted(seen.items()):
        print(f"digest {key} {digest}")


def _warm_up(timer, state, seen: dict) -> None:
    """Runs the discarded warm-up ops; their digests still anchor determinism."""
    for i in range(timer.workload.warmup_ops):
        res, _, _ = timer.op(state, i)
        if res is not None:
            seen.setdefault(res.key, res.digest)


def measured_ops(workload, seconds: float) -> int:
    """Ops in an untraced run: as many as fill ``seconds`` at the workload's
    typical op time, and at least one. The count depends only on the
    arguments, so the ops, and which of them fail, repeat exactly for a
    seed."""
    return max(1, round(seconds / workload.op_s))


def measure(workload, seed: int, seconds: float, work: Path) -> dict:
    """Untraced run: set-up, the warm-up ops, then a closed loop of
    ``measured_ops`` ops, which take about ``seconds`` at the workload's
    typical op time.

    Set-up is timed several times, some of them between ops, so that its
    median samples the machine across the whole run. The gated metrics use
    calibrated times; raw times are printed beside them.
    """
    timer = _Timer(workload, seed, work)
    setup_raw, setup_cal = [], []

    def timed_setup():
        fresh, raw, cal = timer.setup()
        setup_raw.append(raw)
        setup_cal.append(cal)
        return fresh

    state = timed_setup()
    for _ in range(workload.setup_repeats - 1):
        timed_setup()

    seen: dict[str, str] = {}
    _warm_up(timer, state, seen)
    i = workload.warmup_ops

    results, cal_ms, outcomes = [], [], []
    start = perf_counter()
    setup_in_loop = 0.0
    for _ in range(measured_ops(workload, seconds)):
        res, outcome, cal = timer.op(state, i)
        if res is not None:
            _determinism(res, outcome, seen)
            results.append(res)
            cal_ms.append(cal / 1e6)
        outcomes.append(outcome)
        i += 1
        if len(outcomes) % workload.setup_every == 0:
            t0 = perf_counter()
            timed_setup()
            setup_in_loop += perf_counter() - t0
    window_s = perf_counter() - start - setup_in_loop

    fc = count_failures(outcomes)
    raw_ms = [r.elapsed_ns / 1e6 for r in results]
    items = sum(r.items for r in results)
    qualities = [r.quality for r in results if r.quality]
    nan = float("nan")
    summary = {
        "setup_s": median(setup_cal),
        "setup_raw_s": median(setup_raw),
        "op_ms_p50": median(cal_ms) if cal_ms else nan,
        "op_raw_ms_p50": median(raw_ms) if raw_ms else nan,
        "items_per_s": 1e3 * items / sum(cal_ms) if cal_ms else nan,
        "items_raw_per_s": 1e3 * items / sum(raw_ms) if raw_ms else nan,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": fc.attempted,
        "failed": fc.failed,
        "failed_frac": fc.failed_frac,
        "unexpected_failures": fc.unexpected,
        "auc_mean": median([q["auc_mean"] for q in qualities]) if qualities else None,
        "kl_mean": median([q["kl_mean"] for q in qualities]) if qualities else None,
        "op_ms": cal_ms,
        "op_raw_ms": raw_ms,
        "setup_samples_s": setup_cal,
        "setup_raw_samples_s": setup_raw,
        "reference_ms_p50": median(timer.ref.samples_ns) / 1e6,
        "reference": timer.ref.kind,
        "reference_nominal_ms": timer.ref.nominal_ns / 1e6,
        "digests": seen,
    }
    w = workload
    print(f"workload {w.name}: {w.why}")
    print(
        f"loop closed, 1 caller, seed {seed}, {len(outcomes)} ops (sized from --seconds) measured over "
        f"{window_s:.1f} s after {w.warmup_ops} discarded warm-up op(s)"
    )
    print(
        f"times are calibrated to the {timer.ref.kind} reference kernel "
        f"(median {summary['reference_ms_p50']:.3f} ms "
        f"here, nominal {summary['reference_nominal_ms']:.0f} ms); raw wall times in brackets"
    )
    print(
        f"metric setup_s = {summary['setup_s']:.6f} s [{summary['setup_raw_s']:.6f}] "
        f"(median of {len(setup_cal)} set-ups)"
    )
    print(
        f"metric {w.latency}_p50 = {summary['op_ms_p50']:.4f} ms "
        f"[{summary['op_raw_ms_p50']:.4f}] (n={len(raw_ms)})"
    )
    tail, raw_tail = tail_percentile(cal_ms), tail_percentile(raw_ms)
    if tail:
        print(
            f"metric {w.latency}_tail = {tail[1]:.4f} ms [{raw_tail[1]:.4f}] "
            f"(p{tail[0]:.1f} of n={len(cal_ms)}, 10 samples beyond it)"
        )
    else:
        print(f"metric {w.latency}_tail = n/a (n={len(cal_ms)}; no percentile has 10 samples beyond it)")
    summary["op_ms_tail"] = tail
    print(
        f"metric {w.item}_per_s = {summary['items_per_s']:.6g} 1/s "
        f"[{summary['items_raw_per_s']:.6g}]"
    )
    print(f"metric peak_rss_mb = {summary['peak_rss_mb']:.1f} MB")
    if qualities:
        print(f"metric auc_mean = {summary['auc_mean']!r} (higher is better)")
        print(f"metric kl_mean = {summary['kl_mean']!r} (lower is better)")
    print(f"metric failed_frac = {fc.failed_frac:.4f} ({fc.failed} failed / {fc.attempted} attempted)")
    _print_checks(fc, state.setup_checks)
    _print_digests(seen)
    summary["correct"] = fc.unexpected == 0 and all(c.ok for c in state.setup_checks)
    return summary


def measure_traced(workload, seed: int, work: Path, spans_path: Path) -> dict:
    """Traced run: traced set-up, then a fixed number of op pairs, each pair
    running the same input once traced and once untraced, in alternating
    order, so counts repeat exactly and the pairs give the tracing overhead."""
    # Unsplit: a reference kernel timed inside a traced call (ablate-recall
    # cuts cli.main) would count as that call's self time.
    timer = _Timer(workload, seed, work, split=False)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "setup"
    state, setup_raw, _ = timer.setup()
    tracer.op = "warmup"
    seen: dict[str, str] = {}
    _warm_up(timer, state, seen)
    i = workload.warmup_ops

    traced_ms, plain_ms, outcomes, results = [], [], [], []
    for j in range(workload.trace_ops):
        tracer.op = j
        pair = {}
        for traced in ((True, False) if j % 2 == 0 else (False, True)):
            (tracer.install if traced else tracer.uninstall)()
            pair[traced] = timer.op(state, i)
        tracer.uninstall()
        (res_t, out_t, cal_t), (res_u, out_u, cal_u) = pair[True], pair[False]
        for res, outcome in ((res_t, out_t), (res_u, out_u)):
            if res is not None:
                _determinism(res, outcome, seen)
            outcomes.append(outcome)
        if res_t is not None and res_u is not None:
            out_t.checks.append(Check("traced_equals_untraced", res_t.digest == res_u.digest))
            traced_ms.append(cal_t / 1e6)
            plain_ms.append(cal_u / 1e6)
            results.append(res_t)
        i += 1
    tracer.write(spans_path)

    ops = set(range(workload.trace_ops))
    layer = tracing.layer_metrics(
        tracer,
        ops,
        "setup",
        points=sum(r.items for r in results) if workload.item == "points" else 0,
        input_rows=sum(r.input_rows for r in results),
    )
    overhead = (
        100.0 * (median([t / u for t, u in zip(traced_ms, plain_ms)]) - 1.0)
        if traced_ms
        else float("nan")
    )
    layer["trace.overhead_pct"] = (overhead, "%")
    fc = count_failures(outcomes)
    w = workload
    print(f"workload {w.name} (traced): {w.why}")
    print(
        f"{len(traced_ms)} op pairs (traced + untraced) after {w.warmup_ops} discarded "
        f"warm-up op(s); traced set-up {setup_raw:.4f} s; spans: {len(tracer.names)} in {spans_path}"
    )
    if traced_ms:
        print(
            f"tracing overhead: {w.latency}_p50 traced {median(traced_ms):.4f} ms vs untraced "
            f"{median(plain_ms):.4f} ms (calibrated); median paired ratio {overhead:+.2f} %"
        )
    _print_prefill_sizes(tracer, ops)
    for name, (value, unit) in sorted(layer.items()):
        print(f"layer {name} = {value:.9g} {unit}")
    _print_checks(fc, state.setup_checks)
    _print_digests(seen)
    return {
        "layer": layer,
        "attempted": fc.attempted,
        "failed": fc.failed,
        "unexpected_failures": fc.unexpected,
        "correct": fc.unexpected == 0 and all(c.ok for c in state.setup_checks),
        "digests": seen,
        "traced_ms": traced_ms,
        "untraced_ms": plain_ms,
    }


def _print_prefill_sizes(tracer, ops) -> None:
    """Median prefill time per input length (raw wall time), for comparison
    with earlier baselines."""
    by_rows: dict[int, list[float]] = {}
    for idx, name in enumerate(tracer.names):
        if name == "model.prefill" and tracer.ops[idx] in ops | {"setup"}:
            rows = tracer.attrs[idx]["rows"]
            by_rows.setdefault(rows, []).append((tracer.ends[idx] - tracer.starts[idx]) / 1e6)
    for rows, ms in sorted(by_rows.items()):
        print(f"prefill N={rows}: p50 {median(ms):.3f} ms over {len(ms)} calls")


def run_one(args) -> int:
    _import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.seed, workload.warmup_ops)
    print("env " + json.dumps(env, sort_keys=True))
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = OUT / "work" / stem
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            summary = measure_traced(workload, args.seed, work, results_dir / f"{stem}.spans.jsonl.gz")
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in summary["layer"].items()}
            metrics = {k: metrics[k] for k in tracing.record_metric_names()}
        else:
            summary = measure(workload, args.seed, args.seconds, work)
            metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": args.workload, "trace": args.trace, "env": env, "summary": summary}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(
        json.dumps(
            {
                "correct": bool(summary["correct"]),
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined = {}
    exit_code = 0
    for name in WORKLOAD_NAMES:
        digests = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            print(f"=== {name} trace={trace}", flush=True)
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                exit_code = 1
                continue
            combined[f"{name}/trace{trace}"] = json.loads(lines[-1])
            digests[trace] = dict(l.split()[1:3] for l in lines if l.startswith("digest "))
        common = set(digests.get(0, {})) & set(digests.get(1, {}))
        same = bool(common) and all(digests[0][k] == digests[1][k] for k in common)
        print(f"check {name}.digest_untraced_equals_traced {'PASS' if same else 'FAIL'}")
        exit_code |= 0 if same else 1
    print(json.dumps(combined))
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
