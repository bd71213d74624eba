"""The output ledger: the SHA-256 of every file the CLI writes on the demo configs.

``generate(root)`` runs 62 CLI commands in process, with ``root`` as the
working directory and every path relative to it, so no output embeds
where it ran. On each of ``configs/demo_agreement.json`` and
``configs/demo_recall.json`` it runs:

- ``sweep`` for each of the 7 policies, and for ``random`` with
  ``--seed-override 5`` as well, which reseeds its draws and the tasks;
- ``compress`` for the 6 cache policies at r = 0, 0.5 and 0.9, on a fixed
  context (task-aware on the recall config, with tasks of lengths 1, 3, 1
  and 5, so that equal-length tasks share a pass);
- ``ablate`` with ``kvcompose`` and with ``unstructured``;
- ``dump-scores``.

On ``configs/demo_agreement.json`` it also runs ``compress`` for
``kvcompose`` and ``snapkv`` at r = 0.5 and 0.9 on a 504-token context
(task-agnostic, window 32), where row blocks and numpy's pairwise sums
split differently than at 128 tokens.

Each command's exit code, stdout and stderr are hashed too. The ledger
also records the numpy version and the machine it was made on, since
another BLAS build can move float bits. ``tests/test_ledger.py`` checks
the current tree against it. After a change that is meant to move an
output, rewrite it with

    PYTHONPATH=src python tests/ledger.py

and list the moved values in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from kvcompose.baselines import POLICY_NAMES
from kvcompose.cli import main

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "golden" / "outputs.json"
RATIOS = (0.0, 0.5, 0.9)
CACHE_POLICIES = tuple(p for p in POLICY_NAMES if p != "unstructured")
ABLATE_POLICIES = ("kvcompose", "unstructured")
# compress inputs: a pseudo-random context within the random model's vocabulary,
# and two recall prompts of demo_recall.json's model with four tasks after them
CONTEXTS = {
    "demo_agreement": [(37 * i * i + 11 * i + 5) % 64 for i in range(128)],
    "demo_recall": [
        7, 17, 10, 25, 2, 27, 11, 28, 14, 30, 12, 16, 4, 22, 1, 24,
        7, 25, 3, 26, 14, 31, 12, 23, 9, 29, 10, 24, 11, 28, 1, 24,
    ],
}
TASK_TOKENS = {"demo_recall": [[1], [7, 17, 1], [14], [2, 27, 11, 28, 4]]}
# a long compress input, 8 rows short of demo_agreement.json's model's 512 positions
LONG_CONTEXT = [(37 * i * i + 11 * i + 5 + i // 64) % 64 for i in range(504)]
LONG_POLICIES = ("kvcompose", "snapkv")
LONG_RATIOS = (0.5, 0.9)


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine(), "system": platform.system()}


def _commands(root: Path) -> list[tuple[str, list[str]]]:
    """Each run's name and argv, after writing the configs and contexts it reads."""
    runs = []
    for name in CONTEXTS:
        base = json.loads((ROOT / "configs" / f"{name}.json").read_text())

        def config(run: str, **overrides) -> str:
            path = Path("inputs") / f"{run.replace('/', '_')}.json"
            (root / path).write_text(json.dumps({**base, **overrides}))
            return str(path)

        context = Path("inputs") / f"{name}_context.txt"
        (root / context).write_text(" ".join(map(str, CONTEXTS[name])) + "\n")
        scoring = base.get("scoring", {})
        if name in TASK_TOKENS:
            scoring = {**scoring, "task_tokens": TASK_TOKENS[name]}
        for policy in POLICY_NAMES:
            run = f"{name}/sweep/{policy}"
            runs.append((run, ["sweep", "--config", config(run, policy={"name": policy})]))
        run = f"{name}/sweep-seed-override/random"
        cfg = config(run, policy={"name": "random"})
        runs.append((run, ["sweep", "--config", cfg, "--seed-override", "5"]))
        for policy in CACHE_POLICIES:
            for r in RATIOS:
                run = f"{name}/compress/{policy}_r{r}"
                cfg = config(run, policy={"name": policy}, scoring=scoring, r_target=r)
                runs.append((run, ["compress", "--config", cfg, "--context", str(context)]))
        for policy in ABLATE_POLICIES:
            run = f"{name}/ablate/{policy}"
            runs.append((run, ["ablate", "--config", config(run, policy={"name": policy})]))
        run = f"{name}/dump-scores"
        runs.append((run, ["dump-scores", "--config", config(run)]))
        if name == "demo_agreement":
            long = Path("inputs") / f"{name}_long_context.txt"
            (root / long).write_text(" ".join(map(str, LONG_CONTEXT)) + "\n")
            for policy in LONG_POLICIES:
                for r in LONG_RATIOS:
                    run = f"{name}/compress-long/{policy}_r{r}"
                    cfg = config(run, policy={"name": policy}, r_target=r)
                    runs.append((run, ["compress", "--config", cfg, "--context", str(long)]))
    return [(run, argv + ["--out", f"out/{run}"]) for run, argv in runs]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def generate(root: Path) -> dict[str, str]:
    """Run every command under ``root`` and return relative path -> SHA-256 for
    each file written, plus ``<run>/console`` for each run's exit code and streams."""
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    digests = {}
    before = os.getcwd()
    os.chdir(root)
    try:
        for run, argv in _commands(root):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            console = f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
            digests[f"out/{run}/console"] = _sha256(console.encode())
    finally:
        os.chdir(before)
    for path in sorted((root / "out").rglob("*")):
        if path.is_file():
            digests[path.relative_to(root).as_posix()] = _sha256(path.read_bytes())
    return dict(sorted(digests.items()))


def moved(recorded: dict[str, str], current: dict[str, str]) -> list[str]:
    """Every entry that differs, is missing or is new, one line each."""
    lines = []
    for path in sorted(recorded.keys() | current.keys()):
        if path not in current:
            lines.append(f"missing: {path}")
        elif path not in recorded:
            lines.append(f"new: {path}")
        elif recorded[path] != current[path]:
            lines.append(f"moved: {path}")
    return lines


def write_ledger(path: Path = LEDGER) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = generate(Path(tmp))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"made_on": environment(), "outputs": outputs}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(outputs)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(write_ledger())
