"""The README's figures are the program's output."""
import re
from pathlib import Path

from kvcompose.baselines import Policy
from kvcompose.cli import build_model, build_tasks, load_config
from kvcompose.evaluator import auc, sweep
from ledger import _commands

ROOT = Path(__file__).resolve().parents[1]


def worked_example_table() -> tuple[list[str], dict[str, list[str]]]:
    """The README's worked-example table: its policy columns, and each row's
    label (a ratio, or ``AUC``) mapped to its figures as written."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Worked example", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    header, *rows = [line.split() for line in block.splitlines() if line.strip()]
    return header[1:], {row[0]: row[1:] for row in rows}


def test_worked_example_matches_a_recall_sweep_of_every_policy():
    policies, table = worked_example_table()
    cfg = load_config(ROOT / "configs" / "demo_recall.json")
    model = build_model(cfg)
    tasks = build_tasks(cfg, model)
    mode, window = cfg.scoring["mode"], cfg.scoring["observation_window"]
    for column, name in enumerate(policies):
        points = sweep(model, tasks, Policy(name=name), cfg.agg, tuple(cfg.grid), mode, window)
        got = {str(p.r_target): f"{p.reward_mean:.3f}" for p in points}
        got["AUC"] = f"{auc(points):.3f}"
        assert {label: figures[column] for label, figures in table.items()} == got, name


def test_ledger_run_count_is_the_ledgers(tmp_path):
    (tmp_path / "inputs").mkdir()
    readme = (ROOT / "README.md").read_text()
    stated = re.search(r"file that (\d+) CLI runs on the two demo configs", readme)
    assert int(stated.group(1)) == len(_commands(tmp_path))
