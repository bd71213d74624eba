"""Every CLI output on the demo configs equals the committed ledger, byte for byte.

A change meant to move an output rewrites ``tests/golden/outputs.json``
(see ``tests/ledger.py``) in the same diff."""
import json

from ledger import LEDGER, environment, generate, moved


def test_outputs_match_the_ledger(tmp_path):
    ledger = json.loads(LEDGER.read_text())
    lines = moved(ledger["outputs"], generate(tmp_path))
    made_on, here = ledger["made_on"], environment()
    note = "" if made_on == here else f" (ledger made on {made_on}, running on {here})"
    assert lines == [], f"{len(lines)} outputs differ from the ledger{note}:\n" + "\n".join(lines)
