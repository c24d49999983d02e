"""Regenerate ``tests/golden_outputs.json``, the output hashes that
``tests/test_golden_outputs.py`` checks.  It takes no arguments:

    PYTHONPATH=src python tests/regen_golden_outputs.py

Run it only after a change that moves output bytes on purpose, and name each
case and file whose hash changed (``git diff`` shows them) in CHANGES.md.
"""
import json
import tempfile

from test_golden_outputs import GOLDEN_PATH, record_all

with tempfile.TemporaryDirectory() as root:
    GOLDEN_PATH.write_text(json.dumps(record_all(root), indent=2) + "\n")
