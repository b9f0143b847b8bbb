"""Run every pinned command of ``tests/pins.json`` and compare its exit code
and the sha256 of its stdout with the pin.

Usage, from the repository root:

    python3 tests/check_pins.py bellquasi
    PYTHONPATH=src python3 tests/check_pins.py python3 -B -m bellquasi.cli

The arguments are the command that stands for ``bellquasi``: each pin's argv
is appended to it and run from the repository root, where the pinned
``problems/`` paths resolve.  Prints one line per pin and exits with the
number of pins that differ.  Standard library only, so every interpreter
the package supports can run it; Tier-1 reads the same pins in process.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(command: list) -> int:
    if not command:
        sys.exit("usage: check_pins.py COMMAND [ARG ...]")
    bad = 0
    for pin in json.loads((ROOT / "tests" / "pins.json").read_text()):
        run = subprocess.run([*command, *pin["argv"]], stdout=subprocess.PIPE, cwd=ROOT)
        got, pinned = (run.returncode, hashlib.sha256(run.stdout).hexdigest()), (pin["exit"], pin["sha256"])
        print(" ".join(pin["argv"]), "exit %d, %s" % got, "" if got == pinned else "(pinned: exit %d, %s)" % pinned)
        bad += got != pinned
    return bad


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
