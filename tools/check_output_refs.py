"""Compare the CLI's default outputs with the recorded reference hashes.

    python tools/check_output_refs.py

Runs the default ``sweep``, the default ``roa`` and one ``simulate`` per
design (from 45 degrees) into a temporary directory and compares the
sha256 of each CSV with ``perfbench/refs/seed_refs.json``, which it only
reads. The output bits depend on the BLAS kernel the host runs, so a
mismatch on another machine is a finding to look into, not necessarily
a fault. Exits 1 when any file differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFS = ROOT / "perfbench" / "refs" / "seed_refs.json"
DEGREES = "45"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from sontagctl import cli

    refs = json.loads(REFS.read_text())
    runs = [("sweep", [], "sweep.csv", refs["sweep"]["sha256"]),
            ("roa", [], "roa.csv", refs["roa"]["sha256"])]
    runs += [(f"simulate-{d}", ["--design", d, "--theta0-deg", DEGREES], "trajectory.csv",
              refs["trajectory"][d][DEGREES]["sha256"]) for d in ("i", "ii", "iii", "iv")]
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, args, name, want in runs:
            out = Path(tmp) / label
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([label.split("-")[0], *args, "--out", str(out)])
            got = hashlib.sha256((out / name).read_bytes()).hexdigest() if rc == 0 else "-"
            ok = got == want
            mismatches += not ok
            print(f"{'same' if ok else 'DIFFERENT':9s} {label:12s} {name} {got[:16]}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
