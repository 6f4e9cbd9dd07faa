"""Compare the CLI's default outputs with reference hashes.

    python tools/check_output_refs.py                # against perfbench/refs
    python tools/check_output_refs.py --against REV  # against commit REV

Runs the default ``sweep``, the default ``roa`` and one ``simulate`` per
design (from 45 degrees) into a temporary directory and compares the
sha256 of each CSV with ``perfbench/refs/seed_refs.json``, which it only
reads. With ``--against REV`` the references are the same six outputs
made by REV's ``src`` (``git archive REV src``) on this host, so the
comparison is with the code at REV rather than with recorded bytes.
Each side runs in its own Python process with its ``src`` first on
PYTHONPATH. The output bits depend on the BLAS kernel the host runs, so
a mismatch against the recorded references on another machine is a
finding to look into, not necessarily a fault. Exits 1 when any file
differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFS = ROOT / "perfbench" / "refs" / "seed_refs.json"
DEGREES = "45"
RUNS = [("sweep", [], "sweep.csv"), ("roa", [], "roa.csv")] + [
    (f"simulate-{d}", ["--design", d, "--theta0-deg", DEGREES], "trajectory.csv")
    for d in ("i", "ii", "iii", "iv")]


def _emit_hashes() -> None:
    """Print {label: sha256 or "-"} for the ``sontagctl`` on sys.path."""
    from sontagctl import cli

    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, args, name in RUNS:
            out = Path(tmp) / label
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([label.split("-")[0], *args, "--out", str(out)])
            hashes[label] = (hashlib.sha256((out / name).read_bytes()).hexdigest()
                             if rc == 0 else "-")
    print(json.dumps(hashes))


def _hashes(src: Path) -> dict:
    """The six output hashes made by the package under ``src``."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, "--emit"], stdout=subprocess.PIPE,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    return json.loads(proc.stdout.splitlines()[-1])


def _recorded() -> dict:
    refs = json.loads(REFS.read_text())
    want = {"sweep": refs["sweep"]["sha256"], "roa": refs["roa"]["sha256"]}
    want.update({f"simulate-{d}": refs["trajectory"][d][DEGREES]["sha256"]
                 for d in ("i", "ii", "iii", "iv")})
    return want


def _at_revision(rev: str) -> dict:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        return _hashes(Path(tmp) / "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare with the outputs of this git revision's src")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        _emit_hashes()
        return 0
    want = _recorded() if args.against is None else _at_revision(args.against)
    got = _hashes(ROOT / "src")
    mismatches = 0
    for label, _, name in RUNS:
        ok = got[label] == want[label]
        mismatches += not ok
        print(f"{'same' if ok else 'DIFFERENT':9s} {label:12s} {name} {got[label][:16]}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
