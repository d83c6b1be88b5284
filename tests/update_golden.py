"""Rewrite tests/golden/c9.json from a fresh run of c9's chain.

Run from the repository root after a change that moves c9's outputs by
design, and name every moved file in CHANGES.md:

    python3 tests/update_golden.py

With ``--check`` nothing is written: the script prints the files that
moved and exits 1 if any did, 0 if c9 is byte-identical to the golden
record.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from test_acceptance import GOLDEN_C9, c9_digests, numeric_host  # noqa: E402

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="print the moved files and exit 1 if any moved; write nothing")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        files = c9_digests(Path(tmp))
    old = json.loads(GOLDEN_C9.read_text(encoding="utf-8"))["files"] if GOLDEN_C9.exists() else {}
    moved = [name for name in sorted(set(files) | set(old)) if files.get(name) != old.get(name)]
    for name in moved:
        print(f"{name}: {old.get(name)} -> {files.get(name)}")
    if args.check:
        print(f"c9: {len(moved)} of {len(files)} files moved")
        sys.exit(1 if moved else 0)
    doc = {"host": numeric_host(), "files": files}
    GOLDEN_C9.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
