"""Regenerate the reference SHA-256 digests of two pipeline output trees.

    python3 bench/digests.py

Runs ``run_pipeline`` on the paper-like preset and on the long-record
configuration (``bits.length=2000``, ``bits.seed=0``, preset channel seed)
and writes one ``sha256  tree/file`` line per output file, plus one line per
tree for the whole tree, to ``bench/digests.txt``. A refactor that keeps
output bytes leaves that file unchanged; a change that corrects the method
runs this again and commits the new file. The benchmark never reads it.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

os.environ.pop("BUBBLELINK_SEED", None)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from bubblelink import config, pipeline  # noqa: E402

TREES = {
    "paper-like": {},
    "long-record": {"bits.length": "2000", "bits.seed": "0"},
}


def main() -> int:
    (HERE.parent / ".bench_tmp").mkdir(exist_ok=True)
    lines = []
    for name, overrides in TREES.items():
        tmp = tempfile.mkdtemp(prefix="digest-", dir=HERE.parent / ".bench_tmp")
        try:
            pipeline.run_pipeline(config.load_config(preset="paper-like", overrides=overrides), tmp)
            for file in sorted(os.listdir(tmp)):
                with open(os.path.join(tmp, file), "rb") as fh:
                    lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}/{file}")
            lines.append(f"{checks.tree_digest(tmp)}  {name}/")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "digests.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
