"""Rewrite the reference result trees and their environment stamp.

Runs every CLI run of `helpers.ACROSS_JOBS` at --jobs 1 and keeps each file
of its result tree but timing.json under tests/reference/<name>/, then
writes stamp.json, `helpers.environment_stamp()` of the rewriting machine.
`test_result_files_identical_across_jobs` compares its runs with these
trees.  A change that moves a reference file names it in CHANGES.md and
says why.  Tier-1 does not collect this file.

    PYTHONPATH=src python tests/reference/update.py
"""

import json
import os
import pathlib
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from helpers import (ACROSS_JOBS, CONFIG_FILES,  # noqa: E402
                     environment_stamp)
from cransim.cli import main as cli_main  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for file_name, text in CONFIG_FILES.items():
            pathlib.Path(file_name).write_text(text)
        for name, args in sorted(ACROSS_JOBS.items()):
            out = HERE / name
            shutil.rmtree(out, ignore_errors=True)
            if cli_main(args.split() + ["--jobs", "1", "--out", str(out)]):
                raise SystemExit(f"{name}: the run failed")
            for timing in out.rglob("timing.json"):
                timing.unlink()
    (HERE / "stamp.json").write_text(
        json.dumps(environment_stamp(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
