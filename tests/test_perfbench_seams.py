"""The benchmark in perfbench/ patches names in ppcstore (bench.build_store,
SSTable.load_block, sstable.ThreadPoolExecutor, ...) to trace its layers.
Its own tests exercise those hooks; run them here so that removing or
renaming a name it patches fails this suite too. They run in a subprocess
because perfbench/tests has a conftest of its own."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_perfbench_tests_pass_against_src():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
