"""The golden registry: every ``repro check`` target's ``--quick``
result still hashes to the CRC recorded in ``tests/goldens.json``
(docs/CHECKING.md#golden-registry)."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import CHECK_TARGETS, GOLDENS_PATH

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _goldens():
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_goldens_cover_every_check_target():
    assert sorted(_goldens()["targets"]) == sorted(CHECK_TARGETS)


def test_goldens_match():
    recorded = _goldens()["python"]
    running = "{}.{}".format(*sys.version_info[:2])
    if recorded != running:
        pytest.skip(f"goldens recorded under Python {recorded}, "
                    f"running {running}")
    # a fresh process: results must not depend on what else ran here
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--goldens"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
