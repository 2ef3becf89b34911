"""Chaos harness acceptance tests: zero loss + deterministic replay."""

import os
import subprocess
import sys

import pytest

from repro.experiments.chaos_study import (
    run_dt_chaos,
    run_rkv_chaos,
    run_rta_chaos,
)


@pytest.fixture(scope="module")
def rkv_report():
    # the acceptance scenario: ≥1% link loss + periodic torn DMA writes
    # + a crash of the leader's memtable actor
    return run_rkv_chaos(seed=42, loss=0.02)


def test_rkv_zero_client_visible_loss(rkv_report):
    assert rkv_report.lost == 0
    assert rkv_report.answered == rkv_report.requests
    assert rkv_report.invariants["zero_loss"]


def test_rkv_paxos_safety_holds(rkv_report):
    assert rkv_report.invariants["paxos_safety"]


def test_rkv_faults_actually_injected(rkv_report):
    """The pass is meaningful only if the planned faults really fired."""
    assert rkv_report.faults_injected.get("link_loss", 0) > 0
    assert rkv_report.faults_injected.get("dma_torn", 0) > 0
    assert rkv_report.faults_injected.get("actor_crash", 0) == 1
    assert len(rkv_report.fault_schedule) > 0


def test_rkv_recovery_telemetry_populated(rkv_report):
    retransmits = sum(s.retransmits for s in rkv_report.recovery.values())
    restarts = sum(s.restarts for s in rkv_report.recovery.values())
    assert retransmits > 0                      # torn writes were recovered
    assert restarts == 1                        # the crashed actor came back
    s0 = rkv_report.recovery["s0"]
    assert s0.mttr_mean_us > 0.0
    assert s0.mttr_max_us >= s0.mttr_mean_us


def test_rkv_deterministic_replay(rkv_report):
    """Identical fault seed ⇒ identical fault schedule and identical
    recovery telemetry."""
    again = run_rkv_chaos(seed=42, loss=0.02)
    assert again.fault_schedule == rkv_report.fault_schedule
    assert again.telemetry_fingerprint() == rkv_report.telemetry_fingerprint()


def test_rkv_seed_changes_schedule(rkv_report):
    other = run_rkv_chaos(seed=1234, loss=0.02)
    assert other.ok
    assert other.telemetry_fingerprint() != rkv_report.telemetry_fingerprint()


def test_dt_chaos_commits_safely():
    report = run_dt_chaos(seed=42)
    assert report.ok, report.summary()
    assert report.invariants["occ_provenance"]


def test_rta_chaos_survives_core_and_actor_faults():
    report = run_rta_chaos(seed=42)
    assert report.ok, report.summary()
    assert report.faults_injected.get("core_fail", 0) == 1
    assert report.faults_injected.get("actor_crash", 0) == 1
    restarts = sum(s.restarts for s in report.recovery.values())
    assert restarts >= 1


def test_dt_chaos_is_identical_across_hash_seeds():
    """DT partitions keys and fans out aborts without ``hash()`` or set
    iteration, so the run cannot depend on ``PYTHONHASHSEED``."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("from repro.exec.grids import chaos_point\n"
            "print(repr(chaos_point('dt', seed=42, duration_us=4000.0)))\n")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
