"""Golden digest of the decision-audit stream of seeded Lucid replays.

The perfbench oracle pins job records only; this pins *why* each job was
placed: every :class:`BinderVerdict` (accepted mates and the rejection
census of declined searches, in emission order) and every
:class:`PlacementDecision`.  A change that keeps the records but moves a
rejection from one reason to another fails here.

Refresh a digest only when decisions are meant to change, and say why in
CHANGES.md.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core import LucidConfig, LucidScheduler
from repro.faults import FaultSpec
from repro.obs import DecisionAudit
from repro.sim import Simulator
from repro.traces import TraceGenerator, VENUS

#: Node failures and straggler windows frequent enough that the binder
#: rejects mates on draining nodes.
FAULTS = FaultSpec(seed=5, node_mtbf=40_000.0, slowdown_rate=4.0,
                   slowdown_duration=3600.0)

#: At 60 nodes the 120 venus jobs never contend, the Dynamic Strategy
#: keeps sharing off and no verdict is recorded; on 6 nodes over half a
#: day the binder searches about a thousand times per replay.
CONTENDED = {"n_nodes": 6, "n_vcs": 2, "span_days": 0.5}


class _VerdictLog(DecisionAudit):
    """Keeps every binder verdict, also those no placement consumes."""

    def __init__(self):
        super().__init__()
        self.verdicts = []

    def note_binder(self, verdict):
        self.verdicts.append(verdict.to_dict())
        super().note_binder(verdict)


def audit_stream(spec_changes, faults):
    generator = TraceGenerator(replace(VENUS.with_jobs(120), **spec_changes))
    audit = _VerdictLog()
    scheduler = LucidScheduler(generator.generate_history(),
                               config=LucidConfig(seed=7), audit=audit)
    Simulator(generator.build_cluster(), generator.generate(), scheduler,
              faults=faults).run()
    return audit


def digest(audit):
    h = hashlib.sha256()
    for verdict in audit.verdicts:
        h.update(json.dumps(verdict).encode())
    h.update(b"|")
    for record in audit.records:
        h.update(json.dumps(record.to_dict()).encode())
    return h.hexdigest()


CASES = {
    "venus120": ({}, None, "5c9dcf808e674e723b60d0c3817198e4"
                           "170a7a5392c36e2909094f324efc5669"),
    "venus120-faults": ({}, FAULTS, "430244b859b3505e40c11fbe0a91176a"
                                    "1de9463fa18b8f88e0bbc405b266eef4"),
    "contended": (CONTENDED, None, "f2c9978ccfc9f8c4d46bfa6be0219f6d"
                                   "9087a987a0a70470f09ca8d4ea4bafe3"),
    "contended-faults": (CONTENDED, FAULTS, "399e7da96800205e81a7103f34ce5c98"
                                            "d19c8444ac11f2a18ea4d55cc10bff65"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_audit_stream_digest(case):
    spec_changes, faults, expected = CASES[case]
    audit = audit_stream(spec_changes, faults)
    assert digest(audit) == expected


def test_contended_replay_exercises_the_census():
    """The pinned stream is worth pinning: mates are accepted and
    rejected for every pass-level and job-level reason but memory."""
    audit = audit_stream(CONTENDED, FAULTS)
    reasons = {reason for verdict in audit.verdicts
               for reason in verdict["rejections"]}
    assert {"gss_budget", "has_mate", "mate_finishing",
            "node_draining"} <= reasons
    assert any(verdict["mate_id"] is not None for verdict in audit.verdicts)
