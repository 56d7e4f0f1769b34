"""Edge chaos harness: seeded client storms must classify, never hang."""

from __future__ import annotations

from repro.faults.chaos import DEGRADED, FAILED, OK, TYPED_ERROR, run_chaos
from repro.faults.edgechaos import BEHAVIORS


class TestRunEdgeChaos:
    def test_short_sweep_survives_and_classifies_every_run(self):
        report = run_chaos("edge", seed=0, runs=3, clients=4)
        assert len(report.runs) == 3
        assert report.passed, report.summary()
        for run in report.runs:
            assert run.outcome in (OK, DEGRADED, TYPED_ERROR)
            assert run.outcome != FAILED
            assert run.workload == "edge-storm"
            assert run.backend == "serve"
            assert run.executor == "asyncio"

    def test_storms_draw_only_known_behaviors(self):
        report = run_chaos("edge", seed=1, runs=2, clients=3)
        allowed = set(BEHAVIORS) | {"well_behaved"}
        for run in report.runs:
            behaviors = {c["behavior"] for c in run.stats.get("clients", [])}
            assert behaviors <= allowed
            # every storm mixes in exactly one cooperative viewer
            assert "well_behaved" in behaviors

    def test_plans_are_seed_deterministic(self):
        # The *plan* (which behaviors, in which order) derives from the
        # seed alone; outcomes may differ under timing jitter, but the
        # injected client count and behavior mix must not.
        a = run_chaos("edge", seed=9, runs=2, clients=3)
        b = run_chaos("edge", seed=9, runs=2, clients=3)
        plans_a = [
            sorted(c["behavior"] for c in run.stats.get("clients", []))
            for run in a.runs
        ]
        plans_b = [
            sorted(c["behavior"] for c in run.stats.get("clients", []))
            for run in b.runs
        ]
        assert plans_a == plans_b
        assert [r.injected for r in a.runs] == [r.injected for r in b.runs]

    def test_well_behaved_viewer_is_always_served(self):
        report = run_chaos("edge", seed=2, runs=2, clients=4)
        assert report.passed, report.summary()
        for run in report.runs:
            served = [
                c for c in run.stats.get("clients", [])
                if c["behavior"] == "well_behaved"
            ]
            assert served and all(c.get("ok") for c in served)
