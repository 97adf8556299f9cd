"""Self-tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py

They pin the three things a wrong benchmark would get wrong silently:
that the output checks reject a perturbed output, that open-loop
latency is charged from the time a chunk was due, and the self-time
arithmetic the per-layer table rests on.
"""

from __future__ import annotations

import asyncio
import copy
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import rep  # noqa: E402
import spans  # noqa: E402
from spans import Span, Tracer  # noqa: E402


# -- output checks ------------------------------------------------------------


@pytest.fixture(scope="module")
def goldens():
    return checks.load_goldens()


@pytest.fixture(scope="module")
def fleet_state():
    from repro.fleet import FleetConfig, generate_fleet, run_sharded_fleet
    plan = generate_fleet(FleetConfig(device_count=40, area_m=(60.0, 30.0),
                                      interval_s=30.0, duration_s=120.0))
    return run_sharded_fleet(plan, shard_count=2, kernel="cohort").to_state()


@pytest.fixture(scope="module")
def stream():
    from repro.service.replay import generate_stream
    return generate_stream(3000, device_count=32, tenant_count=4, seed=7,
                           corrupt_fraction=0.01)


def test_fleet_oracles_accept_a_real_aggregate(fleet_state):
    assert checks.audit_fleet_state(fleet_state, "fleet") == []


def test_fleet_oracle_rejects_a_perturbed_aggregate(fleet_state):
    state = dict(fleet_state, uplink_delivered=fleet_state[
        "uplink_delivered"] + 1)
    problems = checks.audit_fleet_state(state, "fleet")
    assert any("sent" in problem for problem in problems)


def test_fleet_golden_rejects_a_perturbed_counter(fleet_state):
    goldens = {"seed": 0, "fleet-sparse": {
        "counters": checks.fleet_counters(fleet_state)}}
    outputs = {"state": fleet_state}

    def problems(seed, golden):
        return checks.check_fleet("fleet-sparse", outputs, seed, golden,
                                  device_count=40, shards=2)
    assert problems(0, goldens) == []
    perturbed = copy.deepcopy(goldens)
    perturbed["fleet-sparse"]["counters"]["pair_lost_snr"] += 1
    assert [p.split(" =")[0] for p in problems(0, perturbed)] == [
        "fleet-sparse: pair_lost_snr"]
    # Goldens hold for the golden seed only.
    assert problems(1, perturbed) == []
    assert checks.check_fleet("fleet-sparse", outputs, 1, goldens,
                              device_count=41, shards=2)


def test_driver_golden_rejects_perturbed_output(goldens):
    outputs = {"exit_code": 0, "fleet_states": [],
               "sha256": dict(goldens["paper-driver"])}
    assert checks.check_driver(outputs, goldens["seed"], goldens) == []
    outputs["sha256"]["quick"] = "0" * 64
    # The quick driver does not depend on the seed: any seed checks it.
    assert checks.check_driver(outputs, goldens["seed"] + 1, goldens)
    outputs["sha256"] = dict(goldens["paper-driver"], fleet_scale="0" * 64)
    assert checks.check_driver(outputs, goldens["seed"], goldens)
    assert checks.check_driver(outputs, goldens["seed"] + 1, goldens) == []
    assert checks.check_driver(dict(outputs, exit_code=1),
                               goldens["seed"] + 1, goldens)


def _service_outputs(wires, checkpoint_dir):
    from repro.service.queues import BackpressurePolicy
    from repro.service.server import GatewayService, ServiceConfig

    async def ingest():
        service = GatewayService(ServiceConfig(
            checkpoint_dir=str(checkpoint_dir),
            policy=BackpressurePolicy.BLOCK, batch_size=256,
            metrics_interval_s=0.0))
        await service.start()
        await service.submit_many(wires)
        await service.stop()
        return service
    return rep._service_outputs(asyncio.run(ingest()), len(wires))


def test_gateway_oracle_matches_the_service_and_rejects_perturbation(
        stream, goldens, tmp_path):
    reference = checks.reference_fold(stream, (len(stream),))
    outputs = {"soak": [_service_outputs(stream, tmp_path)]}
    seed = goldens["seed"] + 1
    assert checks.check_gateway(outputs, seed, goldens, reference) == []
    result = outputs["soak"][0]
    restored = result["restored"]
    for change in ({"digest": "0" * 64},
                   {"ingested": result["ingested"] - 1},
                   {"dropped": 1},
                   {"restored": None},
                   {"restored": dict(restored, ingested=0)}):
        perturbed = {"soak": [dict(result, **change)]}
        assert checks.check_gateway(perturbed, seed, goldens, reference)


def test_a_failed_or_differing_repetition_fails_all_its_operations(goldens):
    import run
    seed = goldens["seed"] + 1

    def repetition(**sections):
        return {"operations": 8, "outputs": {
            "exit_code": 0, "fleet_states": [],
            "sha256": dict(goldens["paper-driver"], **sections)}}

    def check(*results):
        return run.check("paper-driver", seed, goldens, list(results), None)
    assert check(repetition(), repetition()) == ([], 0)
    # The fleet-scale section depends on the seed, so only its golden
    # seed checks it: this repetition fails by differing alone.
    assert check(repetition(), repetition(fleet_scale="0" * 64)) == (
        ["paper-driver: repetition 1 output differs from repetition 0"], 8)
    problems, failed = check(repetition(), repetition(),
                             repetition(quick="0" * 64))
    assert (len(problems), failed) == (2, 8)


# -- open-loop latency --------------------------------------------------------


def test_stall_is_charged_from_the_due_time(stream):
    """A service that blocks its own event loop for ``stall`` seconds
    also blocks the load generator, which then sends late. Timing from
    submission would hide the stall; timing from the due time must show
    at least the stall."""
    from repro.service.queues import BackpressurePolicy
    from repro.service.server import GatewayService, ServiceConfig
    stall = 0.3

    class StallingService(GatewayService):
        dispatched = 0

        async def _before_dispatch(self, batch):
            self.dispatched += 1
            if self.dispatched == 3:
                time.sleep(stall)

    service = StallingService(ServiceConfig(
        policy=BackpressurePolicy.BLOCK, metrics_interval_s=0.0))
    result = asyncio.run(rep.open_loop(service, stream, rates=(2000,),
                                       seconds=1.0))
    latencies = result["latency_s"][0]
    assert len(latencies) == -(-2000 // rep.OPEN_LOOP_CHUNK)
    assert max(latencies) >= stall
    assert result["late_max_s"] >= stall * 0.5
    assert sorted(latencies)[len(latencies) // 2] < stall


# -- self time ----------------------------------------------------------------


def _tree():
    """root 0..10 on the main thread: a 1..4 (with c 2..3), b 5..9 with
    1.5 s of leaf calls; a save 3..8 on another thread."""
    main, other = 1, 2
    return {
        "window": [0.0, 10.0], "root": 100, "main_thread": main,
        "spans": [
            Span(1, "a", 1.0, 4.0, 100, main, None),
            Span(2, "c", 2.0, 3.0, 1, main, None),
            Span(3, "b", 5.0, 9.0, 100, main, None),
            Span(4, "save", 3.0, 8.0, None, other, None),
        ],
        "leaves": [[3, "leaf", 30, 1.5], [100, "leaf", 2, 0.5],
                   [None, "leaf", 5, 9.0]],
    }


def test_self_times_on_a_hand_built_tree():
    trace = _tree()
    assert spans.self_times(trace["spans"], trace["leaves"]) == {
        1: 2.0, 2: 1.0, 3: 2.5, 4: 5.0}


def test_layer_table_and_coverage_on_a_hand_built_tree():
    rows, coverage = spans.layer_table(_tree())
    table = {name: (self_s, calls) for name, self_s, calls in rows}
    assert table == {"a": (2.0, 1), "c": (1.0, 1), "b": (2.5, 1),
                     "leaf": (2.0, 32), "save [thread]": (5.0, 1)}
    # a, b and the save on the other thread cover 1..9 s of the window,
    # the top-level leaf 0.5 s more; leaves outside it do not count.
    assert coverage == pytest.approx(0.85)


def test_overlapping_children_are_counted_once():
    spans_ = [Span(1, "p", 0.0, 10.0, None, 1, None),
              Span(2, "x", 1.0, 5.0, 1, 1, None),
              Span(3, "y", 4.0, 12.0, 1, 1, None)]
    assert spans.self_times(spans_, [])[1] == pytest.approx(1.0)


def test_tracer_nests_calls_and_restores_patches():
    tracer = Tracer("test")
    module = type(sys)("repro_tracer_probe")

    def leaf(x):
        return x + 1

    def inner(x):
        return module.leaf(x) + module.leaf(x)

    def outer(x):
        tracer.annotate(seen=x)
        return module.inner(x)

    module.leaf, module.inner, module.outer = leaf, inner, outer
    sys.modules[module.__name__] = module
    try:
        assert tracer.patch_function(leaf, tracer.wrap_leaf("leaf", leaf),
                                     package=module.__name__) == 1
        tracer.patch_function(inner, tracer.wrap("inner", inner),
                              package=module.__name__)
        tracer.patch_function(outer, tracer.wrap("outer", outer),
                              package=module.__name__)
        assert module.outer(1) == 4
        tracer.undo()
        assert module.leaf is leaf and module.outer is outer
    finally:
        del sys.modules[module.__name__]
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["outer"].parent is None
    assert by_name["outer"].attrs == {"seen": 1}
    assert by_name["inner"].parent == by_name["outer"].id
    ((parent, name), (calls, _total)), = tracer.leaves.items()
    assert (parent, name, calls) == (by_name["inner"].id, "leaf", 2)


def test_task_steps_are_spans_parented_across_tasks():
    tracer = Tracer("test")

    async def worker():
        await asyncio.sleep(0)
        return 1

    async def main():
        loop = asyncio.get_running_loop()
        loop.set_task_factory(tracer.task_factory(
            {"test_task_steps_are_spans_parented_across_tasks.<locals>."
             "worker": "w"}))
        root = tracer.reserve()
        token = tracer.enter(root)
        result = await asyncio.ensure_future(worker())
        tracer.leave(token)
        loop.set_task_factory(None)
        return root, result

    root, result = asyncio.run(main())
    assert result == 1
    steps = [span for span in tracer.spans if span.name == "w"]
    assert len(steps) == 2
    assert all(step.parent == root for step in steps)
