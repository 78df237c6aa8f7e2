"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import gc
import json
import signal
import sys
from fractions import Fraction

import pytest

import run
from speed import REF_SHARE, REF_UNIT_S, SpeedMeter
from tracing import Tracer
from workloads import OPS, OpFailure, build_pool, candidates, check, import_mwbs, load_golden


@pytest.fixture(scope="module")
def m():
    return import_mwbs()


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def _snapshot(m, tracer):
    modules = [mod for name, mod in sys.modules.items()
               if name == "mwbs" or name.startswith("mwbs.")]
    owners = {id(owner): owner for owner, _attr in tracer.patched_attributes()}
    return {id(o): dict(vars(o)) for o in list(owners.values()) + modules}


@pytest.mark.parametrize("workload", sorted(OPS))
def test_traced_run_is_byte_identical_and_restores_every_attribute(m, golden, workload):
    item = build_pool(workload, m, golden)[0]
    tracer = Tracer(m)
    before = _snapshot(m, tracer)
    solve_dp, validate = m.dp.solve_dp, m.dp.validate_decomposition
    plain = OPS[workload](m, item)
    with tracer.active():
        # names bound by from-imports are wrapped where they are used
        assert m.kernel.solve_dp is m.dp.solve_dp is not solve_dp
        assert m.kernel.solve_dp.__wrapped__ is solve_dp
        assert m.decomposition.validate_decomposition is m.dp.validate_decomposition
        assert m.dp.validate_decomposition.__wrapped__ is validate
        traced = OPS[workload](m, item)
    assert traced == plain
    assert tracer.spans, "the traced op recorded no span"
    assert _snapshot(m, tracer) == before


def test_golden_covers_the_candidates(m, golden):
    for workload in OPS:
        params = [e["params"] for e in golden["workloads"][workload]]
        allowed = candidates(workload, m)
        assert params and all(p in allowed for p in params)


def test_check_rejects_a_suboptimal_or_inconsistent_document(m, golden):
    item = build_pool("tri-frontier", m, golden)[0]
    doc = json.loads(OPS["tri-frontier"](m, item))
    assert check(m, item, json.dumps(doc)) == 0.0
    # still bimodal (dropping an edge never adds a switch) but not optimal
    fewer = set(doc["kept"][1:])
    worse = m.plane.canonical_json(m.plane.make_solution(
        item.instance, fewer, "subexp").document())
    with pytest.raises(OpFailure):
        check(m, item, worse)
    doc["kept_weight"] = m.plane.format_weight(Fraction(doc["kept_weight"]) + 1)
    with pytest.raises(OpFailure):
        check(m, item, json.dumps(doc))


def test_capped_op_is_a_timeout_not_a_crash(m, golden, monkeypatch):
    item = build_pool("corpus-dp", m, golden)[0]

    def spin(_m, _item):
        while True:
            pass

    monkeypatch.setattr(run, "OP_CAP_S", 1)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        doc, took, kind = run.run_op(m, spin, item)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (doc, kind) == (None, "timeout")
    assert took >= 0.9


def test_speed_meter_scales_each_call_by_the_units_around_it():
    meter = SpeedMeter()            # units before the first call
    meter.after(0.0)
    meter.after(0.2)
    assert [u >= 1 for _s, u in meter.samples] == [True] * 3
    assert meter.samples[2][0] >= REF_SHARE * 0.2
    assert gc.isenabled()
    (s0, u0), (s1, u1), (s2, u2) = meter.samples
    assert meter.scales() == [REF_UNIT_S * (u0 + u1) / (s0 + s1),
                              REF_UNIT_S * (u1 + u2) / (s1 + s2)]
