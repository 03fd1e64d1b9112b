"""Tests of the benchmark's seeded inputs and of its exact output gate.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import pytest

from checks import run_checks
from inputs import ZOO, dumps, fan_json, make_inputs, named_fan
from trophodge import fans

WORKLOADS = ("zoo", "p4", "pairing")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_json(workload):
    assert dumps(make_inputs(workload, 7)) == dumps(make_inputs(workload, 7))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_seeds_give_different_rays(workload):
    def rays(seed):
        return [f["fan"]["rays"] for f in make_inputs(workload, seed)["fans"]
                if f["complete"]]

    assert rays(1) != rays(2)


def test_zoo_matches_the_builtins():
    for name in ZOO:
        assert fans.from_json_dict(fan_json(*named_fan(name))) == fans.builtin(name)


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_complete_fans_stay_smooth_and_complete(seed):
    entries = [f for w in WORKLOADS for f in make_inputs(w, seed)["fans"]]
    for entry in entries:
        fan = fans.from_json_dict(entry["fan"])
        assert fan.is_smooth(), entry["name"]
        assert fans.is_complete(fan) == entry["complete"], entry["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_missing_results_fail_every_check(workload):
    attempted, failed = run_checks(make_inputs(workload, 1), {})
    assert attempted > 0
    assert len(failed) == attempted
