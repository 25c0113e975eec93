"""The verification suites at interactive scale, as the benchmark runs them."""

import pytest
from conftest import bench_module

from heisencurve import verify

BENCH_VERIFY = bench_module("workloads").Verify


@pytest.mark.parametrize("name", BENCH_VERIFY.SUITES)
def test_benchmark_suite_reports_its_checks(name):
    report = verify.run_suites(name)
    got = {c["name"]: c for c in report["suites"][name]["checks"]}
    for check in BENCH_VERIFY.CHECKS[name]:
        assert check in got, f"{name}: check {check} not reported"
        assert got[check]["passed"], f"{name}: {got[check]}"


def test_preimage_contiguity():
    # interval collapse repeats a zero only at adjacent members
    assert verify.preimage_contiguity([(0.0, 0.0), (0.0, 0.0), (0.1, 0.2)])["passed"]
    left_and_back = [(0.0, 0.0), (0.1, 0.2), (0.0, 0.0)]
    check = verify.preimage_contiguity(left_and_back)
    assert check["value"] == 1.0 and not check["passed"]
