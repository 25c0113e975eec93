"""Acceptance criteria: one test per criterion, each printing PASS/FAIL.

Every criterion is computed once, by the suites in heisencurve.verify that
also run behind `heisencurve verify`.  These tests run each suite once, at
ACCEPTANCE, a larger scale than the interactive one, and assert on the named
checks of each criterion; the tolerances live with the checks.  Run with -s
to see the lines.
"""

import pytest

from heisencurve import verify

ACCEPTANCE = verify.Scale(seed=2026, grid_n=201, group_samples=10_000,
                          projection_samples=10_000, steps=8,
                          residual_tau0=(-0.3, -0.1, 0.1, 0.3), taylor_n=41,
                          family_depth=5)

# criterion number: (name, {suite: the checks that decide it})
CRITERIA = {
    1: ("group-algebra", {"group": [
        "associativity", "identity_inverse", "norm_homogeneity",
        "triangle_inequality_excess", "distance_left_invariance",
        "dilation_automorphism"]}),
    2: ("projections", {"group": [
        "projection_example", "projection_roundtrip", "vertical_coords_roundtrip"]}),
    3: ("implicit-graph", {"graph": [
        "graph_level_residual", "graph_closed_forms", "graph_section_property"]}),
    4: ("characteristics", {"characteristics": ["characteristic_order"]}),
    5: ("first-order-system", {"characteristics": [
        "system_residual", "system_negative_control"]}),
    6: ("chain-rule", {"group": ["symbolic_vs_fd_gradient"],
                       "graph": ["gradient_fd_order"],
                       "calculus": ["chain_rule_exact_value", "chain_rule_fd_rel_error",
                                    "chain_rule_random_order"]}),
    7: ("taylor-expansion", {"calculus": [
        "taylor_ratio_violations", "taylor_final_ratio",
        "directional_derivative_error"]}),
    8: ("flow-selection", {"flow": [
        "extremal_cubic_error", "family_monotonicity", "family_mean_residual",
        "funnel_coverage_gap", "funnel_zero_count"]}),
    9: ("end-to-end", {"intersect": [
        "curve_A_reference_distance", "curve_B_reference_distance",
        "curve_A_residuals", "curve_B_residuals",
        "curve_A_cloud_agreement", "curve_B_cloud_agreement"]}),
    10: ("cone-property", {"intersect": [
        "cone_property_violations", "cone_negative_control"]}),
    11: ("injectivity", {"intersect": ["curve_A_injectivity", "curve_B_injectivity"],
                         "flow": ["funnel_preimage_contiguity"]}),
}


@pytest.fixture(scope="module")
def checks():
    """suite name -> {check name: check} at ACCEPTANCE, each suite run once."""
    reports = {}

    def get(suite):
        if suite not in reports:
            reports[suite] = {c["name"]: c for c in verify.SUITES[suite](ACCEPTANCE)}
        return reports[suite]

    return get


def assert_criterion(num, checks):
    name, wanted = CRITERIA[num]
    got = [checks(suite)[check] for suite, names in wanted.items() for check in names]
    passed = all(c["passed"] for c in got)
    detail = ", ".join(f"{c['name']} {c['value']:.3e} (tolerance {c['tolerance']:.3g})"
                       for c in got)
    print(f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_group_algebra(checks):
    assert_criterion(1, checks)


def test_criterion_02_projections(checks):
    assert_criterion(2, checks)


def test_criterion_03_implicit_graph(checks):
    assert_criterion(3, checks)


def test_criterion_04_characteristics(checks):
    assert_criterion(4, checks)


def test_criterion_05_first_order_system(checks):
    assert_criterion(5, checks)


def test_criterion_06_chain_rule(checks):
    assert_criterion(6, checks)


def test_criterion_07_taylor(checks):
    assert_criterion(7, checks)


def test_criterion_08_flow_selection(checks):
    assert_criterion(8, checks)


def test_criterion_09_end_to_end(checks):
    assert_criterion(9, checks)


def test_criterion_10_cone_property(checks):
    assert_criterion(10, checks)


def test_criterion_11_injectivity(checks):
    assert_criterion(11, checks)


def test_every_check_decides_a_criterion(checks):
    claimed = {(suite, check) for _, wanted in CRITERIA.values()
               for suite, names in wanted.items() for check in names}
    assert claimed == {(suite, check) for suite in verify.SUITES for check in checks(suite)}
