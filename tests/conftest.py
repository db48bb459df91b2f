"""Shared pytest wiring: a deterministic Hypothesis profile, and one
verdict line per acceptance criterion."""

from hypothesis import Phase, settings

# derandomized and without deadlines, so property tests draw the same
# examples on every run and a slow shared machine cannot fail them; the
# explain phase is left out because it reruns a failing oracle hundreds
# of times
settings.register_profile(
    "tier1",
    derandomize=True,
    deadline=None,
    max_examples=5,
    phases=[p for p in Phase if p is not Phase.explain],
)
settings.load_profile("tier1")

CRITERION_TITLES = {
    "01": "gradient matches central differences",
    "02": "gauge and parametrization identities",
    "03": "minimizer converges below threshold",
    "04": "blow-up certificate above threshold",
    "05": "region map boundary at threshold",
    "06": "bubble slopes",
    "07": "liouville bubble",
    "08": "symmetric radial masses",
    "09": "mass relation along shooting family",
    "10": "flux and ball identities",
    "11": "determinism of data files",
}

_MARKER = "test_acceptance.py::test_criterion_"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for status, outcome in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if _MARKER not in nodeid:
                continue
            number = nodeid.split(_MARKER, 1)[1].split("_", 1)[0]
            if verdicts.get(number) != "FAIL":
                verdicts[number] = outcome
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(verdicts):
        title = CRITERION_TITLES.get(number, "")
        terminalreporter.write_line(
            f"criterion {number} ({title}): {verdicts[number]}"
        )
