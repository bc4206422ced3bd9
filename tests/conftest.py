import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--heavy",
        action="store_true",
        default=False,
        help="run long benchmark-reproduction cases",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--heavy"):
        return
    skip = pytest.mark.skip(reason="needs --heavy")
    for item in items:
        if "heavy" in item.keywords:
            item.add_marker(skip)


# The tier-1 time budget: a test not marked heavy that passes, but whose
# call phase takes longer than this, fails.
BUDGET_S = 5.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    report = (yield).get_result()
    slow = report.duration > BUDGET_S
    if report.when == "call" and report.passed and slow and "heavy" not in item.keywords:
        report.outcome = "failed"
        report.longrepr = (
            f"took {report.duration:.2f} s, over the {BUDGET_S:.0f} s tier-1 budget: "
            "make it faster or mark it heavy"
        )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
