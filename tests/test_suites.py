"""Tests for the named invariant suites behind ``riordan check``."""

import pytest

from riordan import CheckResult, run_all, run_suite
from riordan import suites as suites_mod

SUITE_NAMES = [
    "lemma21",
    "theorem22",
    "theorem42",
    "lemma41",
    "theorem61",
    "theorem71",
    "theorem72",
    "theorem81",
    "section9",
]


class TestRegistry:
    def test_registry_names(self):
        assert sorted(suites_mod.SUITES) == sorted(SUITE_NAMES)

    def test_unknown_suite(self):
        with pytest.raises(KeyError, match="unknown suite 'nope'"):
            run_suite("nope")


@pytest.mark.parametrize("name", SUITE_NAMES)
class TestEachSuite:
    def test_all_checks_pass_at_order_12(self, name):
        results = run_suite(name, 12)
        assert results, name
        failed = [r for r in results if not r.passed]
        assert not failed, [(r.name, r.detail) for r in failed]

    def test_suite_field_and_names(self, name):
        results = run_suite(name, 12)
        assert all(r.suite == name for r in results)
        labels = [r.name for r in results]
        assert len(labels) == len(set(labels))  # distinct check names


class TestRunAll:
    def test_everything_passes(self):
        results = run_all(12)
        assert all(r.passed for r in results), [
            (r.suite, r.name, r.detail) for r in results if not r.passed
        ]
        assert {r.suite for r in results} == set(SUITE_NAMES)

    def test_smaller_order_also_passes(self):
        assert all(r.passed for r in run_all(8))

    def test_every_order_from_7_to_20_passes(self):
        for order in range(7, 21):
            failed = [(r.suite, r.name) for r in run_all(order) if not r.passed]
            assert not failed, (order, failed)

    def test_theorem22_at_odd_order(self):
        # x B(x^2) is built to the order of s, not to 2 b.order, which
        # is one short of it at odd orders.
        results = run_suite("theorem22", 13)
        assert [r.name for r in results if not r.passed] == []
        assert len(results) == 6

    def test_deterministic(self):
        assert run_all(12) == run_all(12)


class TestFailureReporting:
    def test_exceptions_become_failed_checks(self, monkeypatch):
        def boom(order):
            raise RuntimeError("fixture exploded")

        monkeypatch.setitem(suites_mod.SUITES, "boom", boom)
        results = run_suite("boom", 12)
        assert results == [
            CheckResult(
                "boom", "suite-execution", False, "RuntimeError: fixture exploded"
            )
        ]

    def test_check_result_shape(self):
        r = CheckResult("s", "n", True)
        assert r.detail == ""
        with pytest.raises(Exception):
            r.passed = False  # frozen dataclass
