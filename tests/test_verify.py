"""The randomized self-check suites."""

import re

import pytest

import binshift.verify as verify
from binshift import _kernels, series, transform
from binshift.transform import SequencePrefix
from binshift.verify import SUITE_NAMES, run_suite


def test_suite_names():
    assert SUITE_NAMES == ("semigroup", "rootshift", "identities", "models", "all")


@pytest.mark.parametrize("suite", SUITE_NAMES[:-1])
def test_each_suite_passes(suite):
    report = run_suite(suite, seed=7, cases=25, depth=12)
    assert report.ok
    assert report.suite == suite
    assert all(p.ok for p in report.properties)
    assert all(p.cases >= 1 for p in report.properties)


def test_all_runs_every_property():
    report = run_suite("all", seed=3, cases=10, depth=10)
    assert report.ok
    names = [p.name for p in report.properties]
    assert len(names) == len(set(names))
    prefixes = {name.split(".", 1)[0] for name in names}
    assert prefixes == {"semigroup", "rootshift", "identities", "models"}
    # every per-suite property appears under its qualified name
    for suite in SUITE_NAMES[:-1]:
        solo = run_suite(suite, seed=3, cases=10, depth=10)
        for prop in solo.properties:
            assert f"{suite}.{prop.name}" in names


def test_same_seed_same_report():
    a = run_suite("semigroup", seed=42, cases=30, depth=15)
    b = run_suite("semigroup", seed=42, cases=30, depth=15)
    assert a == b


def test_different_seeds_usually_differ():
    # Reports carry the seed, so they can never be equal; check the field.
    a = run_suite("rootshift", seed=1, cases=5, depth=8)
    b = run_suite("rootshift", seed=2, cases=5, depth=8)
    assert a.seed != b.seed
    assert a.ok and b.ok


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_argument_validation():
    with pytest.raises(ValueError):
        run_suite("semigroup", cases=0)
    with pytest.raises(ValueError):
        run_suite("semigroup", depth=0)


def test_report_shape():
    report = run_suite("identities", seed=0, cases=8, depth=10)
    assert report.requested_cases == 8
    failures = [p.failure for p in report.properties if not p.ok]
    assert failures == []


@pytest.fixture
def wrong_at_one(monkeypatch):
    """Make ``verify``'s ``apply_transform`` wrong in its last value at r = 1."""
    real = verify.apply_transform

    def wrong(a, r, n_max=None):
        out = real(a, r, n_max)
        if r != 1:
            return out
        values = list(out.values)
        values[-1] += 1
        return SequencePrefix(values, out.domain)

    monkeypatch.setattr(verify, "apply_transform", wrong)


def test_transformed_recurrence_checked_by_the_double_sum(monkeypatch):
    """From 26 terms the transform kernel runs the root shift on these
    family prefixes, so both sides of
    ``rootshift.transformed_recurrence_coherent`` could share one error.
    Both shifted to r + 1 still agree with each other; the double sum at
    index ``depth`` must catch them."""
    real_apply, real_shift = verify.apply_transform, verify.transform_recurrence
    monkeypatch.setattr(verify, "apply_transform", lambda a, r: real_apply(a, r + 1))
    monkeypatch.setattr(verify, "transform_recurrence", lambda rec, r: real_shift(rec, r + 1))
    report = run_suite("rootshift", seed=0, cases=5, depth=30)
    [prop] = [p for p in report.properties if p.name == "transformed_recurrence_coherent"]
    assert prop.failure == (
        "seed 0, rootshift.transformed_recurrence_coherent, case 0: "
        "family=fibonacci, r=-2"
    )


def test_views_checked_by_the_double_sum(monkeypatch):
    """The OGF and EGF views run the transform's own table, so a table
    wrong from output 3 on gives both sides of
    ``models.ogf_matches_operator`` and ``egf_matches_operator`` the same
    error; the double sum at the drawn index n must catch it."""

    def wrong(column, p):
        out = _kernels._table(column, p)
        return out[:3] + [t + 1 for t in out[3:]]

    monkeypatch.setattr(transform, "_table", wrong)
    monkeypatch.setattr(series, "_table", wrong)
    report = run_suite("models", seed=0, cases=5, depth=10)
    failures = {p.name: p.failure for p in report.properties if not p.ok}
    for name in ("ogf_matches_operator", "egf_matches_operator"):
        head = re.match(rf"seed 0, models\.{name}, case \d+: .*, n=(\d+)$", failures[name])
        assert head, failures[name]
        assert int(head.group(1)) >= 3


class TestRunner:
    def test_properties_independent_of_the_run(self, wrong_at_one):
        report = run_suite("all", seed=11, cases=20, depth=10)
        whole = {p.name: p for p in report.properties}
        for suite in SUITE_NAMES[:-1]:
            for prop in run_suite(suite, seed=11, cases=20, depth=10).properties:
                same = whole[f"{suite}.{prop.name}"]
                assert (prop.cases, prop.ok, prop.failure) == (
                    same.cases,
                    same.ok,
                    same.failure,
                )
        # Each of these runs r = 1 through the patched name, so each fails;
        # a property holding its own reference to the function would pass.
        for name in (
            "rootshift.transformed_recurrence_coherent",
            "identities.wpoly_matches_operator",
            "models.binet_shift_equivalence",
            "models.matrix_shift_equivalence",
            "models.ogf_matches_operator",
            "models.egf_matches_operator",
        ):
            assert not whole[name].ok, name

    def test_failure_names_seed_property_and_case(self, wrong_at_one):
        for suite in ("semigroup", "all"):
            report = run_suite(suite, seed=5, cases=20, depth=10)
            assert not report.ok
            for prop in (p for p in report.properties if not p.ok):
                qualified = prop.name if suite == "all" else f"{suite}.{prop.name}"
                pattern = rf"seed 5, {re.escape(qualified)}, case (\d+): "
                head = re.match(pattern, prop.failure)
                assert head, prop.failure
                assert prop.cases == int(head.group(1)) + 1

    def test_failure_shows_the_case_inputs(self, wrong_at_one):
        report = run_suite("rootshift", seed=0, cases=5, depth=10)
        [prop] = [
            p for p in report.properties if p.name == "transformed_recurrence_coherent"
        ]
        # families in order, shifts -2..2: the first failure is r = 1
        assert prop.cases == 4
        assert prop.failure == (
            "seed 0, rootshift.transformed_recurrence_coherent, case 3: "
            "family=fibonacci, r=1"
        )

    def test_passing_case_counts_do_not_depend_on_the_seed(self):
        counts = {}
        for seed in (0, 7919, 12345):
            report = run_suite("all", seed=seed, cases=30, depth=15)
            counts[seed] = [(p.name, p.cases, p.ok) for p in report.properties]
        assert counts[0] == counts[7919] == counts[12345]
        assert all(ok for _, _, ok in counts[0])
        assert len(counts[0]) == 27
