"""The table checks on integers against the Fraction ones they replaced.

For every sl(m|n) with m != n and every gl(m|n) with m != n, 1 <= m, n <= 5,
for perturbed fundamental representations and for corrupted tables, the
generating set X and every ad_a that ``super_jacobi_report`` hands to the
relation checker equal the ``Fraction`` references kept in
``setup_oracles``.  On every table, super-Jacobi is proved by the
relation checker's root-space certificate without a pair residual.
``grading_report`` is pinned on a failing table.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superkac import algebra
from superkac.algebra import (GenLabel, InputError, InternalConsistencyError,
                              generating_set, grading_report,
                              structure_constants, super_jacobi_report)
from setup_oracles import reference_ad_matrices, reference_generating_set
from test_algebra import draw_perturbed_rep
from test_relation_checker import VERDICT_CASES, refuse_pairwise, stack_sc
from test_setup import SOLVABLE


def ad_matrices(sc, monkeypatch) -> dict:
    """The targets super_jacobi_report gives the relation checker."""
    seen = []

    def spy(labels, generators, table, targets, bracket=None, weights=None):
        seen.append(targets)
        return []

    with monkeypatch.context() as patch:
        patch.setattr(algebra, "bracket_violations", spy)
        super_jacobi_report(sc)
    (targets,) = seen
    return targets


def assert_matches_references(sc, monkeypatch):
    assert generating_set(sc) == reference_generating_set(sc)
    assert ad_matrices(sc, monkeypatch) == reference_ad_matrices(sc)


def completes(sc) -> bool:
    """X holds a label outside its seed, added by the completion."""
    lowering = [lab for lab in sc.basis
                if lab.kind == "f" or lab == GenLabel("v", 1)]
    return any(lab.kind != "e" and lab != GenLabel("u", 1)
               and any(sc.bracket(x, lab) for x in lowering)
               for lab in generating_set(sc))


@pytest.mark.parametrize("flavor, m, n", SOLVABLE)
def test_every_algebra_matches_the_references(flavor, m, n, monkeypatch):
    assert_matches_references(stack_sc(flavor, m, n), monkeypatch)


@pytest.mark.parametrize("flavor, m, n", SOLVABLE)
def test_every_algebra_takes_the_certificate(flavor, m, n, monkeypatch):
    """super-Jacobi on the ad targets of every table is proved by the
    root-space certificate, without entering the pairwise loop."""
    sc = stack_sc(flavor, m, n)
    assert sc.root_weights is not None
    refuse_pairwise(monkeypatch)
    assert super_jacobi_report(sc).ok


@pytest.mark.parametrize("name,sc", VERDICT_CASES,
                         ids=[name for name, _ in VERDICT_CASES])
def test_corrupted_tables_match_the_references(name, sc, monkeypatch):
    assert_matches_references(sc, monkeypatch)


def test_corrupted_tables_take_the_completion_path():
    assert any(completes(sc) for _, sc in VERDICT_CASES)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_perturbed_tables_match_the_references(data):
    """Most perturbations leave no table; the rest scale its constants."""
    try:
        sc = structure_constants(draw_perturbed_rep(data))
    except (InternalConsistencyError, InputError):
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_references(sc, monkeypatch)


# -- grading_report on a failing table -----------------------------------------

def test_grading_report_names_the_first_corrupted_target():
    """In {u_1, v_1} of sl(2|1) the y target, of grade 0, becomes u_1, of
    grade 1, with y's coefficient k = -1/2."""
    sc = stack_sc("sl", 2, 1)
    u1, v1, y = GenLabel("u", 1), GenLabel("v", 1), GenLabel("y")
    expansion = sc.table[(u1, v1)]
    assert expansion[y] == sc.k == Fraction(-1, 2)
    table = dict(sc.table)
    table[(u1, v1)] = {u1 if t == y else t: c for t, c in expansion.items()}
    report = grading_report(sc.replace(table=table))
    assert not report.ok
    (item,) = report.items
    assert (item.name, item.passed, item.location, item.residual) == (
        "grade additivity", False, "[u_1,v_1] -> u_1", "-1/2")


def test_grading_report_refuses_a_non_diagonal_y():
    """The grade of a label is read off [y, lab]; a y bracket with a second
    target gives no grade, an internal error rather than a failed item."""
    sc = stack_sc("sl", 2, 1)
    y, u1, e1 = GenLabel("y"), GenLabel("u", 1), GenLabel("e", 1)
    table = dict(sc.table)
    table[(y, u1)] = {**table[(y, u1)], e1: Fraction(1)}
    with pytest.raises(InternalConsistencyError,
                       match=r"\[y, u_1\] is not diagonal in the basis"):
        grading_report(sc.replace(table=table))
