"""Tagged-column witness searches on hand-built columns."""

from fractions import Fraction
from itertools import combinations_with_replacement

from algforge import witness

F = Fraction


def test_solve_ignores_an_explicit_zero_value():
    # Courant columns can cancel to an explicit 0 at a coordinate
    columns = witness.plain({"a": {"x": F(1), "y": F(0)}, "b": {"y": F(2)}})
    assert witness.solve(columns, {"x": F(3), "y": F(4)}) == {"a": F(3), "b": F(2)}
    assert witness.solve(columns, {"x": F(0), "y": F(0)}) == {}
    assert witness.nullspace(columns) == []


def test_explicit_zero_value_does_not_make_a_pivot():
    columns = witness.plain({"a": {"y": F(0)}, "b": {"y": F(1)}})
    assert witness.nullspace(columns) == [{"a": F(1)}]
    assert witness.reduce(columns, {"y": F(5)}, key=lambda c: c) == {}


def test_all_zero_column_is_its_own_nullspace_vector():
    columns = witness.plain({"a": {"x": F(1)}, "z": {}, "b": {"x": F(1), "y": F(1)}})
    assert witness.nullspace(columns) == [{"z": F(1)}]
    assert witness.solve(columns, {"x": F(2), "y": F(1)}) == {"a": F(1), "b": F(1)}
    zeros = witness.plain({"p": {"x": F(0)}, "q": {}})
    assert witness.nullspace(zeros) == [{"p": F(1)}, {"q": F(1)}]


def test_solution_and_nullspace_come_back_in_column_order():
    columns = witness.plain({"c": {"x": F(1)}, "a": {"x": F(1)}, "b": {"x": F(2), "y": F(1)}})
    x = witness.solve(columns, {"x": F(1), "y": F(1)})
    assert list(x.items()) == [("c", F(-1)), ("b", F(1))]
    null = witness.nullspace(columns)
    assert [list(v.items()) for v in null] == [[("c", F(-1)), ("a", F(1))]]


def test_coordinate_only_in_the_target_has_no_solution():
    assert witness.solve(witness.plain({"a": {"x": F(1)}}), {"x": F(1), "y": F(1)}) is None


def test_empty_column_set():
    assert witness.solve({}, {}) == {}
    assert witness.solve({}, {"x": F(0)}) == {}
    assert witness.solve({}, {"x": F(1)}) is None
    assert witness.nullspace({}) == []
    assert witness.reduce({}, {"y": F(2), "x": F(1), "z": F(0)}, key=lambda c: c) == {"x": F(1), "y": F(2)}


def test_reduce_depends_on_the_coordinate_order():
    columns = witness.plain({"a": {"x": F(1), "y": F(1)}})
    target = {"x": F(1)}
    # x first: x is the pivot and the remainder moves to y
    assert witness.reduce(columns, target, key=lambda c: c) == {"y": F(-1)}
    # reversed: y is the pivot and x is already reduced
    assert witness.reduce(columns, target, key=lambda c: -ord(c)) == {"x": F(1)}


def test_reduce_under_a_key_reversing_insertion_order():
    inserted = ["x", "y", "z", "w"]
    reverse = {c: -i for i, c in enumerate(inserted)}.__getitem__
    columns = witness.plain({"a": {"z": F(1), "x": F(1)}, "b": {"w": F(2)}})
    target = {"x": F(1), "y": F(2), "z": F(3), "w": F(4)}
    remainder = witness.reduce(columns, target, key=reverse)
    # pivots w and z (first in key order); the remainder follows the key
    assert list(remainder.items()) == [("y", F(2)), ("x", F(-2))]
    # the remainder of a member of the span is zero
    assert witness.reduce(columns, {"z": F(2), "x": F(2), "w": F(-1)}, key=reverse) == {}


def counted_monomials(nvars, max_degree):
    """Each exponent tuple counted off its ``combinations_with_replacement`` combination."""
    out = []
    for d in range(max_degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            exps = [0] * nvars
            for v in combo:
                exps[v] += 1
            out.append(tuple(exps))
    return out


def test_monomials_up_to_keeps_the_combination_order():
    for nvars in range(4):
        for max_degree in range(-1, 7):
            assert witness.monomials_up_to(nvars, max_degree) == counted_monomials(nvars, max_degree)
