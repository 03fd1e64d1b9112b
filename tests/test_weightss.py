"""Weight spectral sequence: E_1 blocks, d_1, E_2, toric comparison."""

import json
import math

import pytest

from oracles import composes_to, corrupted_d1, flip_first_d1_block
from trophodge import exactla, fans, weightss
from trophodge.weightss import (
    betti_from_h_vector,
    compare_with_trop,
    d1,
    e1_page,
    e2_page,
    euler_consistency,
)

SMALL_ZOO = [
    "p1", "p2", "p1xp1", "hirzebruch(0)", "hirzebruch(2)",
    "blowup_p2", "torus(2)", "affine_space(2)",
]


def test_e2_page_takes_dimensions_from_two_ranks(monkeypatch):
    """dim E_2^{p,q} = dim E_1^{p,q} - rk d_1 out - rk d_1 in: the page of a
    fresh fan needs no basis of ker modulo im, so it does not call
    ``homology_quotient``, and ``weightss`` does not import it."""
    def forbidden(*args):
        raise AssertionError("e2_page built a quotient basis")

    monkeypatch.setattr(exactla, "homology_quotient", forbidden)
    assert not hasattr(weightss, "homology_quotient")
    weightss.e2_page.cache_clear()
    table = e2_page(fans.builtin("p1xp1xp1")).table()
    assert table == [[int(p == q) * math.comb(3, p) for q in range(4)] for p in range(4)]


def test_e1_block_dims_p1():
    page = e1_page(fans.builtin("p1"))
    assert page.dim(0, 0) == 1
    assert page.dim(0, 1) == 1
    assert page.dim(1, 1) == 2
    assert page.dim(1, 0) == 0


def test_e1_block_dims_p2():
    page = e1_page(fans.builtin("p2"))
    assert [page.dim(0, q) for q in range(3)] == [1, 2, 1]
    assert page.dim(1, 1) == 3
    assert page.dim(1, 2) == 3
    assert page.dim(2, 2) == 3


def test_e1_dims_are_cone_counts_times_binomials():
    for name in ["p3", "p1xp1xp1", "hirzebruch(3)"]:
        fan = fans.builtin(name)
        n = fan.ambient_rank
        page = e1_page(fan)
        for p in range(n + 1):
            for q in range(n + 1):
                expected = 0
                if 0 <= q - p <= n - p:
                    expected = len(fan.cones_of_dim(p)) * math.comb(n - p, q - p)
                assert page.dim(p, q) == expected, (name, p, q)


def test_d1_squared_is_zero():
    for name in SMALL_ZOO + ["p3"]:
        fan = fans.builtin(name)
        n = fan.ambient_rank
        for p in range(n):
            for q in range(n + 1):
                after, _ = d1(fan, p + 1, q)
                before, _ = d1(fan, p, q)
                assert composes_to(after, before), (name, p, q)


def test_corrupt_sign_gives_a_nonzero_d1_square():
    """The square check sees the flipped block of the negative control on P^2."""
    fan = fans.builtin("p2")
    flipped = flip_first_d1_block(d1)
    squares = [
        composes_to(flipped(fan, p + 1, q)[0], flipped(fan, p, q)[0])
        for p in range(2)
        for q in range(3)
    ]
    assert not all(squares)


def test_d1_rejects_nonsmooth():
    sing = fans.Fan(2, [[(1, 0), (1, 2)]])
    with pytest.raises(ValueError):
        d1(sing, 0, 1)
    with pytest.raises(ValueError):
        e2_page(sing)


def test_e2_known_tables():
    def diag(n, vals):
        t = [[0] * (n + 1) for _ in range(n + 1)]
        for k, v in enumerate(vals):
            t[k][k] = v
        return t

    assert e2_page(fans.builtin("p1")).table() == diag(1, [1, 1])
    assert e2_page(fans.builtin("p2")).table() == diag(2, [1, 1, 1])
    assert e2_page(fans.builtin("p3")).table() == diag(3, [1, 1, 1, 1])
    assert e2_page(fans.builtin("p1xp1")).table() == diag(2, [1, 2, 1])
    assert e2_page(fans.builtin("blowup_p2")).table() == diag(2, [1, 2, 1])
    for a in range(4):
        assert e2_page(fans.builtin(f"hirzebruch({a})")).table() == diag(2, [1, 2, 1])


def test_e2_torus_row():
    page = e2_page(fans.builtin("torus(2)"))
    for q in range(3):
        assert page.dim(0, q) == math.comb(2, q)
    assert page.dim(1, 1) == 0


def test_e2_affine_space():
    page = e2_page(fans.builtin("affine_space(2)"))
    assert page.dim(0, 0) == 1
    assert sum(page.dims.values()) == 1


def test_compare_with_trop_zoo():
    for name in SMALL_ZOO:
        report = compare_with_trop(fans.builtin(name))
        assert report["pass"], name


def test_corrupt_sign_is_detected():
    with corrupted_d1():
        report = compare_with_trop(fans.builtin("p1xp1"))
    assert not report["pass"]
    assert compare_with_trop(fans.builtin("p1xp1"))["pass"]


def test_betti_from_h_vector():
    assert betti_from_h_vector(fans.builtin("p2")) == [1, 0, 1, 0, 1]
    assert betti_from_h_vector(fans.builtin("p1xp1")) == [1, 0, 2, 0, 1]
    assert betti_from_h_vector(fans.builtin("blowup_p2")) == [1, 0, 2, 0, 1]
    assert betti_from_h_vector(fans.builtin("p3")) == [1, 0, 1, 0, 1, 0, 1]


def test_euler_consistency():
    for name in ["p2", "p1xp1", "blowup_p2", "hirzebruch(3)", "p3"]:
        assert euler_consistency(fans.builtin(name))["pass"], name
    with pytest.raises(ValueError):
        euler_consistency(fans.builtin("torus(2)"))


def test_page_json_format():
    payload = json.loads(e2_page(fans.builtin("p1")).to_json())
    assert payload["level"] == 2
    assert payload["entries"] == [
        {"p": 0, "q": 0, "dim": 1},
        {"p": 1, "q": 1, "dim": 1},
    ]


def test_e2_page_builds_each_d1_once(monkeypatch):
    """The rows of each d1(p, q) serve as the outgoing and then the incoming map."""
    weightss.e2_page.cache_clear()
    calls = []
    build = weightss.d1

    def counting(fan, p, q):
        calls.append((p, q))
        return build(fan, p, q)

    monkeypatch.setattr(weightss, "d1", counting)
    page = e2_page(fans.builtin("p2"))
    assert page.table() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert sorted(calls) == [(p, q) for p in range(3) for q in range(3)]
