"""Minkowski weights, tropical cycles, and the divisor pairing."""

import json
import random
from fractions import Fraction

import pytest

from oracles import cells_of_dim
from test_cli import CUBE_FACES, CUBE_VERTICES
from trophodge import cohomology, cycles, exactla, fans
from trophodge.cycles import (
    MinkowskiWeight,
    balancing_check,
    chow_dim,
    cycle_class,
    divisor_class_kernel,
    divisor_combination,
    divisor_cycle,
    is_balanced,
    numerical_kernel_check,
    pair,
    principal_divisor_weights,
    surface_intersection_matrix,
    weight_from_json,
    weight_to_json,
)
from trophodge.exactla import QSubspace
from trophodge.weightss import trop_complex_for

SURFACES = [
    "p2", "p1xp1", "blowup_p2",
    "hirzebruch(0)", "hirzebruch(1)", "hirzebruch(2)", "hirzebruch(3)",
]


def ray_weight(fan, values):
    return MinkowskiWeight(
        fan, fan.ambient_rank - 1, dict(zip(fan.cones_of_dim(1), values))
    )


def test_balanced_tropical_line():
    p2 = fans.builtin("p2")
    mw = ray_weight(p2, [1, 1, 1])
    assert is_balanced(mw)


def test_unbalanced_weight_reports_defect():
    p2 = fans.builtin("p2")
    mw = ray_weight(p2, [1, 1, 2])
    defects = balancing_check(mw)
    assert len(defects) == 1
    sigma, defect = defects[0]
    assert sigma.dim == 0
    assert any(defect)


def test_top_weight_balancing():
    p2 = fans.builtin("p2")
    tops = p2.cones_of_dim(2)
    assert is_balanced(MinkowskiWeight(p2, 0, {t: 1 for t in tops}))
    skew = {t: 1 for t in tops}
    skew[tops[0]] = 2
    assert not is_balanced(MinkowskiWeight(p2, 0, skew))


def test_weight_validation():
    p2 = fans.builtin("p2")
    with pytest.raises(ValueError):
        MinkowskiWeight(p2, 1, {p2.cones_of_dim(2)[0]: 1})
    with pytest.raises(ValueError):
        MinkowskiWeight(p2, 3, {})
    with pytest.raises(ValueError):
        MinkowskiWeight(p2, 2, {}, divisor=True)


def test_chow_dims_match_hodge_diagonal():
    expected = {"p2": [1, 1, 1], "p1xp1": [1, 2, 1], "blowup_p2": [1, 2, 1]}
    for name, dims in expected.items():
        fan = fans.builtin(name)
        assert [chow_dim(fan, c) for c in range(3)] == dims, name


def test_chow_rejects_bad_fans():
    with pytest.raises(ValueError):
        chow_dim(fans.builtin("torus(2)"), 1)
    with pytest.raises(ValueError):
        chow_dim(fans.Fan(2, [[(1, 0), (1, 2)]]), 1)


def test_balanced_weight_gives_cycle():
    p2 = fans.builtin("p2")
    cx = trop_complex_for(p2)
    line = cycle_class(cx, ray_weight(p2, [1, 1, 1]))
    assert line.is_cycle()
    bad = cycle_class(cx, ray_weight(p2, [1, 1, 2]))
    assert not bad.is_cycle()


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
NON_SMOOTH_FANS = {
    "P(1,1,2)": fans.Fan(2, [
        [(1, 0), (0, 1)], [(0, 1), (-1, -2)], [(-1, -2), (1, 0)],
    ]),
    "P(1,1,1,2)": fans.Fan(3, [
        [E1, E2, E3], [E1, E2, (-1, -1, -2)],
        [E1, E3, (-1, -1, -2)], [E2, E3, (-1, -1, -2)],
    ]),
    "cube": fans.Fan(3, [[CUBE_VERTICES[i] for i in f] for f in CUBE_FACES]),
}


def _seeded_weights(fan, seed):
    """The fundamental class, then per codimension five seeded integer
    weights and a seeded combination of those ``balancing_check`` accepts."""
    n = fan.ambient_rank
    rng = random.Random(seed)
    out = [MinkowskiWeight(fan, 0, {c: 1 for c in fan.cones_of_dim(n)})]
    for codim in range(n):
        cones = fan.cones_of_dim(n - codim)
        for _ in range(5):
            values = {c: rng.randint(-2, 2) for c in cones}
            out.append(MinkowskiWeight(fan, codim, values))
        blocks, _ = cycles._balancing_blocks(fan, codim)
        rows = [row for _, block in blocks for row in block]
        values = [0] * len(cones)
        for vec in QSubspace.kernel(rows, len(cones)).basis:
            c = rng.randint(-3, 3)
            values = [v + c * x for v, x in zip(values, vec)]
        out.append(MinkowskiWeight(fan, codim, dict(zip(cones, values))))
    return out


@pytest.mark.parametrize("name", [
    *NON_SMOOTH_FANS,
    *(n for n in fans.BUILTIN_ZOO if fans.is_complete(fans.builtin(n))),
])
def test_balancing_agrees_with_the_cellular_boundary(name):
    """A weight is balanced, its lattice normals summing to zero at every
    cone, exactly when its cycle class has no boundary: on seeded weights
    of every codimension, on fans that are not smooth or not simplicial as
    on the complete zoo fans."""
    fan = NON_SMOOTH_FANS.get(name) or fans.builtin(name)
    cx = trop_complex_for(fan)
    seed = sum(map(ord, name))
    for mw in _seeded_weights(fan, seed):
        assert (not balancing_check(mw)) == cycle_class(cx, mw).is_cycle(), (
            mw.codim, mw.weights)


def test_tropical_line_pairs_to_unit():
    p2 = fans.builtin("p2")
    cx = trop_complex_for(p2)
    line = cycle_class(cx, ray_weight(p2, [1, 1, 1]))
    res = cohomology.cohomology(cx, 1, 1)
    assert res.dim == 1
    assert pair(res.representatives[0], line) in (Fraction(1), Fraction(-1))


def test_divisor_cycles_are_closed():
    for name in ["p2", "p1xp1", "hirzebruch(2)"]:
        fan = fans.builtin(name)
        cx = trop_complex_for(fan)
        for ray in fan.rays:
            assert divisor_cycle(cx, ray).is_cycle(), (name, ray)


def test_principal_divisor_pairs_to_zero():
    for name in ["p2", "p1xp1"]:
        fan = fans.builtin(name)
        cx = trop_complex_for(fan)
        for m in [(1, 0), (0, 1), (2, -3)]:
            cyc = divisor_combination(cx, principal_divisor_weights(fan, m))
            res = cohomology.cohomology(cx, 1, 1)
            for rep in res.representatives:
                assert pair(rep, cyc) == 0, (name, m)


def test_principal_weights_example():
    p1xp1 = fans.builtin("p1xp1")
    # rays in lex order: (-1,0), (0,-1), (0,1), (1,0)
    assert principal_divisor_weights(p1xp1, (1, 0)) == [-1, 0, 0, 1]


@pytest.mark.parametrize("m", [(1,), (1, 0, 5)])
def test_principal_weights_reject_a_character_of_another_length(m):
    """A character is never truncated or padded to the rank of the fan."""
    with pytest.raises(ValueError, match="character of length"):
        principal_divisor_weights(fans.builtin("p2"), m)


def test_p2_intersection_matrix():
    mat = surface_intersection_matrix(fans.builtin("p2"))
    assert all(x == 1 for row in mat for x in row)


def test_p1xp1_kernels():
    fan = fans.builtin("p1xp1")
    report = numerical_kernel_check(fan)
    assert report["pass"]
    expected = QSubspace.span([[1, 0, 0, -1], [0, 1, -1, 0]], 4)
    assert report["numerical"] == expected
    assert divisor_class_kernel(fan) == expected


def test_kernels_agree_on_all_surfaces():
    for name in SURFACES:
        report = numerical_kernel_check(fans.builtin(name))
        assert report["pass"], name
        assert report["homological"].dim == 2, name


@pytest.mark.parametrize(
    "name", ["p3", "p1xp1xp1", "projective_space(4)", "p1xp1xp1xp1"]
)
def test_divisor_kernel_is_spanned_by_the_principal_divisors(name):
    """Above rank 2 the null-homologous ray weights are the principal
    divisors: the span of div(e_i) for the n unit characters."""
    fan = fans.builtin(name)
    n = fan.ambient_rank
    principal = [
        principal_divisor_weights(fan, [int(i == j) for j in range(n)])
        for i in range(n)
    ]
    kernel = divisor_class_kernel(fan)
    assert kernel.dim == n
    assert kernel == QSubspace.span(principal, len(fan.rays))


def test_every_kernel_is_one_reversed_column_pass(monkeypatch):
    """``QSubspace.kernel``, ``fans._perp_rows``, ``chow_space`` and
    ``divisor_class_kernel`` each take one pass of the elimination
    (``exactla._gauss_jordan``), on the rows with their columns reversed,
    plus a back-solve per free column.

    The fans, their balancing systems and the cochains of the surfaces
    are built first, so that only the kernels run under the wrapper.
    """
    surfaces = [fans.builtin(name) for name in ("p2", "hirzebruch(1)")]
    solids = [fans.Fan(3, [c.rays for c in fans.builtin(name).maximal_cones])
              for name in ("p3", "p1xp1xp1")]
    dims = {(fan, c): chow_dim(fan, c) for fan in solids for c in range(4)}
    for fan in surfaces:
        divisor_class_kernel(fan)
    calls = []
    real = exactla._gauss_jordan

    def recording(rows):
        calls.append(rows)
        return real(rows)

    def passes(f, *args):
        calls.clear()
        return f(*args), len(calls)

    monkeypatch.setattr(exactla, "_gauss_jordan", recording)
    kernel, n = passes(QSubspace.kernel, [{0: 2, 1: 4}], 3)
    assert kernel.basis == ((1, Fraction(-1, 2), 0), (0, 0, 1))
    assert (calls, n) == ([[{2: 2, 1: 4}]], 1)
    assert passes(lambda: list(fans._perp_rows([(2, 4, 0)], 3))) == (
        [(2, -1, 0), (0, 0, 1)], 1
    )
    for (fan, c), dim in dims.items():
        space, n = passes(cycles.chow_space, fan, c)
        assert (space.dim, n) == (dim, 1)
    for fan in surfaces:
        kernel, n = passes(divisor_class_kernel, fan)
        assert (kernel.dim, n) == (2, 1)


def test_pairing_invariant_under_coboundary():
    rng = random.Random(7)
    for name in ["p2", "hirzebruch(1)"]:
        fan = fans.builtin(name)
        cx = trop_complex_for(fan)
        cc = cohomology.build_cochain_complex(cx, 1)
        balanced = cycles.chow_space(fan, 1).basis[0]
        line = cycle_class(cx, ray_weight(fan, list(balanced)))
        rep = list(cohomology.cohomology(cx, 1, 1).representatives[0])
        base = pair(rep, line)
        for _ in range(5):
            noise = [Fraction(rng.randint(-5, 5)) for _ in range(cc.space_dim(0))]
            image = [sum(x * noise[j] for j, x in row.items()) for row in cc.rows[0]]
            moved = [a + b for a, b in zip(rep, image)]
            assert pair(moved, line) == base, name


def test_weight_json_round_trip():
    p2 = fans.builtin("p2")
    mw = ray_weight(p2, [Fraction(1, 2), 1, 3])
    again = weight_from_json(weight_to_json(mw))
    assert again.fan == p2
    assert again.codim == mw.codim
    assert again.weights == mw.weights
    assert not again.divisor


def test_weight_json_builtin_ref_and_divisor_flag():
    data = {
        "fan": "p1xp1",
        "codim": 1,
        "divisor": True,
        "weights": [{"cone": [0], "w": "2/1"}, {"cone": [3], "w": "-1/1"}],
    }
    mw = MinkowskiWeight.from_json_dict(data)
    assert mw.divisor
    assert mw.weight(fans.Cone(2, [(-1, 0)])) == 2
    out = json.loads(weight_to_json(mw))
    assert out["divisor"] is True


def test_divisor_weight_cycle_dispatch():
    fan = fans.builtin("p1xp1")
    cx = trop_complex_for(fan)
    weights = principal_divisor_weights(fan, (1, 0))
    mw = MinkowskiWeight(
        fan, 1,
        {fans.Cone(2, [r]): w for r, w in zip(fan.rays, weights) if w},
        divisor=True,
    )
    cyc = cycles.weight_cycle(cx, mw)
    assert cyc.is_cycle()
    for rep in cohomology.cohomology(cx, 1, 1).representatives:
        assert pair(rep, cyc) == 0


def test_balancing_blocks_are_built_once_per_fan_and_codim(monkeypatch):
    """A second ``balancing_check`` on the same (fan, codim) reuses the
    balancing equations of the first: it projects no new ray."""
    fan = fans.builtin("p1xp1xp1")
    values = ([1] * 6, [1, 2, 0, 0, 0, 0])
    first = [balancing_check(ray_weight(fan, v)) for v in values]

    def forbidden(*args):
        raise AssertionError("the balancing blocks were built again")

    monkeypatch.setattr(fans, "project", forbidden)
    monkeypatch.setattr(fans, "facet_frame", forbidden)
    assert [balancing_check(ray_weight(fan, v)) for v in values] == first
    assert first[0] == [] and first[1] != []


@pytest.mark.parametrize("case", ["vertex", "unknown-id", "negative-id", "long-block"])
def test_trop_cycle_rejects_blocks_off_its_cells(case):
    """A chain block on a cell that is not a p-cell, or of the wrong length,
    is an error, not a block the vector silently drops."""
    cx = trop_complex_for(fans.builtin("p2"))
    edge = cells_of_dim(cx, 1)[0]
    size = cx.f_lower(edge, 1).dim
    chain = {
        "vertex": {cx.cell_id(cells_of_dim(cx, 0)[0]): (1,)},
        "unknown-id": {10**6: (1,)},
        "negative-id": {-1: (1,) * size},
        "long-block": {cx.cell_id(edge): (1,) * (size + 1)},
    }[case]
    with pytest.raises(ValueError):
        cycles.TropCycle(cx, 1, chain)


def test_pair_sums_the_chain_against_the_dense_vector():
    """The sparse pairing equals the dot product with the dense chain
    vector, and it keeps both of its size checks."""
    rng = random.Random(11)
    fan = fans.builtin("p2")
    cx = trop_complex_for(fan)
    line = cycle_class(cx, ray_weight(fan, [1, 1, 1]))
    vec = line.vector()
    for _ in range(5):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in vec]
        assert pair(coords, line) == sum(a * b for a, b in zip(coords, vec))
    with pytest.raises(ValueError, match="dual spaces"):
        pair(coords[1:], line)
    cid = next(iter(line.chain))
    line.chain[cid] = line.chain[cid] + (1,)
    with pytest.raises(ValueError, match="block dimension"):
        pair(coords, line)
