"""Acceptance suite: the seven primary criteria, exact arithmetic throughout.

Each test prints one pass/fail line for its criterion.
"""

import random
import time
from fractions import Fraction

from oracles import cech_oracle, composes_to
from trophodge import cohomology, cycles, fans, tropspace, weightss

ZOO = [
    "p1", "p2", "p3", "p1xp1", "p1xp1xp1",
    "hirzebruch(0)", "hirzebruch(1)", "hirzebruch(2)", "hirzebruch(3)",
    "blowup_p2",
    "torus(1)", "torus(2)", "torus(3)",
    "affine_space(1)", "affine_space(2)", "affine_space(3)",
]
COMPLETE = [n for n in ZOO if fans.is_complete(fans.builtin(n))]
SURFACES = [
    n for n in COMPLETE if fans.builtin(n).ambient_rank == 2
]


def report(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {label}"


def balanced_line_weight(fan):
    vec = cycles.chow_space(fan, 1).basis[0]
    return cycles.MinkowskiWeight(
        fan, 1, dict(zip(fan.cones_of_dim(1), vec))
    )


def test_criterion_1_toric_comparison():
    start = time.monotonic()
    ok = True
    for name in ZOO:
        rep = weightss.compare_with_trop(fans.builtin(name))
        ok = ok and rep["pass"]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(1, f"E2 = tropical Hodge numbers, zoo in {elapsed:.1f}s", ok)


def test_criterion_2_hodge_vs_chow():
    ok = True
    for name in COMPLETE:
        fan = fans.builtin(name)
        cx = weightss.trop_complex_for(fan)
        n = fan.ambient_rank
        for p in range(n + 1):
            ok = ok and (
                cohomology.cohomology(cx, p, p).dim == cycles.chow_dim(fan, p)
            )
    spots = {"p2": [1, 1, 1], "p1xp1": [1, 2, 1], "blowup_p2": [1, 2, 1]}
    for name, dims in spots.items():
        fan = fans.builtin(name)
        ok = ok and [cycles.chow_dim(fan, p) for p in range(3)] == dims
    report(2, "h^{p,p} = Minkowski-weight Chow dimension", ok)


def test_criterion_3_vanishing():
    ok = True
    for name in ZOO:
        fan = fans.builtin(name)
        n = fan.ambient_rank
        table = cohomology.betti_table(weightss.trop_complex_for(fan))
        for p in range(n + 1):
            for q in range(p + 1, n + 1):
                ok = ok and table[p][q] == 0
        if name in COMPLETE:
            for p in range(1, n + 1):
                ok = ok and table[p][0] == 0
    report(3, "h^{p,q} = 0 for q > p; h^{p,0} = 0 for p >= 1 complete", ok)


def test_criterion_4_degeneration():
    ok = True
    for name in COMPLETE:
        ok = ok and weightss.euler_consistency(fans.builtin(name))["pass"]
    report(4, "E2 diagonals sum to the h-vector Betti numbers", ok)


def test_criterion_5_numerical_equivalence():
    ok = True
    for name in SURFACES:
        ok = ok and cycles.numerical_kernel_check(fans.builtin(name))["pass"]
    report(5, "divisor class kernel = intersection matrix kernel", ok)


def test_criterion_6_pairing():
    p2 = fans.builtin("p2")
    cx = weightss.trop_complex_for(p2)
    line = cycles.cycle_class(
        cx,
        cycles.MinkowskiWeight(p2, 1, {c: 1 for c in p2.cones_of_dim(1)}),
    )
    res = cohomology.cohomology(cx, 1, 1)
    ok = res.dim == 1 and cycles.pair(res.representatives[0], line) in (1, -1)
    for name in ["p2", "p1xp1", "blowup_p2"]:
        fan = fans.builtin(name)
        fx = weightss.trop_complex_for(fan)
        for m in [(1, 0), (0, 1), (1, 1)]:
            cyc = cycles.divisor_combination(
                fx, cycles.principal_divisor_weights(fan, m)
            )
            for rep in cohomology.cohomology(fx, 1, 1).representatives:
                ok = ok and cycles.pair(rep, cyc) == 0
    report(6, "tropical line pairs to a unit; principal divisors pair to 0", ok)


def check_delta_and_d1_squared():
    for name in ZOO:
        fan = fans.builtin(name)
        n = fan.ambient_rank
        cx = weightss.trop_complex_for(fan)
        for p in range(n + 1):
            rows = cohomology.build_cochain_complex(cx, p).rows
            if not all(map(composes_to, rows[1:], rows)):
                return False
            for q in range(n + 1):
                if p < n and not composes_to(
                    weightss.d1(fan, p + 1, q)[0], weightss.d1(fan, p, q)[0]
                ):
                    return False
    return True


def check_functoriality():
    for name in ZOO:
        cx = weightss.trop_complex_for(fans.builtin(name))
        if len(cx.cells) > 50:
            continue
        n = cx.base_fan.ambient_rank
        for c2 in cx.cells:
            mids = [c for c in cx.cells if c != c2 and c.is_face_of(c2)]
            for c1 in mids:
                for c0 in cx.cells:
                    if c0 == c1 or not c0.is_face_of(c1):
                        continue
                    for p in range(n + 1):
                        if not composes_to(
                            cx.face_map_columns(c1, c2, p),
                            cx.face_map_columns(c0, c1, p),
                            cx.face_map_columns(c0, c2, p),
                        ):
                            return False
    return True


def check_cech():
    for name in ZOO:
        cx = weightss.trop_complex_for(fans.builtin(name))
        if len(cx.cells) > 50:
            continue
        n = cx.base_fan.ambient_rank
        for p in range(n + 1):
            for q in range(n + 1):
                if cech_oracle(cx, p, q) != cohomology.cohomology(
                    cx, p, q
                ).dim:
                    return False
    return True


def check_refinement_invariance():
    for name in ZOO:
        fan = fans.builtin(name)
        n = fan.ambient_rank
        if fans.is_complete(fan):
            top = fan.cones_of_dim(n)[0]
            ray = tuple(sum(col) for col in zip(*top.rays))
            before = cohomology.betti_table(
                tropspace.tautological_complex(fans.torus(n), fan)
            )
            after = cohomology.betti_table(
                tropspace.tautological_complex(
                    fans.torus(n), fans.star_subdivision(fan, ray)
                )
            )
        else:
            structure = fans.completion(fan)
            sign = -1 if name.startswith("affine") else 1
            interior = (sign,) * n
            refined = fans.star_subdivision(structure, interior)
            before = cohomology.betti_table(weightss.trop_complex_for(fan))
            after = cohomology.betti_table(
                tropspace.refined_complex(fan, refined)
            )
        if before != after:
            return False
    return True


def check_pairing_coboundary_invariance():
    rng = random.Random(20260824)
    for name in SURFACES:
        fan = fans.builtin(name)
        cx = weightss.trop_complex_for(fan)
        cc = cohomology.build_cochain_complex(cx, 1)
        line = cycles.cycle_class(cx, balanced_line_weight(fan))
        if not line.is_cycle():
            return False
        for rep in cohomology.cohomology(cx, 1, 1).representatives:
            base = cycles.pair(rep, line)
            for _ in range(20):
                noise = [
                    Fraction(rng.randint(-9, 9)) for _ in range(cc.space_dim(0))
                ]
                image = [
                    sum(x * noise[j] for j, x in row.items()) for row in cc.rows[0]
                ]
                moved = [a + b for a, b in zip(rep, image)]
                if cycles.pair(moved, line) != base:
                    return False
    return True


def test_criterion_7_property_suites():
    ok = check_delta_and_d1_squared()
    ok = ok and check_functoriality()
    ok = ok and check_cech()
    ok = ok and check_refinement_invariance()
    ok = ok and check_pairing_coboundary_invariance()
    report(7, "delta^2, d1^2, functoriality, Cech, refinement, pairing", ok)
