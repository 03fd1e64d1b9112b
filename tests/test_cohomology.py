"""Tropical cohomology: cochain complexes, duality, oracles."""

import math

import pytest

import oracles
from oracles import cech_oracle, composes_to, poset_betti_table
from trophodge import cohomology, exactla, fans, tropspace, weightss
from trophodge.cohomology import betti_table, build_cochain_complex


def small_complexes():
    return [
        tropspace.tautological_complex(fans.builtin("p1")),
        tropspace.tautological_complex(fans.builtin("p2")),
        tropspace.tautological_complex(fans.builtin("p1xp1")),
        oracles.torus_complex(2),
        oracles.affine_complex(2),
    ]


def diag_table(n, values):
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k, v in enumerate(values):
        table[k][k] = v
    return table


def test_delta_squared_everywhere():
    for cx in small_complexes():
        n = cx.base_fan.ambient_rank
        for p in range(n + 1):
            rows = build_cochain_complex(cx, p).rows
            assert all(map(composes_to, rows[1:], rows))


def test_d_squared_check_sees_a_flipped_entry():
    """One flipped entry of delta_0 on P^2 gives a nonzero delta^2."""
    cx = tropspace.tautological_complex(fans.builtin("p2"))
    before, after = build_cochain_complex(cx, 0).rows[:2]
    assert composes_to(after, before)
    # an entry of delta_0 in a row that delta_1 reads
    i = next(j for row in after for j in row)
    flipped = [dict(row) for row in before]
    j = next(iter(flipped[i]))
    flipped[i][j] = -flipped[i][j]
    assert not composes_to(after, flipped)


def test_p1_block_layout():
    cx = tropspace.tautological_complex(fans.builtin("p1"))
    cc = build_cochain_complex(cx, 1)
    assert cc.space_dim(0) == 1
    assert cc.space_dim(1) == 2
    assert cc.deltas[0].rows == 2 and cc.deltas[0].cols == 1


def test_tropical_line_block_dims():
    """The oracle's C^0 and C^1 of F^1 on the tropical line have dims 2 and
    3; the production complex rejects the line, whose F_1 are not full."""
    cx = oracles.tropical_line()
    dims = [sum(oracles.f_lower(cx, c, 1).dim for c in oracles.cells_of_dim(cx, q))
            for q in range(2)]
    assert dims == [2, 3]
    with pytest.raises(ValueError):
        build_cochain_complex(cx, 1)


def test_tropical_line_oracle_tables():
    """Both oracles give the sheaf cohomology of the tropical line."""
    cx = oracles.tropical_line()
    table = [[1, 0, 0], [2, 0, 0], [0, 0, 0]]
    assert poset_betti_table(cx) == table
    assert [[cech_oracle(cx, p, q) for q in range(3)] for p in range(3)] == table


def test_p0_matches_constant_sheaf():
    for cx in small_complexes():
        cc = build_cochain_complex(cx, 0)
        for q in range(cx.base_fan.ambient_rank + 1):
            assert cc.space_dim(q) == sum(1 for c in cx.cells if c.dim == q)


def test_known_betti_tables():
    p1 = tropspace.tautological_complex(fans.builtin("p1"))
    assert betti_table(p1) == diag_table(1, [1, 1])
    p2 = tropspace.tautological_complex(fans.builtin("p2"))
    assert betti_table(p2) == diag_table(2, [1, 1, 1])
    p1xp1 = tropspace.tautological_complex(fans.builtin("p1xp1"))
    assert betti_table(p1xp1) == diag_table(2, [1, 2, 1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_torus_betti_row(n):
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        table[p][0] = math.comb(n, p)
    assert betti_table(oracles.torus_complex(n)) == table


@pytest.mark.parametrize("n", [1, 2, 3])
def test_affine_space_betti(n):
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    assert betti_table(oracles.affine_complex(n)) == table


def open_complexes():
    """The open complexes of the zoo and of the refinement checks.

    The refinement checks are ``check_refinement_invariance`` in the
    acceptance suite and ``test_fan_structure_independence_*`` here.
    """
    built = []
    for name in fans.BUILTIN_ZOO:
        fan = fans.builtin(name)
        n = fan.ambient_rank
        if fans.is_complete(fan):
            top = fan.cones_of_dim(n)[0]
            ray = tuple(sum(col) for col in zip(*top.rays))
            for structure in (fan, fans.star_subdivision(fan, ray)):
                built.append(tropspace.tautological_complex(fans.torus(n), structure))
        else:
            sign = -1 if name.startswith("affine") else 1
            refined = fans.star_subdivision(fans.completion(fan), (sign,) * n)
            built.append(weightss.trop_complex_for(fan))
            built.append(oracles.refined_complex(fan, refined))
    unique = {(cx.base_fan, cx.cells): cx for cx in built}
    return [cx for cx in unique.values() if not cx.is_boundary_closed()]


def test_duality_matches_poset_oracle():
    """Poincare duality on H_c gives the face-poset table on open complexes."""
    complexes = open_complexes()
    assert len(complexes) == 24
    for cx in complexes:
        n = cx.base_fan.ambient_rank
        table = poset_betti_table(cx)
        assert betti_table(cx) == table, cx
        for p in range(n + 1):
            for q in range(n + 1):
                res = cohomology.cohomology(cx, p, q)
                assert (res.dim, res.representatives) == (table[p][q], ()), (cx, p, q)


def test_open_complex_over_non_smooth_fan_is_rejected():
    cone = [(1, 0), (1, 2)]
    base = fans.Fan(2, [cone])
    structure = fans.Fan(2, [cone, [(1, 2), (-1, -1)], [(-1, -1), (1, 0)]])
    cx = tropspace.tautological_complex(base, structure)
    assert not base.is_smooth() and not cx.is_boundary_closed()
    with pytest.raises(ValueError, match="smooth base fan"):
        betti_table(cx)
    with pytest.raises(ValueError, match="smooth base fan"):
        cohomology.cohomology(cx, 0, 0)


def test_representatives_are_cocycles():
    cx = tropspace.tautological_complex(fans.builtin("p1xp1"))
    for p in range(3):
        cc = build_cochain_complex(cx, p)
        for q in range(3):
            res = cohomology.cohomology(cx, p, q)
            assert res.dim == len(res.representatives)
            rows = cc.rows[q] if q < len(cc.rows) else ()
            for rep in res.representatives:
                assert all(sum(x * rep[j] for j, x in row.items()) == 0 for row in rows)


def test_betti_table_matches_representatives(monkeypatch):
    """Rank-only dimensions count the representatives cohomology() finds."""
    closed = [
        cx for cx in map(weightss.trop_complex_for, map(fans.builtin, fans.BUILTIN_ZOO))
        if cx.is_boundary_closed()
    ]
    tables = [betti_table(cx) for cx in closed]
    for cx, table in zip(closed, tables):
        n = cx.base_fan.ambient_rank
        for p in range(n + 1):
            for q in range(n + 1):
                reps = cohomology.cohomology(cx, p, q).representatives
                assert table[p][q] == len(reps), (cx, p, q)

    def no_elimination(rows):
        raise AssertionError("betti_table eliminated again")

    monkeypatch.setattr(exactla, "_gauss_jordan", no_elimination)
    assert [betti_table(cx) for cx in closed] == tables


def test_ranks_make_no_fraction(monkeypatch):
    """The elimination core runs on integer rows in integer arithmetic.

    The geometry of a fresh P^3 complex (F_p bases, face maps and signs) is
    built first; then every rank of its Betti table is taken with
    ``exactla.Fraction`` unusable.
    """
    cx = tropspace.tautological_complex(fans.builtin("p3"))
    cx.face_poset()
    for cell in cx.cells:
        for p in range(4):
            cx.f_lower(cell, p)

    def no_fraction(*args):
        raise AssertionError("the elimination made a Fraction")

    monkeypatch.setattr(exactla, "Fraction", no_fraction)
    rows = [{0: 2, 3: -4}, {0: 3, 1: 5}, {1: 5, 0: 3}, {3: 7}]
    assert exactla.sparse_rank(rows) == 3
    assert sorted(exactla._gauss_jordan(rows)) == [0, 1, 3]
    assert betti_table(cx) == diag_table(3, [1, 1, 1, 1])


def test_f_lower_and_betti_table_reject_a_cell_without_a_full_coface():
    """The tautological complex of the torus is one point, a cell of
    dimension 0 in a stratum of rank 2: its F_p would be a proper span.
    ``f_lower`` and ``betti_table`` raise ValueError on it, and the complex
    itself still builds and reports itself boundary closed.  So do the
    layers that read block sizes off the stratum rank instead of
    ``f_lower``: the cochain complexes, the Betti table and a cycle, on
    the torus of every rank up to 3."""
    from trophodge import cycles

    cx = tropspace.tautological_complex(fans.torus(2))
    (point,) = cx.cells
    assert cx.is_boundary_closed()
    for p in range(3):
        with pytest.raises(ValueError, match="full-dimensional stratum coface"):
            cx.f_lower(point, p)
    with pytest.raises(ValueError, match="full-dimensional stratum coface"):
        betti_table(cx)
    for n in (1, 2, 3):
        cx = tropspace.tautological_complex(fans.torus(n))
        for p in range(n + 1):
            with pytest.raises(ValueError, match="full-dimensional stratum coface"):
                cohomology.cochains(cx, p)
        with pytest.raises(ValueError, match="full-dimensional stratum coface"):
            betti_table(cx)
        with pytest.raises(ValueError, match="full-dimensional stratum coface"):
            cycles.TropCycle(cx, 0, {0: (1,)})
        assert cx.cochains == {}


def test_p4_representatives_make_no_rref(monkeypatch):
    """The H^{2,2} representatives of a fresh P^4 complex come from one
    forward elimination: no span is reduced (``QSubspace.span``, the
    kernel of a kernel) and no kernel is taken on its own
    (``QSubspace.kernel``)."""
    cx = tropspace.tautological_complex(fans.projective_space(4))

    def forbidden(*args):
        raise AssertionError("the representatives reduced a span or a kernel")

    monkeypatch.setattr(exactla.QSubspace, "span", classmethod(forbidden))
    monkeypatch.setattr(exactla.QSubspace, "kernel", classmethod(forbidden))
    res = cohomology.cohomology(cx, 2, 2)
    assert res.dim == len(res.representatives) == 1


def test_pairing_path_reads_no_f_lower(monkeypatch):
    """On a fresh P^3 complex, ``cohomology``, ``cycle_class``,
    ``divisor_combination`` and ``pair`` read every block size off the
    stratum rank and never call ``TropComplex.f_lower``."""
    from trophodge import cycles

    fan = fans.builtin("p3")
    cx = tropspace.tautological_complex(fan)

    def forbidden(*args):
        raise AssertionError("the pairing path called f_lower")

    monkeypatch.setattr(tropspace.TropComplex, "f_lower", forbidden)
    (rep1,) = cohomology.cohomology(cx, 1, 1).representatives
    (rep2,) = cohomology.cohomology(cx, 2, 2).representatives
    line = cycles.cycle_class(
        cx, cycles.MinkowskiWeight(fan, 2, dict.fromkeys(fan.cones_of_dim(1), 1))
    )
    assert cycles.pair(rep1, line) in (-1, 1)
    plane = cycles.divisor_combination(cx, [1] + [0] * (len(fan.rays) - 1))
    assert cycles.pair(rep2, plane) in (-1, 1)
    principal = cycles.principal_divisor_weights(fan, (1, -2, 3))
    assert cycles.pair(rep2, cycles.divisor_combination(cx, principal)) == 0


def test_vanishing_above_diagonal_and_h_p0():
    for name in ["blowup_p2", "hirzebruch(2)", "p3"]:
        cx = tropspace.tautological_complex(fans.builtin(name))
        table = betti_table(cx)
        n = len(table) - 1
        for p in range(n + 1):
            for q in range(p + 1, n + 1):
                assert table[p][q] == 0, (name, p, q)
        for p in range(1, n + 1):
            assert table[p][0] == 0, (name, p)


def test_cech_matches_cellular():
    for cx in small_complexes():
        n = cx.base_fan.ambient_rank
        for p in range(n + 1):
            for q in range(n + 1):
                assert cech_oracle(cx, p, q) == cohomology.cohomology(cx, p, q).dim


def test_cech_rejects_oversized():
    cx = tropspace.tautological_complex(fans.builtin("p3"))
    assert len(cx.cells) > 50
    with pytest.raises(ValueError):
        cech_oracle(cx, 0, 0)


def test_fan_structure_independence_complete():
    for name in ["p2", "hirzebruch(1)"]:
        fan = fans.builtin(name)
        n = fan.ambient_rank
        torus = fans.torus(n)
        top = fan.cones_of_dim(n)[0]
        ray = tuple(sum(col) for col in zip(*top.rays))
        refined = fans.star_subdivision(fan, ray)
        before = betti_table(tropspace.tautological_complex(torus, fan))
        after = betti_table(tropspace.tautological_complex(torus, refined))
        assert before == after, name
        assert before == betti_table(oracles.torus_complex(n)), name


def test_fan_structure_independence_open():
    torus2 = fans.torus(2)
    sub = fans.star_subdivision(fans.orthant_fan(2), (1, 1))
    assert betti_table(oracles.refined_complex(torus2, sub)) == betti_table(
        oracles.torus_complex(2)
    )
    a2 = fans.affine_space(2)
    sub = fans.star_subdivision(fans.completion(a2), (-1, -1))
    assert betti_table(oracles.refined_complex(a2, sub)) == betti_table(
        oracles.affine_complex(2)
    )


def test_betti_serializers():
    table = [[1, 0], [0, 1]]
    tsv = cohomology.betti_to_tsv(table)
    assert tsv.splitlines()[1] == "0\t1\t0"
    assert '"dim": 1' in cohomology.betti_to_json(table)


def test_differentials_reach_the_elimination_as_rows(monkeypatch):
    """No dense differential on the cohomology, E_2 or pairing path.

    On a fresh P^3 complex, with its geometry (cell spans, F_p, face
    poset) built first and a cycle made, ``cohomology``, ``e2_page`` and
    ``pair`` never read ``CochainComplex.deltas``, the one dense view.
    """
    from trophodge import cycles

    fan = fans.builtin("p3")
    cx = tropspace.tautological_complex(fan)
    cx.face_poset()
    for cell in cx.cells:
        for p in range(4):
            cx.f_lower(cell, p)
    weight = cycles.MinkowskiWeight(fan, 2, dict.fromkeys(fan.cones_of_dim(1), 1))
    line = cycles.cycle_class(cx, weight)
    weightss.e2_page.cache_clear()

    def forbidden(self):
        raise AssertionError("a differential was densified")

    monkeypatch.setattr(cohomology.CochainComplex, "deltas", property(forbidden))
    dims = [cohomology.cohomology(cx, p, q).dim for p in range(4) for q in range(4)]
    assert dims == [int(p == q) for p in range(4) for q in range(4)]
    assert weightss.e2_page(fan).table() == diag_table(3, [1, 1, 1, 1])
    (rep,) = cohomology.cohomology(cx, 1, 1).representatives
    assert cycles.pair(rep, line) in (-1, 1)


@pytest.mark.parametrize("fan", [fans.projective_space(4), fans.orthant_fan(3)],
                         ids=["p4", "orthant3"])
def test_deltas_are_the_rows_as_integer_matrices(fan):
    """The benchmark's dense view: ``deltas`` is a tuple of integer
    ``ZMatrix``es, delta_q of shape dim C^{q+1} x dim C^q, whose nonzero
    entries are exactly ``rows``, so its nnz and rank are theirs."""
    cx = tropspace.tautological_complex(fan)
    for p in range(fan.ambient_rank + 1):
        cc = build_cochain_complex(cx, p)
        deltas = cc.deltas
        assert type(deltas) is tuple and len(deltas) == len(cc.rows)
        for q, (delta, rows) in enumerate(zip(deltas, cc.rows)):
            assert type(delta) is exactla.ZMatrix
            assert (delta.rows, delta.cols) == (cc.space_dim(q + 1), cc.space_dim(q))
            assert all(type(x) is int for row in delta.entries for x in row)
            nonzero = [{j: x for j, x in enumerate(row) if x} for row in delta.entries]
            assert nonzero == rows
            assert sum(map(len, nonzero)) == sum(map(len, rows))
            assert exactla.sparse_rank(nonzero) == exactla.sparse_rank(rows) == cc.rank(q)


def test_p4_delta_is_written_from_blocks_without_face_maps():
    """Every F_p of P^4 is full, so each face map is the identity or a
    stratum wedge, written from one block per pair of sedentarities:
    building the complex for every p, from empty ``fans.stratum_map``
    and ``wedge_columns`` caches, makes one stratum projection per such
    pair, never one per pair of cells, and reads the 505 (pair, p) blocks
    from fewer minors, one entry per distinct (matrix content, p)."""
    cx = tropspace.tautological_complex(fans.projective_space(4))
    seds = {
        (cx.cells[c].sedentarity, cx.cells[f].sedentarity)
        for f, c, _ in cx.face_poset()
    }
    fans.stratum_map.cache_clear()
    exactla.wedge_columns.cache_clear()
    for p in range(5):
        build_cochain_complex(cx, p)
    assert len(seds) < len(cx.face_poset())
    assert fans.stratum_map.cache_info().misses == len(seds) == 101
    minors = exactla.wedge_columns.cache_info()
    assert minors.misses == minors.currsize == 105 < 5 * len(seds)
    assert betti_table(cx) == diag_table(4, [1, 1, 1, 1, 1])


def test_each_delta_is_written_once(monkeypatch):
    """Representatives read the rows one CochainComplex holds.

    A P^4 Betti table writes no delta_q of the cells: it ranks the orbit
    complex, whose writes (made here from an empty cache) are not counted.
    On P^4 afterwards, and on a fresh P^3 complex, ``cohomology`` writes
    delta_{q-1} and delta_q of the cells only, each once.
    """
    writes = []
    write = cohomology.CochainComplex._write

    def counting(cc, q):
        writes.append((cc, q))
        return write(cc, q)

    def cell_writes(cx):
        return sorted((cc.p, q) for cc, q in writes if cc in cx.cochains.values())

    cohomology.orbit_cochains.cache_clear()
    monkeypatch.setattr(cohomology.CochainComplex, "_write", counting)
    cx = tropspace.tautological_complex(fans.projective_space(4))
    assert betti_table(cx) == diag_table(4, [1, 1, 1, 1, 1])
    assert writes and cell_writes(cx) == []
    assert cohomology.cohomology(cx, 2, 2).dim == 1
    assert cohomology.cohomology(cx, 2, 2).dim == 1
    assert cell_writes(cx) == [(2, 1), (2, 2)]
    cx = tropspace.tautological_complex(fans.builtin("p3"))
    assert cohomology.cohomology(cx, 2, 2).dim == 1
    assert cell_writes(cx) == [(2, 1), (2, 2)]


def test_value_records_compare_hash_and_show_their_fields():
    """The plain value classes keep the frozen-dataclass behaviour: equality
    and hash by class and fields, a ``Name(field=value)`` repr, and no
    assignment; a page with a dict field is unhashable, as before."""
    from trophodge.tropspace import Cell

    res = cohomology.CohomologyResult(1, 2, dim=0, representatives=())
    assert res == cohomology.CohomologyResult(1, 2, 0, ())
    assert hash(res) == hash((1, 2, 0, ()))
    assert res != (1, 2, 0, ()) and res != cohomology.CohomologyResult(1, 2, 1, ())
    assert repr(res) == "CohomologyResult(p=1, q=2, dim=0, representatives=())"
    with pytest.raises(AttributeError):
        res.dim = 1
    with pytest.raises(TypeError):
        cohomology.CohomologyResult(1, 2, 0)
    page = weightss.SSPage(2, 1, {(0, 0): 1})
    assert page == weightss.SSPage(level=2, rank=1, dims={(0, 0): 1})
    assert repr(page) == "SSPage(level=2, rank=1, dims={(0, 0): 1})"
    with pytest.raises(TypeError):
        hash(page)
    ray, zero = fans.Cone(2, [(1, 0)]), fans.Cone(2, [])
    cell = Cell(zero, ray)
    assert cell == Cell(zero, ray) and hash(cell) == hash(Cell(zero, ray))
    assert cell.dim == 1 and cell != Cell(ray, ray)
    assert repr(cell) == f"Cell(sedentarity={zero!r}, tau={ray!r})"
    with pytest.raises(AttributeError):
        cell.tau = zero
