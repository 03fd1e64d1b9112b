"""One sha256 over the outputs of the cycle layer and its lattice tests.

It covers:

* the ``surface_intersection_matrix`` of the smooth complete zoo surfaces
  and of the same surfaces moved by a seeded unimodular change of
  coordinates;
* the ``balancing_check`` defects, in order, of every unit weight and of
  one seeded integer weight per codimension, and the ``chow_space`` basis
  of every codimension, on the complete zoo fans and P^4;
* the ``cycle_class`` chain of each Chow basis vector and the
  ``divisor_cycle`` chain of every ray of the same fans;
* ``is_smooth`` of every zoo cone, of a cone of index two and of the
  cones of the fan over the faces of a cube;
* ``is_boundary_closed`` of the tautological complex of every zoo fan and
  of the complex ``trop_complex_for`` builds for it.

A change to the arithmetic of balancing, volume elements, intersection
numbers, smoothness or the face scan of a complex shows up here.
"""

import hashlib
import random

from test_fan_digest import moved_zoo

from trophodge import cycles, fans, tropspace, weightss
from trophodge.fans import Cone, Fan

GOLDEN_CYCLES = "8d1474a10132d90d564ea46e0815d8d4dd207500597dbad174c8ffb77ebbaec6"

SEED = 4690

CUBE_VERTICES = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
CUBE_FAN = Fan(3, [
    [v for v in CUBE_VERTICES if v[axis] == side]
    for axis in range(3)
    for side in (1, -1)
])


def _complete_fans():
    named = [(name, fans.builtin(name)) for name in fans.BUILTIN_ZOO]
    named = [(name, fan) for name, fan in named if fans.is_complete(fan)]
    named.append(("projective_space(4)", fans.projective_space(4)))
    return named


def _surfaces():
    named = [(name, fan) for name, fan in _complete_fans() if fan.ambient_rank == 2]
    named += [(name, Fan(n, cones)) for name, n, cones in moved_zoo() if n == 2]
    return named


def _weights(rng, fan, codim):
    cones = fan.cones_of_dim(fan.ambient_rank - codim)
    for cone in cones:
        yield cycles.MinkowskiWeight(fan, codim, {cone: 1})
    yield cycles.MinkowskiWeight(
        fan, codim, {cone: rng.randint(-3, 3) for cone in cones}
    )


def _records():
    rng = random.Random(SEED)
    for name, fan in _surfaces():
        yield ("intersection", name, cycles.surface_intersection_matrix(fan))
    for name, fan in _complete_fans():
        n = fan.ambient_rank
        cx = weightss.trop_complex_for(fan)
        for codim in range(n + 1):
            defects = [cycles.balancing_check(mw) for mw in _weights(rng, fan, codim)]
            yield ("defects", name, codim, defects)
            chow = cycles.chow_space(fan, codim)
            yield ("chow", name, codim, chow.basis)
            cones = fan.cones_of_dim(n - codim)
            for vec in chow.basis:
                mw = cycles.MinkowskiWeight(fan, codim, dict(zip(cones, vec)))
                yield ("cycle", name, codim, cycles.cycle_class(cx, mw).chain)
        for ray in fan.rays:
            yield ("divisor", name, ray, cycles.divisor_cycle(cx, ray).chain)
    smooth_cones = [c for name in fans.BUILTIN_ZOO for c in fans.builtin(name).cones]
    smooth_cones.append(Cone(2, [(1, 0), (1, 2)]))
    smooth_cones += CUBE_FAN.cones
    yield ("smooth", [(c, fans.is_smooth(c)) for c in smooth_cones])
    for name in fans.BUILTIN_ZOO:
        fan = fans.builtin(name)
        for cx in (tropspace.tautological_complex(fan), weightss.trop_complex_for(fan)):
            yield ("closed", name, len(cx.cells), cx.is_boundary_closed())


def test_cycle_outputs_match_the_golden_digest():
    h = hashlib.sha256()
    for record in _records():
        h.update(repr(record).encode())
        h.update(b"\n")
    assert h.hexdigest() == GOLDEN_CYCLES
