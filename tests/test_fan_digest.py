"""One sha256 over the geometry of every cone the fan layer builds.

It covers the built-in zoo, ``orthant(4)``, P^4, and every complete zoo
fan moved by a seeded unimodular change of coordinates.  Each cone of each
fan contributes its rays, its dimension and its facet normals with their
facets, the normals read as int tuples.  The ``fan-validate`` and
``subdivide`` output of the same fans is pinned alongside, so a change to
the arithmetic of the fan layer that alters any ray, normal, face or
report shows up here.
"""

import hashlib
import json
import random

from trophodge import cli, fans

GOLDEN_FANS = "70a4315575e56149aa2389325a1207daf9748adfedebd41fe3bcc874a4ec9984"

SEED = 20201


def _shears(rng, n, count=3):
    """A seeded matrix of GL_n(Z): a sign flip for n = 1, else +-1 shears."""
    if n == 1:
        return [[-1]]
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in rng.sample(pairs, min(count, len(pairs))):
        s = rng.choice((1, -1))
        mat[i] = [a + s * b for a, b in zip(mat[i], mat[j])]
    return mat


def moved_zoo():
    """(name, rank, maximal cones as ray lists) of each complete zoo fan moved
    by a seeded unimodular change of coordinates."""
    rng = random.Random(SEED)
    out = []
    for name in fans.BUILTIN_ZOO:
        fan = fans.builtin(name)
        if not fans.is_complete(fan):
            continue
        n = fan.ambient_rank
        mat = _shears(rng, n)
        cones = [
            [tuple(sum(a * x for a, x in zip(row, r)) for row in mat) for r in c.rays]
            for c in fan.maximal_cones
        ]
        out.append((f"moved {name}", n, cones))
    return out


def digest_fans():
    named = [(name, fans.builtin(name)) for name in fans.BUILTIN_ZOO]
    named.append(("orthant(4)", fans.orthant_fan(4)))
    named.append(("projective_space(4)", fans.projective_space(4)))
    named += [(name, fans.Fan(n, cones)) for name, n, cones in moved_zoo()]
    return named


def _geometry(fan):
    for cone in fan.cones:
        normals = tuple(
            (tuple(int(c) for c in normal), facet_rays)
            for normal, facet_rays in cone.facet_normals()
        )
        yield (cone.rays, cone.dim, normals)


def _cli(capsys, tmp_path, command, fan, *extra):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fans.to_json_dict(fan)))
    code = cli.main([command, "--input", str(path), *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subdivision_ray(fan):
    """The ray sum of the first maximal cone, or e_1 on a torus."""
    top = fan.maximal_cones[0]
    if top.is_zero:
        return (1,) + (0,) * (fan.ambient_rank - 1)
    return tuple(sum(col) for col in zip(*top.rays))


def _records(capsys, tmp_path):
    for name, fan in digest_fans():
        yield ("geometry", name, tuple(_geometry(fan)))
        yield ("fan-validate", name, _cli(capsys, tmp_path, "fan-validate", fan))
        ray = ",".join(str(x) for x in _subdivision_ray(fan))
        subdivided = _cli(capsys, tmp_path, "subdivide", fan, f"--ray={ray}")
        yield ("subdivide", name, ray, subdivided)


def test_fan_geometry_and_reports_match_the_golden_digest(capsys, tmp_path):
    h = hashlib.sha256()
    for record in _records(capsys, tmp_path):
        h.update(repr(record).encode())
        h.update(b"\n")
    assert h.hexdigest() == GOLDEN_FANS
