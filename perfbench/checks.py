"""The exact output gate: one check per exact claim of a workload.

The checks are planned from the inputs alone, so a unit of work that raised
or returned nothing fails every check it owed instead of vanishing from the
count.  Each plan yields (name, thunk) pairs; a thunk is called as soon as it
is yielded, so it may read the loop variables of its plan.
"""

from __future__ import annotations

from fractions import Fraction


def rank(rows):
    """Exact rank of a small rational matrix (list of rows)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _zoo(inputs, results):
    for entry in inputs["fans"]:
        r = results.get(entry["name"], {})
        n = entry["rank"]
        betti = r.get("betti")
        idx = [(p, q) for p in range(n + 1) for q in range(n + 1)]
        yield "e2_matches_tropical", lambda: r["compare_pass"] is True
        yield "vanishing_above_diagonal", lambda: all(
            betti[p][q] == 0 for p, q in idx if q >= p + 1)
        yield "table_matches_closed_form", lambda: betti == entry["expected"]
        if not entry["complete"]:
            continue
        yield "euler_vs_h_vector", lambda: r["euler_pass"] is True
        yield "chow_matches_diagonal", lambda: all(
            r["chow"][p] == betti[p][p] for p in range(n + 1))
        yield "vanishing_h_p0", lambda: all(betti[p][0] == 0 for p in range(1, n + 1))
        yield "diag_matches_h_vector", lambda: all(
            betti[p][p] == r["h_betti"][2 * p] for p in range(n + 1))
        if n == 2:
            yield "numerical_kernels", lambda: r["numerical_pass"] is True


def _p4(inputs, results):
    entry = inputs["fans"][0]
    r = results.get(entry["name"], {})
    n = entry["rank"]
    for p in range(n + 1):
        for q in range(n + 1):
            yield "table", lambda: r["betti"][p][q] == entry["expected"][p][q]
            yield "e2_equals_table", lambda: r["e2"][p][q] == r["betti"][q][p]
        yield "chow_dim_one", lambda: r["chow"][p] == 1


def _pairing(inputs, results):
    for entry in inputs["fans"]:
        n = entry["rank"]
        for c in range(1, n):
            r = results.get(entry["name"], {}).get(str(c), {})
            h = entry["h_diag"][n - c]
            weights = [w for w in entry["weights"] if w["codim"] == c]
            yield "reps_dim", lambda: r["dim"] == h
            for k in range(2 * len(weights)):
                yield "balanced", lambda: r["balanced"][k] is True
            yield "pairing_rank", lambda: rank(r["unit"]) == h
            for k, w in enumerate(weights):
                yield "scaled_pairing", lambda: [
                    Fraction(x) for x in r["scaled"][k]
                ] == [Fraction(w["scale"]) * Fraction(x) for x in r["unit"][k]]
            if c == 1:
                for k in range(len(entry["characters"])):
                    yield "principal_pairs_zero", lambda: all(
                        Fraction(x) == 0 for x in r["principal"][k])


def run_checks(inputs, results):
    """(attempted, [names of failed checks]) for one run's results."""
    plan = {"zoo": _zoo, "p4": _p4, "pairing": _pairing}[inputs["workload"]]
    attempted, failed = 0, []
    for name, check in plan(inputs, results):
        attempted += 1
        try:
            ok = check()
        except (KeyError, IndexError, TypeError):
            ok = False
        if not ok:
            failed.append(name)
    return attempted, failed
