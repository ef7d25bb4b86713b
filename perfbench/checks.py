"""Output checks that use only the benchmark's own exact arithmetic.

Nothing here imports the package under test: model documents and reports
are parsed from JSON and every claim is recomputed with ``Fraction``.  Each
check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

from fractions import Fraction


class ModelData:
    """Curve Gram, ample pairings and divisor pairings of a model document."""

    def __init__(self, doc: dict):
        self.full = doc["mode"] == "full_lattice"
        self.gram = [[Fraction(x) for x in row] for row in doc["gram"]]
        self.names = [c["name"] for c in doc["curves"]]
        if self.full:
            self.coords = [[Fraction(x) for x in c["coords"]] for c in doc["curves"]]
            self.ample = [Fraction(x) for x in doc["ample"]["coords"]]
            self.curve_gram = [[self._form(u, v) for v in self.coords] for u in self.coords]
            self.ample_dots = [self._form(self.ample, c) for c in self.coords]
            self.ample_self = self._form(self.ample, self.ample)
        else:
            self.curve_gram = self.gram
            self.ample_dots = [Fraction(x) for x in doc["ample"]["dots"]]
            self.ample_self = Fraction(doc["ample"]["self"])
        self.index = {name: i for i, name in enumerate(self.names)}
        if self.full:
            form = self.gram
        else:
            form = [[self.ample_self] + self.ample_dots] + [
                [h] + row for h, row in zip(self.ample_dots, self.curve_gram)
            ]
        # Hodge index: one positive direction.  Seeded random configurations
        # need not have it, and without it the positive cone need not be big.
        self.hyperbolic = positive_inertia(form) == 1

    def _form(self, u, v) -> Fraction:
        return sum(
            (u[i] * self.gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v))),
            Fraction(0),
        )

    def divisor(self, doc) -> tuple:
        """(coords, None, None) in full-lattice mode, else (None, t, a)."""
        if isinstance(doc, list):
            return ([Fraction(x) for x in doc], None, None)
        if "coords" in doc:
            return ([Fraction(x) for x in doc["coords"]], None, None)
        return (None, Fraction(doc["t"]), [Fraction(x) for x in doc["a"]])

    def dots(self, d) -> list[Fraction]:
        coords, t, a = d
        if coords is not None:
            return [self._form(coords, c) for c in self.coords]
        n = len(self.names)
        return [
            t * self.ample_dots[j] + sum((a[i] * self.curve_gram[i][j] for i in range(n)), Fraction(0))
            for j in range(n)
        ]

    def square(self, d) -> Fraction:
        coords, t, a = d
        if coords is not None:
            return self._form(coords, coords)
        return t * t * self.ample_self + 2 * t * sum(
            (x * h for x, h in zip(a, self.ample_dots)), Fraction(0)
        ) + sum((a[i] * a[j] * self.curve_gram[i][j]
                 for i in range(len(a)) for j in range(len(a))), Fraction(0))

    def ample_pairing(self, d) -> Fraction:
        coords, t, a = d
        if coords is not None:
            return self._form(coords, self.ample)
        return t * self.ample_self + sum((x * h for x, h in zip(a, self.ample_dots)), Fraction(0))

    def negative_definite(self, support: list[int]) -> bool:
        """Sylvester test by exact symmetric elimination."""
        a = [[self.curve_gram[i][j] for j in support] for i in support]
        k = len(a)
        for p in range(k):
            if a[p][p] >= 0:
                return False
            for r in range(p + 1, k):
                f = a[r][p] / a[p][p]
                for c in range(p, k):
                    a[r][c] -= f * a[p][c]
        return True


def positive_inertia(form) -> int:
    """Number of positive squares of a symmetric form, by exact symmetric
    elimination (a zero diagonal is fixed by e_i <- e_i + e_j first)."""
    a = [list(row) for row in form]
    active = list(range(len(a)))
    positive = 0
    while active:
        p = next((i for i in active if a[i][i] != 0), None)
        if p is None:
            pair = next(((i, j) for i in active for j in active if j > i and a[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            for c in active:
                a[i][c] += a[j][c]
            for r in active:
                a[r][i] += a[r][j]
            continue
        d = a[p][p]
        positive += d > 0
        active.remove(p)
        for i in active:
            f = a[i][p] / d
            for j in active:
                a[i][j] -= f * a[p][j]
    return positive


def check_chambers(m: ModelData, report: dict) -> list[str]:
    problems = []
    bij = report["bijection"]
    if not bij["equal"] or bij["only_zariski"] or bij["only_weyl"]:
        problems.append("bijection does not hold: %r" % (bij,))
    families = {}
    for kind in ("zariski", "weyl"):
        supports = set()
        for entry in report[kind]["family"]:
            support = [m.index[name] for name in entry["support"]]
            supports.add(frozenset(support))
            d = m.divisor(entry["witness"])
            dots = m.dots(d)
            inside = set(support)
            if kind == "weyl":
                _, t, a = d
                ok = t == 1 and all(x >= 0 for x in a) and all(
                    (dots[j] < 0) if j in inside else (dots[j] > 0) for j in range(len(dots))
                )
            else:
                ok = m.negative_definite(sorted(support)) and all(
                    (dots[j] == -1) if j in inside else (dots[j] > 0) for j in range(len(dots))
                )
            if not ok:
                problems.append("%s witness for %r has the wrong sign pattern" % (kind, entry["support"]))
        families[kind] = supports
    if families["zariski"] != families["weyl"]:
        problems.append("zariski and weyl support families differ")
    return problems


def check_decompose(m: ModelData, divisor, code: int, report: dict) -> list[str]:
    d = m.divisor(divisor)
    if code == 3:
        err = report.get("error", {})
        if err.get("code") != "not_big":
            return ["exit 3 with error %r" % (err,)]
        if m.hyperbolic and m.square(d) > 0 and m.ample_pairing(d) > 0:
            return ["divisor in the positive cone of a hyperbolic model reported as not big"]
        return []
    problems = []
    p = m.divisor(report["P"])
    p_dots = m.dots(p)
    neg = [m.index[name] for name in report["neg_set"]]
    null = [m.index[name] for name in report["null_set"]]
    if any(x < 0 for x in p_dots):
        problems.append("P meets a curve negatively")
    if any(p_dots[j] != 0 for j in neg):
        problems.append("P is not orthogonal to the negative set")
    if sorted(null) != [j for j, x in enumerate(p_dots) if x == 0]:
        problems.append("null set differs from the curves orthogonal to P")
    coeffs = {m.index[name]: Fraction(x) for name, x in report["N"].items()}
    if sorted(coeffs) != sorted(neg) or any(x <= 0 for x in coeffs.values()):
        problems.append("N coefficients are not positive on exactly the negative set")
    # D - P must equal N = sum b_j C_j
    coords, t, a = d
    pc, pt, pa = p
    if coords is not None:
        rest = [x - y for x, y in zip(coords, pc)]
        want = [sum((b * m.coords[j][k] for j, b in coeffs.items()), Fraction(0))
                for k in range(len(coords))]
    else:
        rest = [t - pt] + [x - y for x, y in zip(a, pa)]
        want = [Fraction(0)] + [coeffs.get(j, Fraction(0)) for j in range(len(a))]
    if rest != want:
        problems.append("D - P is not the reported negative part")
    vol = m.square(p)
    if Fraction(report["volume"]) != vol or vol <= 0:
        problems.append("volume %s is not P^2 = %s > 0" % (report["volume"], vol))
    return problems


def check_plot(m: ModelData, res: int, report: dict, svg: bytes) -> list[str]:
    problems = []
    if not svg.startswith(b"<?xml") or not svg.endswith(b"</svg>\n"):
        problems.append("SVG document is truncated")
    if report.get("resolution") != res:
        problems.append("report resolution %r" % report.get("resolution"))
    text = svg.decode("utf-8")
    for kind in ("weyl", "zariski"):
        panel = report["panels"][kind]
        if panel["regions"] < 1 or panel["regions"] != len(panel["supports"]):
            problems.append("%s panel has no regions" % kind)
        for support in panel["supports"]:
            if support and ",".join(support) not in text:
                problems.append("%s region %r has no label" % (kind, support))
            if any(name not in m.index for name in support):
                problems.append("unknown curve in %r" % support)
    return problems
