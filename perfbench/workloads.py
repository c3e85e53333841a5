"""Seeded inputs and call lists of the three workloads.

Each generator gets the workload's work directory (relative to the repository
root, which is the working directory of every call) and a seeded
`random.Random`.  It writes the generated problem and point files, and
returns the set-up calls (which make or validate those files) and the fixed
call list of one round.  Every expected exit code and report value below
follows from the construction or from the README and test expectations.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from calls import Call

# r = 3 throughout; n = 10 leaves the finitely generated range, and its trdeg
# elimination alone takes seconds
NAGATA_NS = (6, 7, 8, 9)
NAGATA_COORD_RANGE = 5
# (characteristic, Frobenius-twisted, z0 degree d_i per coordinate).  The
# degrees stay fixed: their order alone moves an F_2 s = 4 check_alpha_pair
# between 0.29 s and 7.5 s; s = 5 shears take ~9 s per check.
VECTOR_KINDS = (("2", False, (1, 1, 1, 1)), ("odd", False, (1, 1, 2)),
                ("2", True, (1, 1, 1)), ("odd", True, (1, 1, 1)))
SHEAR_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
TWIST_PRIMES = (3, 5)
# k = 7 makes the Krull-dimension subset search take ~8 s
UNITRIANGULAR_KS = (4, 5, 6)


@dataclass
class Workload:
    setup: list      # calls that produce or validate the generated files
    round: list      # the fixed call list, timed


def _ok(*argv, keys=(), counts=()):
    return Call(tuple(argv), 0, tuple(keys), tuple(counts))


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _signed(terms):
    """Join (coefficient, monomial) terms into problem-file syntax."""
    parts = []
    for coeff, mono in terms:
        if coeff == 0:
            continue
        mag = abs(coeff)
        body = mono if mag == 1 and mono else \
            (f"{mag}*{mono}" if mono else f"{mag}")
        if not parts:
            parts.append(("-" if coeff < 0 else "") + body)
        else:
            parts.append((" - " if coeff < 0 else " + ") + body)
    return "".join(parts) or "0"


# -- nagata-q ---------------------------------------------------------------


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def general_position_points(rng, n, bound=NAGATA_COORD_RANGE):
    """n distinct integer points of Q^3 with every 3x3 minor nonzero.

    The first three are the standard basis: the vector subgroup depends on
    the point matrix only up to a linear change of coordinates of Q^3, so
    this loses no configuration, and it keeps the nullspace integral.  The
    others have nonzero coordinates in [-bound, bound]."""
    values = [v for v in range(-bound, bound + 1) if v]
    while True:
        pts = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        pts += [[rng.choice(values) for _ in range(3)] for _ in range(n - 3)]
        if len({tuple(p) for p in pts}) == n and \
                all(_det3([pts[i] for i in c]) for c in combinations(range(n), 3)):
            return pts


def nagata_probes(points):
    """The classical invariants of the Nagata action on D(x_1...x_n): the
    x_i, and for each column j the sum of p_ij * x_(n+i) * prod_(l != i) x_l."""
    n = len(points)
    probes = [f"x{i}" for i in range(1, n + 1)]
    for j in range(3):
        terms = []
        for i in range(n):
            mono = "*".join([f"x{n + i + 1}"] +
                            [f"x{l + 1}" for l in range(n) if l != i])
            terms.append((points[i][j], mono))
        probes.append(_signed(terms))
    return probes


def mukai(n, r=3):
    return Fraction(1, r) + Fraction(1, n - r) >= Fraction(1, 2)


def nagata_q(work: Path, rng) -> Workload:
    setup, rnd = [], []
    for n in NAGATA_NS:
        points = general_position_points(rng, n)
        pts = _write(work / f"nagata-{n}.pts",
                     "".join(" ".join(map(str, p)) + "\n" for p in points))
        prob = str(work / f"nagata-{n}.prob")
        s = str(n - 3)
        fg = "true" if mukai(n) else "false"
        emit = _ok("nagata", str(n), "3", "--points", pts, "--emit", prob,
                   keys=[("group-dim", s), ("finitely-generated", fg),
                         ("emitted", prob)],
                   counts=[("oracle", None, n + 3)])
        setup += [emit, _ok("check-action", prob)]
        rnd += [
            emit,
            _ok("mukai", str(n), "3", keys=[("finitely-generated", fg)]),
            _ok("check-pair", prob, "--pair", "1",
                keys=[("identity", "pass"), ("trdeg", s),
                      ("classification", "principle")]),
            _ok("trdeg", prob, "--pair", "1",
                keys=[("trdeg", s), ("equals-group-dim", "true"),
                      ("jacobian-rank", s)]),
            _ok("invariants", prob, "--pair", "1",
                *[f"--probe={p}" for p in nagata_probes(points)],
                keys=[("classification", "principle"),
                      ("postcondition-invariant", "pass")],
                counts=[("probe[", "pass", n + 3)]),
        ]
    return Workload(setup, rnd)


# -- vector-fp --------------------------------------------------------------


def vector_problem(p, s, twisted, coeffs, degrees):
    """Shear z_i -> z_i + c_i * t_i^e * z0^d_i of the vector group G_a^s over
    F_p, with e = p and endo t_i = t_i^p when twisted (e = 1 and the identity
    endo otherwise), and the pair g_i = z_i, h_i = c_i * z0^d_i."""
    e = p if twisted else 1
    t = [f"t{i}" for i in range(1, s + 1)]
    lines = ["version 1", f"field Fp {p}",
             "ring " + " ".join(f"z{i}" for i in range(s + 1)),
             f"group dim {s} coords " + " ".join(t)]
    lines += [f"mult t{i} = a{i} + b{i}" for i in range(1, s + 1)]
    lines += [f"inv t{i} = -t{i}" for i in range(1, s + 1)]
    lines += [f"endo {ti} = {ti}^{e}" for ti in t]
    lines.append("act z0 = z0")
    lines += [f"act z{i} = z{i} + {c}*{ti}^{e}*z0^{d}"
              for i, (ti, c, d) in enumerate(zip(t, coeffs, degrees), start=1)]
    lines += [f"pair 1 g z{i}" for i in range(1, s + 1)]
    lines += [f"pair 1 h {c}*z0^{d}" for c, d in zip(coeffs, degrees)]
    return "\n".join(lines) + "\n"


def vector_fp(work: Path, rng) -> Workload:
    setup, rnd = [], []
    for idx, (char, twisted, degrees) in enumerate(VECTOR_KINDS, start=1):
        if char == "2":
            p = 2
        else:
            p = rng.choice(TWIST_PRIMES if twisted else SHEAR_PRIMES)
        s = len(degrees)
        coeffs = [rng.randrange(1, p) for _ in range(s)]
        prob = _write(work / f"vector-{idx}.prob",
                      vector_problem(p, s, twisted, coeffs, degrees))
        induced = str(work / f"vector-{idx}-induced.prob")
        cover = str(work / f"vector-{idx}-cover.prob")
        sv = str(s)
        label = "quasi-principle" if twisted else "principle"
        setup.append(_ok("check-action", prob))
        rnd += [
            _ok("check-endo", prob, keys=[("surjective", "true")]),
            _ok("check-pair", prob, "--pair", "1",
                keys=[("identity", "pass"), ("trdeg", sv),
                      ("separable", "true"), ("classification", label)]),
            _ok("trdeg", prob, "--pair", "1",
                keys=[("trdeg", sv), ("equals-group-dim", "true"),
                      ("separable", "true")]),
            _ok("factor", prob, "--emit", induced,
                keys=[("induced-law-valid", "pass"),
                      ("induced-action-valid", "pass"),
                      ("defining-identity", "pass"), ("emitted", induced)]),
            _ok("invariants", induced, "--pair", "1", "--probe", "z0",
                keys=[("classification", "principle"), ("f[z0]", "z0")]
                + [(f"f[z{i}]", "0") for i in range(1, s + 1)],
                counts=[("probe[", "pass", 1)]),
            _ok("fppf", prob, "--pair", "1", "--emit", cover,
                keys=[("classification", label),
                      ("cover-pair-trdeg", sv),
                      ("cover-pair-classification", "principle"),
                      ("emitted", cover)]),
            _ok("check-pair", cover, "--pair", "1",
                keys=[("trdeg", sv), ("classification", "principle"),
                      ("H", "1")]),
        ]
    return Workload(setup, rnd)


# -- unipotent-desk ---------------------------------------------------------


def unitriangular_problem(k, rng):
    """Left-regular self-action of U_k in rescaled coordinates.

    Coordinate t_ij (i < j) is c_ij times the matrix entry, so the product
    is m_ij = a_ij + b_ij + sum_l c_ij/(c_il*c_lj) * a_il * b_lj; the action
    is z -> m(t, z) and the pair (z, 1) is principle with trdeg k(k-1)/2.
    Ring variables are declared in seeded order."""
    idx = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    pos = {ij: n for n, ij in enumerate(idx, start=1)}
    scale = {ij: rng.choice((-3, -2, -1, 1, 2, 3)) for ij in idx}

    def weight(i, l, j):
        return Fraction(scale[(i, j)], scale[(i, l)] * scale[(l, j)])

    def t(ij):
        return f"t{ij[0]}_{ij[1]}"

    def z(ij):
        return f"z{ij[0]}_{ij[1]}"

    inverse = {}
    for gap in range(1, k):
        for i in range(1, k + 1 - gap):
            j = i + gap
            # m(x, t) = 0 solved for x_ij, entries of smaller gap first
            expr = f"-{t((i, j))}"
            for l in range(i + 1, j):
                expr += f" - ({weight(i, l, j)})*({inverse[(i, l)]})*{t((l, j))}"
            inverse[(i, j)] = expr

    ring_order = list(idx)
    rng.shuffle(ring_order)
    lines = ["version 1", "field Q", "ring " + " ".join(z(ij) for ij in ring_order),
             f"group dim {len(idx)} coords " + " ".join(t(ij) for ij in idx)]
    for (i, j) in idx:
        terms = [(1, f"a{pos[(i, j)]}"), (1, f"b{pos[(i, j)]}")]
        terms += [(weight(i, l, j), f"a{pos[(i, l)]}*b{pos[(l, j)]}")
                  for l in range(i + 1, j)]
        lines.append(f"mult {t((i, j))} = {_signed(terms)}")
    lines += [f"inv {t(ij)} = {inverse[ij]}" for ij in idx]
    for (i, j) in ring_order:
        terms = [(1, t((i, j))), (1, z((i, j)))]
        terms += [(weight(i, l, j), f"{t((i, l))}*{z((l, j))}")
                  for l in range(i + 1, j)]
        lines.append(f"act {z((i, j))} = {_signed(terms)}")
    lines += [f"pair 1 g {z(ij)}" for ij in idx]
    lines += ["pair 1 h 1" for _ in idx]
    return "\n".join(lines) + "\n", [z(ij) for ij in ring_order]


BAD_FILES = {
    # tests/test_cli.py: Fp 4 is refused (exit 2), x + y + x*y has inverse
    # other than -t, z -> z + t*z breaks compatibility, t^2 is not additive
    "bad-field.prob": "field Fp 4\nring z\n",
    "bad-law.prob": "field Q\nring z\ngroup dim 1 coords t\n"
                    "mult t = a1 + b1 + a1*b1\ninv t = -t\nact z = z\n",
    "bad-action.prob": "field Q\nring z\ngroup dim 1 coords t\n"
                       "mult t = a1 + b1\ninv t = -t\nact z = z + t*z\n",
    "bad-endo.prob": "field Q\nring z\ngroup dim 1 coords t\n"
                     "mult t = a1 + b1\ninv t = -t\nendo t = t^2\nact z = z\n",
}


def _corpus(work: Path) -> list:
    """Every README verb on the shipped problems, with the exit-1 and exit-2
    cases of tests/test_cli.py and the commands of acceptance criteria 8 and
    10."""
    P = "problems/"
    w = {name: _write(work / name, text) for name, text in BAD_FILES.items()}
    pts = _write(work / "nagata-2-1.pts", "1\n2\n")
    degenerate = _write(work / "degenerate.pts", "1\n0\n")
    induced = str(work / "e2-induced.prob")
    cover = str(work / "e2-cover.prob")
    frob_cover = str(work / "e2-frob2-cover.prob")
    sep_induced = str(work / "e2-sep-induced.prob")
    nagata21 = str(work / "nagata-2-1.prob")
    calls = [_ok("check-action", P + name) for name in (
        "e1.prob", "e1_stable.prob", "e2.prob", "e2_frob2.prob", "e2_sep.prob",
        "heisenberg.prob", "remark.prob", "ga2_q.prob", "ga3_f2.prob",
        "gm_diag.prob")]
    calls += [
        _ok("check-group", P + "heisenberg.prob"),
        _ok("check-endo", P + "e2.prob", keys=[("surjective", "true")]),
        _ok("check-pair", P + "e1.prob", "--pair", "1",
            keys=[("classification", "principle")]),
        Call(("check-pair", P + "e1.prob", "--pair", "2"), 1, (("identity", "FAIL"),)),
        Call(("check-pair", P + "remark.prob", "--pair", "1"), 1, (("identity", "FAIL"),)),
        _ok("check-pair", P + "heisenberg.prob", "--pair", "1",
            keys=[("trdeg", "3"), ("classification", "principle")]),
        _ok("check-pair", P + "ga3_f2.prob", "--pair", "1", keys=[("trdeg", "3")]),
        _ok("trdeg", P + "e1.prob", "--pair", "1",
            keys=[("trdeg", "1"), ("jacobian-rank", "1")]),
        _ok("trdeg", P + "e2.prob", "--pair", "1", keys=[("separable", "true")]),
        _ok("trdeg", P + "ga2_q.prob", "--pair", "1", "--json",
            keys=[("trdeg", "2")]),
        _ok("invariants", P + "e1.prob", "--pair", "1", "--probe", "z1",
            "--probe", "1/z1",
            keys=[("f[z1]", "z1"), ("f[z2]", "0"), ("Hbar", "z1")],
            counts=[("probe[", "pass", 2)]),
        _ok("invariants", P + "e1.prob", "--pair", "1", "--probe", "1/z1",
            "--relations", counts=[("probe[", "pass", 1)]),
        Call(("invariants", P + "e2.prob", "--pair", "1"), 1,
             (("principle-required", "FAIL"),)),
        _ok("factor", P + "e2.prob", "--emit", induced,
            keys=[("induced-act[z2]", "z1*u + z2")]),
        _ok("invariants", induced, "--pair", "1", keys=[("f[z2]", "0")]),
        _ok("factor", P + "e2_sep.prob", "--emit", sep_induced,
            keys=[("defining-identity", "pass")]),
        _ok("fppf", P + "e2.prob", "--pair", "1", "--emit", cover,
            keys=[("relation1", "z1*w^2 + z2"),
                  ("cover-pair-classification", "principle")]),
        _ok("check-pair", cover, "--pair", "1"),
        _ok("fppf", P + "e2_frob2.prob", "--pair", "1", "--emit", frob_cover,
            keys=[("relation1", "z1*w^4 + z2")]),
        _ok("cross-section", P + "e1.prob", "--pair", "1",
            keys=[("generator1", "z2"), ("H", "z1"),
                  ("stabilizer-trivial(1, 0)", "pass")]),
        _ok("pedestal", P + "e1_stable.prob", keys=[("generator1", "z1")]),
        Call(("pedestal", P + "e1.prob"), 1, (("pair2-verified", "FAIL"),)),
        _ok("stable", P + "e1_stable.prob",
            keys=[("point(1, 0)", "stable"), ("point(0, 5)", "not-stable")]),
        _ok("semi-invariant", P + "gm_diag.prob", "--g", "x", "--h", "y",
            "--e", "0", "--q", "1", keys=[("semi-invariant", "pass")]),
        Call(("semi-invariant", P + "gm_diag.prob", "--g", "x^2", "--h", "y",
              "--e", "1", "--q", "2"), 1, (("semi-invariant", "FAIL"),)),
        _ok("nagata", "2", "1", "--points", pts, "--emit", nagata21,
            keys=[("act[x3]", "-2*x1*s + x3"), ("act[x4]", "x2*s + x4"),
                  ("oracle3", "x2*x3 + 2*x1*x4")]),
        Call(("nagata", "2", "1", "--points", degenerate), 2, err="zero minor"),
        _ok("mukai", "9", "3", keys=[("finitely-generated", "true")]),
        _ok("mukai", "10", "3", keys=[("finitely-generated", "false")]),
        _ok("mukai", "9", "3", "--json", keys=[("finitely-generated", "true")]),
        Call(("check-group", w["bad-field.prob"]), 2, err="not prime"),
        Call(("check-group", str(work / "no-such-file.prob")), 2, err="error:"),
        Call(("frobnicate",), 2, err="error:"),
        Call(("mukai", "9", "3", "--frobnicate"), 2, err="error:"),
        Call(("check-group", w["bad-law.prob"]), 1, (("inverse-right", "FAIL"),)),
        Call(("check-action", w["bad-action.prob"]), 1,
             (("action-compatibility", "FAIL"),)),
        Call(("check-endo", w["bad-endo.prob"]), 1,
             (("multiplication-compatibility", "FAIL"),)),
    ]
    return calls


def unipotent_desk(work: Path, rng) -> Workload:
    setup, rnd = [], []
    for k in UNITRIANGULAR_KS:
        text, ring_names = unitriangular_problem(k, rng)
        prob = _write(work / f"unitriangular-{k}.prob", text)
        dim = str(k * (k - 1) // 2)
        setup.append(_ok("check-action", prob))
        rnd += [
            _ok("check-group", prob),
            _ok("check-action", prob),
            _ok("check-pair", prob, "--pair", "1",
                keys=[("trdeg", dim), ("classification", "principle")]),
            _ok("invariants", prob, "--pair", "1",
                keys=[("classification", "principle"), ("Hbar", "1")]
                + [(f"f[{name}]", "0") for name in ring_names]),
        ]
    return Workload(setup, _corpus(work) + rnd)


GENERATORS = {
    "nagata-q": nagata_q,
    "vector-fp": vector_fp,
    "unipotent-desk": unipotent_desk,
}


def build(name: str, work: Path, seed: int) -> Workload:
    return GENERATORS[name](work, random.Random(f"{name}:{seed}"))
