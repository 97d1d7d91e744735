"""Seeded job generators for the three benchmark workloads.

A job is a plain JSON-able dict: either a scenario document ("doc") that
goes through ``scenarios.run_scenario_doc``, or a direct library call
("call") the scenario schema cannot reach.  Each job also names the checks
it must pass by construction ("expect"): a list of check-name prefixes, or
["*"] for every check.  The same seed always gives the same jobs.

Job mixes keep their shape fixed (how many jobs of each kind and size) and
let the seed vary only coefficients, so the cost of a pass moves little
from seed to seed while the inputs differ.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

SYMBOLIC_MIX = {
    # (kind, n, variant): count.  About 40 jobs run under 10 ms and the 24
    # yukawa n=2 jobs (12-16 ms) sit in the middle, so job_p50_ref_ms falls
    # inside one homogeneous block instead of on the edge between two.  The
    # eight n=2 "base" checks (170-200 ms) do the same for job_p90_ref_ms.
    ("semiflat-check", 1, "const"): 15,
    ("semiflat-check", 1, "base"): 5,
    ("semiflat-check", 1, "fibre"): 4,
    ("semiflat-check", 2, "const"): 3,
    ("semiflat-check", 2, "base"): 8,
    ("semiflat-check", 2, "fibre"): 3,
    ("semiflat-check", 3, "const"): 1,
    ("semiflat-check", 3, "base"): 1,
    ("semiflat-check", 3, "swell1"): 1,
    ("semiflat-check", 3, "swell3"): 1,
    ("dualize", 1, "base"): 4,
    ("dualize", 2, "const"): 2,
    ("hitchin", 1, "quadratic"): 24,
    ("hitchin", 2, "quadratic"): 3,
    ("hitchin", 2, "cubic"): 3,
    ("yukawa", 2, "const"): 24,
    ("yukawa", 3, "const"): 2,
    ("flatness", 2, "const"): 1,
    ("flatness", 2, "fibre"): 1,
    ("mclean", 2, "fibre"): 1,
}

MODEL_NAMES = ("M22", "M12", "M21", "M11a", "M11b", "M01", "M10", "M00")
# grid-4 models of similar cost (about 1.9 s each at the baseline commit)
GRID4_MODELS = ("M22", "M12", "M21", "M01")
# About 18 fibre jobs run faster than any K3 job, so job_p50_ref_ms falls near
# the middle of the 76 K3 jobs (40-80 ms) instead of on the block's edge.
EXACT_PARTITIONS = {1: 2, 2: 2, 3: 0}   # seeded partitions of the 8 models per grid
PARTITION_SIZES = (3, 2, 2, 1)          # every partition gives 4 fibre jobs
SHEAF_COPIES = (1, 2, 3, 4)             # 12 I1 punctures per copy
K3_JOBS = 76

CLI_DEMOS = (
    # (argv after "python -m syzlab.cli", expected exit code, checks that must pass)
    (["run", "demos/scenarios/flat_torus.json", "--format", "json"], 0, ["*"]),
    (["run", "demos/scenarios/fibre_all.json", "--format", "json"], 0, ["*"]),
    # the cubic potential is not closed: exit 1 is the designed verdict
    (["run", "demos/scenarios/hitchin_cubic.json", "--format", "json"], 1,
     ["determinant_criterion_consistent"]),
    (["run", "demos/scenarios/k3_toy.json", "--format", "json"], 0, ["*"]),
    (["run", "demos/scenarios/yukawa_n2.json", "--format", "json"], 0, ["*"]),
    # a bare payload, which only the sheaf command accepts
    (["sheaf", "--monodromy", "demos/scenarios/sheaf_24I1.json", "--format", "json"], 0, ["*"]),
    (["fibre", "--model", "M21", "--cells", "2", "--format", "json"], 0, ["*"]),
    # k3 --input takes a payload-only file, which the benchmark writes (None)
    (["k3", "--input", None, "--format", "json"], 0, ["*"]),
    (["list-models"], 0, []),
    (["conventions"], 0, []),
)


def _q(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _doc(kind, payload):
    return {"version": "1", "kind": kind, "payload": payload}


# ---------------------------------------------------------------------------
# symbolic
# ---------------------------------------------------------------------------

def _beta(rng, n, variant):
    """Symmetric beta with diagonally dominant Im part on the box [-1, 1]^n.

    Diagonal Im entries are at least 2 and move by at most 1/2; off-diagonal
    Im entries are at most 1/4, so Im beta stays positive definite.  Fibre
    dependence is sin/cos(2*pi*k*x_j) with k in 1..3, in one diagonal entry.
    """
    if variant.startswith("swell"):
        return _swell_beta(rng, int(variant[-1]))
    im = [[None] * n for _ in range(n)]
    re = [[None] * n for _ in range(n)]
    for i in range(n):
        im[i][i] = _q(Fraction(rng.choice((4, 5, 6, 7, 8)), 2))
        re[i][i] = _q(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        for j in range(i + 1, n):
            im[i][j] = im[j][i] = _q(Fraction(rng.randint(-1, 1), rng.choice((4, 5, 8))))
            re[i][j] = re[j][i] = _q(Fraction(rng.randint(-2, 2), rng.randint(2, 5)))
    if variant == "base":
        i = rng.randrange(n)
        im[i][i] += f"+y{rng.randrange(n) + 1}^2/{rng.randint(4, 8)}"
        if n > 1:
            i, j = rng.sample(range(n), 2)
            re[i][j] = re[j][i] = f"y{rng.randrange(n) + 1}/{rng.randint(3, 6)}"
    if variant == "fibre":
        i = rng.randrange(n)
        im[i][i] += f"+{_trig(rng, n)}/{rng.randint(2, 4)}"
    return [[{"re": re[i][j], "im": im[i][j]} for j in range(n)] for i in range(n)]


def _trig(rng, n, k=None, axis=None):
    k = rng.randint(1, 3) if k is None else k
    axis = rng.randrange(n) + 1 if axis is None else axis
    return f"{rng.choice(('sin', 'cos'))}(2*pi*{k}*x{axis})"


# The large jobs below have a fixed shape and frequency, and the seed picks
# only their constants: they set wall_ref_s, so their cost must not swing
# with the seed (mclean_metrics ranges 1-2.3 s over frequencies 1-3 and over
# amplitudes 1/2-1/4, so both are pinned for it; with frequency 2 and
# amplitude 1/2 it still takes 0.65-2.15 s over diagonal constants 2-4, and
# 1.3-1.45 s with a = 3 and b in {3, 4}, which are the constants used).

def _swell_beta(rng, k):
    """n = 3 with one fibre-dependent entry, shaped like ROADMAP item 2's beta_3
    minus its second fibre-dependent entry: about 2 s per semiflat-check."""
    a, b, c = (_q(Fraction(rng.choice((4, 5, 6)), 2)) for _ in range(3))
    off = {"re": f"y3/{rng.randint(3, 6)}"}
    return [[{"im": f"{a}+{_trig(rng, 3, k, 1)}/{rng.randint(2, 4)}"}, off, 0],
            [off, {"im": f"{b}+y1^2/{rng.randint(4, 8)}"}, 0],
            [0, 0, {"im": c}]]


def _mclean_beta(rng):
    a, b = 3, rng.choice((3, 4))
    return [[{"im": f"{a}+{_trig(rng, 2, 2, 1)}/2"}, 0], [0, {"im": str(b)}]]


def _fibre_constant_beta(rng, n, variant):
    beta = _beta(rng, n, "const")
    if variant == "base":
        i = rng.randrange(n)
        beta[i][i]["im"] += f"+y{rng.randrange(n) + 1}^2/{rng.randint(4, 8)}"
    return beta


def _potential(rng, n, variant):
    ys = [f"y{i + 1}" for i in range(n)]
    terms = [f"{_q(Fraction(rng.randint(2, 6), 2))}*{y}^2/2" for y in ys]
    if n > 1:
        terms.append(f"{_q(Fraction(rng.randint(-1, 1), rng.randint(4, 8)))}*y1*y2")
    terms.append(f"{_q(Fraction(rng.randint(-3, 3), 2))}*{rng.choice(ys)}")
    if variant == "cubic":
        terms.append(f"{rng.choice(ys)}^3/{rng.randint(10, 20)}")
    return " + ".join(terms)


def _constant_matrix(rng, n):
    return [[_q(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(n)]
            for _ in range(n)]


def _symbolic_job(rng, kind, n, variant):
    box = [[-1, 1]] * n
    if kind in ("semiflat-check", "dualize"):
        gen = _beta if kind == "semiflat-check" else _fibre_constant_beta
        payload = {"n": n, "box": box, "beta": gen(rng, n, variant),
                   "flags": {"compatible": True}}
        expect = ["pointwise.", "closedness.equivalence"] if kind == "semiflat-check" else ["dual."]
        return {"doc": _doc(kind, payload), "expect": ["*"] if variant == "const" else expect}
    if kind == "hitchin":
        payload = {"n": n, "box": box, "potential": _potential(rng, n, variant)}
        return {"doc": _doc(kind, payload),
                "expect": ["*"] if variant == "quadratic" else ["determinant_criterion_consistent"]}
    if kind == "yukawa":
        payload = {"n": n, "box": box, "beta": _beta(rng, n, "const"),
                   "directions": [_constant_matrix(rng, n) for _ in range(n)]}
        return {"doc": _doc(kind, payload), "expect": ["*"]}
    # direct library calls on a beta from the same grammar
    beta = _mclean_beta(rng) if kind == "mclean" else _beta(rng, n, variant)
    payload = {"n": n, "box": box, "beta": beta}
    return {"call": kind, "payload": payload,
            "expect": ["*"] if variant == "const" else []}


def symbolic_jobs(seed, tiny=False):
    rng = random.Random(f"symbolic:{seed}")
    return _distinct(rng, [(spec, 1 if tiny else count)
                           for spec, count in SYMBOLIC_MIX.items()
                           if not tiny or spec[2] == "const"],
                     lambda spec: _symbolic_job(rng, *spec))


def symbolic_warmup(seed):
    """Tiny first-call job from a separate seed stream."""
    rng = random.Random(f"symbolic-setup:{seed}")
    return _symbolic_job(rng, "semiflat-check", 1, "const")


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

_A = ((1, 1), (0, 1))
_B = ((1, 0), (-1, 1))


def _mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def _sl2(rng, steps=3):
    gens = (_A, _B, ((1, -1), (0, 1)), ((1, 0), (1, 1)))
    g = ((1, 0), (0, 1))
    for _ in range(steps):
        g = _mul(g, rng.choice(gens))
    return g


def sheaf_monodromy(rng, copies):
    """copies x (A B)^6 = I, each copy conjugated by a seeded g in SL2(Z).

    A and B are I1 monodromies and AB has order 6, so each block multiplies
    to the identity and so does the whole list, by construction.
    """
    mons = []
    for _ in range(copies):
        g = _sl2(rng)
        gi = ((g[1][1], -g[0][1]), (-g[1][0], g[0][0]))
        a, b = _mul(_mul(g, _A), gi), _mul(_mul(g, _B), gi)
        mons.extend([a, b] * 6)
    return [[list(row) for row in m] for m in mons]


def k3_payload(rng):
    """Aligned rank-22 K3 input: E = e0, sigma0 = e1 - e0, classes in U+U+U.

    A rational rotation in the (Im Omega, omega) plane and a common scale
    keep the three classes orthogonal with equal squares; Re Omega pairs
    positively with E and Im Omega not at all, so the input is aligned.
    The twist class is orthogonal to E and sigma0 and reaches the E8 blocks.
    """
    r = 22
    a, b, c = rng.choice(((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25)))
    ca, sa = Fraction(a, c) * rng.choice((1, -1)), Fraction(b, c) * rng.choice((1, -1))
    s = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    re = [s, s] + [0] * (r - 2)
    im = [0] * r
    w = [0] * r
    im[4] = im[5] = s * ca
    im[2] = im[3] = s * sa
    w[4] = w[5] = -s * sa
    w[2] = w[3] = s * ca
    B = [0, 0] + [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.5 else 0
                  for _ in range(r - 2)]
    vec = lambda v: [_q(x) for x in v]
    return {"lattice": "K3", "E": [1] + [0] * (r - 1), "sigma0": [-1, 1] + [0] * (r - 2),
            "omega": vec(w), "B": vec(B), "re_omega": vec(re), "im_omega": vec(im),
            "double_mirror": True}


def _partition(rng, names):
    names = list(names)
    rng.shuffle(names)
    out = []
    for k in PARTITION_SIZES:
        out.append(names[:k])
        names = names[k:]
    return out


def exact_jobs(seed, tiny=False):
    rng = random.Random(f"exact:{seed}")
    jobs, seen = [], set()

    def add(job):
        if _key(job) in seen:
            return False
        seen.add(_key(job))
        jobs.append(job)
        return True

    def fibre(models, grid):
        return {"doc": _doc("fibre", {"models": models, "grid": grid}), "expect": ["*"]}

    for grid, parts in EXACT_PARTITIONS.items():
        add(fibre("all", grid))
        done = 0
        while done < (min(parts, 1) if tiny else parts):
            batch = [fibre(s, grid) for s in _partition(rng, MODEL_NAMES)]
            if not any(_key(job) in seen for job in batch):
                for job in batch:
                    add(job)
                done += 1
    if not tiny:
        add({"call": "model_cohomology", "model": rng.choice(GRID4_MODELS), "grid": 4,
             "expect": ["*"]})
    for copies in (SHEAF_COPIES[:1] if tiny else SHEAF_COPIES):
        while not add({"doc": _doc("sheaf", {
                "rank": 2, "monodromy": sheaf_monodromy(rng, copies),
                "expected_ranks": [0, 12 * copies - 4, 0]}), "expect": ["*"]}):
            pass
    made = 0
    while made < (2 if tiny else K3_JOBS):
        made += add({"doc": _doc("k3", k3_payload(rng)),
                     "expect": ["identity.", "double_mirror."]})
    rng.shuffle(jobs)
    return jobs


def exact_warmup(seed):
    rng = random.Random(f"exact-setup:{seed}")
    return {"doc": _doc("sheaf", {"rank": 2, "monodromy": sheaf_monodromy(rng, 1)}),
            "expect": ["*"]}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def cli_jobs(seed, k3_path, tiny=False):
    """The CLI commands of one pass, in a seeded order, with expected exit codes."""
    rng = random.Random(f"cli:{seed}")
    demos = CLI_DEMOS[-3:] if tiny else CLI_DEMOS
    jobs = [{"argv": [k3_path if a is None else a for a in argv], "exit": code,
             "expect": expect} for argv, code, expect in demos]
    rng.shuffle(jobs)
    return jobs


def cli_k3_payload(seed):
    return k3_payload(random.Random(f"cli-k3:{seed}"))


def cli_warmup_argv(seed):
    rng = random.Random(f"cli-setup:{seed}")
    return ["list-models", "--type", rng.choice(("2,2", "1,1", "0,1", "1,0"))]


# ---------------------------------------------------------------------------

def _key(job):
    return json.dumps(job, sort_keys=True)


def _distinct(rng, specs, make):
    """Expand (spec, count) pairs into distinct jobs, shuffled."""
    jobs, seen = [], set()
    for spec, count in specs:
        made = 0
        while made < count:
            job = make(spec)
            if _key(job) not in seen:
                seen.add(_key(job))
                jobs.append(job)
                made += 1
    rng.shuffle(jobs)
    return jobs
