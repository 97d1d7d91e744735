import random

import pytest
import sympy as sp

from syzlab.charts import Chart
from syzlab.algebra import BigradedElement


@pytest.fixture
def chart2():
    return Chart(2, ((-1, 1), (-1, 1)))


@pytest.fixture
def chart3():
    return Chart(3, ((-1, 1), (-1, 1), (-1, 1)))


@pytest.fixture
def compile_calls(monkeypatch):
    """Count compile_scalars calls through every syzlab module that binds it."""
    import importlib
    import pkgutil
    import sys

    import syzlab
    import syzlab.fields as fields

    for info in pkgutil.iter_modules(syzlab.__path__):
        importlib.import_module(f"syzlab.{info.name}")
    raw = fields.compile_scalars
    calls = []

    def counted(exprs, chart):
        calls.append(len(list(exprs)))
        return raw(exprs, chart)

    for name, mod in list(sys.modules.items()):
        if name.startswith("syzlab") and getattr(mod, "compile_scalars", None) is raw:
            monkeypatch.setattr(mod, "compile_scalars", counted)
    return calls


def chart_of_dim(n):
    return Chart(n, tuple((-1, 1) for _ in range(n)))


def random_coefficient(chart, rng):
    ys, xs = chart.ys, chart.xs
    n = chart.n
    choices = [
        sp.Rational(rng.randint(-3, 3)),
        sp.Rational(rng.randint(1, 3), rng.randint(1, 3)) * ys[rng.randrange(n)],
        sp.sin(2 * sp.pi * xs[rng.randrange(n)]),
        ys[rng.randrange(n)] * sp.cos(2 * sp.pi * xs[rng.randrange(n)]),
        ys[rng.randrange(n)] ** 2,
    ]
    return choices[rng.randrange(len(choices))]


def random_element(chart, rng, terms=2):
    el = BigradedElement.zero(chart)
    n = chart.n
    for _ in range(rng.randint(1, terms)):
        jset = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        iset = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        el = el + BigradedElement.term(chart, random_coefficient(chart, rng),
                                       dys=jset, dxs=iset)
    return el


def seeded_rng(seed=0):
    return random.Random(seed)
