import os

import pytest

from khecke.cartan import LaurentPoly, RootDatum
from khecke.grothendieck import GrothendieckEngine
from khecke.localization import PsiEngine


@pytest.fixture(scope="session")
def A2():
    return RootDatum.of_type("A2")


@pytest.fixture(scope="session")
def sl2():
    return RootDatum.sl(2)


@pytest.fixture(scope="session")
def sl3():
    return RootDatum.sl(3)


@pytest.fixture(scope="session")
def af2():
    return RootDatum.affine_sl(2)


@pytest.fixture(scope="session")
def af3():
    return RootDatum.affine_sl(3)


@pytest.fixture(scope="session")
def af4():
    return RootDatum.affine_sl(4)


@pytest.fixture(scope="session")
def eng_A2(A2):
    return PsiEngine(A2, "big")


@pytest.fixture(scope="session")
def lz2(af2):
    return PsiEngine(af2, "level-zero")


@pytest.fixture(scope="session")
def big2(af2):
    return PsiEngine(af2, "big")


@pytest.fixture(scope="session")
def e2():
    return GrothendieckEngine.get(2)


@pytest.fixture(scope="session")
def e3():
    return GrothendieckEngine.get(3)


@pytest.fixture(scope="session")
def e4():
    return GrothendieckEngine.get(4)


def _level_zero_project(p, affine_datum):
    """Push a polynomial over P_af down to finite P (delta, Lambda_0 -> 0)."""
    out = {}
    for lam, c in p.terms.items():
        w = affine_datum.project(lam)
        out[w] = out.get(w, 0) + c
    return LaurentPoly(affine_datum.finite, out)


@pytest.fixture(scope="session")
def level_zero_project():
    """Oracle for the level-zero flavor: the projection P_af -> P on R(T)."""
    return _level_zero_project


@pytest.fixture(scope="session")
def child_env():
    """``child_env(*paths)``: the environment of a child interpreter a test
    starts.  It holds PYTHONPATH from ``paths`` and nothing else of the
    caller's but PYTHONDONTWRITEBYTECODE, when set, so that a run which
    writes no bytecode keeps its children from writing ``__pycache__``
    into the checkout."""
    def build(*paths):
        env = {"PYTHONPATH": os.pathsep.join(str(p) for p in paths)}
        if "PYTHONDONTWRITEBYTECODE" in os.environ:
            env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
        return env
    return build
