import sys
from collections import namedtuple
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from heckework import CoxeterSystem
from heckework.cells import CellData
from heckework.hecke import HeckeAlgebra
from heckework.idealmod import IdealModel
from heckework.invmod import InvolutionModule

Ctx = namedtuple("Ctx", "sys alg cells inv ideal")


def _ctx(label, star=None, max_len=None, with_cells=True):
    system = CoxeterSystem.from_label(label, star=star)
    alg = HeckeAlgebra(system)
    cells = CellData(alg) if with_cells else None
    inv = InvolutionModule(alg, max_len=max_len)
    return Ctx(system, alg, cells, inv, IdealModel(inv))


@pytest.fixture(scope="session")
def a1():
    return _ctx("A1")


@pytest.fixture(scope="session")
def a2():
    return _ctx("A2")


@pytest.fixture(scope="session")
def a3():
    return _ctx("A3")


@pytest.fixture(scope="session")
def b2():
    return _ctx("B2")


@pytest.fixture(scope="session")
def g2():
    return _ctx("G2")


@pytest.fixture(scope="session")
def dinf():
    return _ctx("Dinf", max_len=13, with_cells=False)
