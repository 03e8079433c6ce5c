import pathlib

import pytest

from lmoment.characters import DirichletCharacter, even_primitive_indices
from lmoment.hecke import load_hecke_data, mock_hecke_system
from lmoment.lvalues import dirichlet_central_oracle, twist_central_afe
from lmoment.weights import default_bump

DATA_PATH = pathlib.Path(__file__).resolve().parent.parent / "data" / \
    "maass_even_13p77.txt"


@pytest.fixture(scope="session")
def real_f():
    return load_hecke_data(str(DATA_PATH))


@pytest.fixture(scope="session")
def mock_f():
    return mock_hecke_system(7, P_max=16000)


@pytest.fixture(scope="session")
def bump():
    return default_bump()


@pytest.fixture(scope="session")
def hurwitz_moment():
    """The twisted moment one character at a time, with the Hurwitz-zeta
    oracle for the Dirichlet factor and no DFT assembly."""
    def moment(f, mod):
        total = 0j
        for k in even_primitive_indices(mod):
            chi = DirichletCharacter(mod, int(k))
            total += (twist_central_afe(f, chi).value
                      * dirichlet_central_oracle(chi.conj()).value)
        return total
    return moment
