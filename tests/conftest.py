import pytest

import specs
from skewmatroid import get_field

# re-exported: tests/test_golden_reports.py imports it from here
random_layered_spec = specs.random_layered_spec


@pytest.fixture(scope="session")
def f4():
    return get_field(2, 2, 1, 1)


@pytest.fixture(scope="session")
def f8():
    return get_field(2, 3, 1, 1)


@pytest.fixture(scope="session")
def f9():
    return get_field(3, 2, 1, 1)


@pytest.fixture(scope="session")
def f16():
    return get_field(2, 4, 2, 1)


@pytest.fixture(scope="session")
def f16m1():
    return get_field(2, 4, 4, 1)


@pytest.fixture(scope="session")
def f27s2():
    return get_field(3, 3, 1, 2)


@pytest.fixture(scope="session")
def f32s2():
    return get_field(2, 5, 1, 2)


@pytest.fixture(scope="session")
def f64():
    return get_field(2, 6, 1, 1)
