import warnings
from collections import Counter

import pytest

# When an @given test fails, hypothesis imports its patch writer, whose
# libcst and mypy_extensions imports raise DeprecationWarnings; under the
# "error" warnings filter that import would end the run with an
# INTERNALERROR and leave every later test unrun.  Import it once here,
# with those warnings ignored; it is optional.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from ssd.constructions import catalog
from ssd.gf import default_field


@pytest.fixture(scope="session")
def gf2():
    return default_field(2)


@pytest.fixture(scope="session")
def gf3():
    return default_field(3)


@pytest.fixture(scope="session")
def gf4():
    return default_field(4)


@pytest.fixture(scope="session")
def gf5():
    return default_field(5)


@pytest.fixture(scope="session")
def gf9():
    return default_field(9)


@pytest.fixture(scope="session")
def catalog_rows():
    """All 31 shipped designs, built once per session."""
    return catalog()


@pytest.fixture
def call_counter(monkeypatch):
    """(calls, count): count(module, *names) rebinds those functions of the
    module so that each call adds one to calls[name]."""
    calls = Counter()

    def count(module, *names):
        for name in names:
            fn = getattr(module, name)

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
    return calls, count
