"""Shared fixtures."""
import sys

import pytest

from morsekit.bilinear import SturmFactorization


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name in every morsekit
    namespace that holds it and returns the list its calls append to."""

    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("morsekit") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return install


@pytest.fixture
def factorization_sizes(monkeypatch):
    """The list the dimension of every Sturm factorization built during
    the test is appended to."""
    sizes = []
    init = SturmFactorization.__post_init__

    def counted(self):
        sizes.append(self.dim)
        init(self)

    monkeypatch.setattr(SturmFactorization, "__post_init__", counted)
    return sizes
