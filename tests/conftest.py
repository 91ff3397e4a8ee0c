import pytest

from frobsplit.arith import ExtFieldElement, FieldElement


@pytest.fixture
def field_elements_built(monkeypatch):
    """The class of every FieldElement and ExtFieldElement built during the
    test, in order of construction."""
    built = []
    for cls in (FieldElement, ExtFieldElement):
        init = cls.__init__

        def counted(self, *args, _init=init, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return built
