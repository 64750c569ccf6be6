"""The package's export list: what `from ringlab import *` gives."""

import types

import ringlab


def test_every_listed_name_resolves():
    missing = [name for name in ringlab.__all__ if not hasattr(ringlab, name)]
    assert missing == []
    assert len(set(ringlab.__all__)) == len(ringlab.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from ringlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ringlab.__all__)


def test_every_public_attribute_is_listed():
    public = {name for name, value in vars(ringlab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - set(ringlab.__all__) == set()
