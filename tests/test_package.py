import inspect

import hoi


def test_all_lists_every_public_name_once():
    # a name dropped from a module but left in __all__, or imported into the
    # package but never listed, fails here rather than at a user's import
    names = hoi.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(hoi, name)] == []
    bound = {name for name, value in vars(hoi).items()
             if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))}
    assert sorted(bound - set(names)) == []
