import types

import regupath


def test_all_lists_exactly_the_public_names_of_the_package():
    # Every name in __all__ resolves, and every public name the package binds,
    # its submodules aside, is in __all__, so the two lists cannot drift apart.
    assert len(regupath.__all__) == len(set(regupath.__all__))
    assert [name for name in regupath.__all__ if not hasattr(regupath, name)] == []
    bound = {name for name, value in vars(regupath).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(bound) == sorted(regupath.__all__)
