import bakermic


def test_every_exported_name_resolves():
    # a name removed from a module but left in __all__ would break `import *`
    assert len(set(bakermic.__all__)) == len(bakermic.__all__)
    missing = [name for name in bakermic.__all__ if not hasattr(bakermic, name)]
    assert missing == []
    namespace = {}
    exec("from bakermic import *", namespace)
    assert set(bakermic.__all__) <= set(namespace)
