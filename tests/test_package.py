"""The package's public names: `doccat.__all__` lists what the package holds."""

import doccat


def test_all_names_resolve_and_star_import_works():
    assert len(set(doccat.__all__)) == len(doccat.__all__)
    assert [name for name in doccat.__all__ if not hasattr(doccat, name)] == []
    namespace = {}
    exec("from doccat import *", namespace)
    assert set(doccat.__all__) <= set(namespace)
