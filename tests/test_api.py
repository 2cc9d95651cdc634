import aibmon


def test_public_names_resolve_and_star_import_works():
    # A stale __all__ entry breaks only `from aibmon import *`, which no
    # other test runs.
    missing = [name for name in aibmon.__all__ if not hasattr(aibmon, name)]
    assert not missing, missing
    assert len(set(aibmon.__all__)) == len(aibmon.__all__)
    namespace = {}
    exec("from aibmon import *", namespace)
    assert set(aibmon.__all__) <= set(namespace)
