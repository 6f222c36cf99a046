import corepath


def test_star_import_binds_every_listed_module():
    ns: dict = {}
    exec("from corepath import *", ns)
    assert [name for name in corepath.__all__ if name not in ns] == []
