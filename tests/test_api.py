import echotag


def test_every_exported_name_resolves():
    assert [name for name in echotag.__all__ if not hasattr(echotag, name)] == []


def test_export_list_has_no_duplicates():
    assert len(set(echotag.__all__)) == len(echotag.__all__)
