import majdet


def test_every_export_resolves():
    missing = [name for name in majdet.__all__ if not hasattr(majdet, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(majdet.__all__)) == len(majdet.__all__)
