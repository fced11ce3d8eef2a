import fermicool


def test_every_export_resolves():
    missing = [name for name in fermicool.__all__ if not hasattr(fermicool, name)]
    assert missing == []
    assert len(set(fermicool.__all__)) == len(fermicool.__all__)
