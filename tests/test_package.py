import pseudosim


def test_every_export_resolves_once():
    names = pseudosim.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(pseudosim, name)]
    assert missing == []
