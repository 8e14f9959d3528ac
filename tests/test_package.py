import egyfrac


def test_public_names_resolve_once():
    names = egyfrac.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(egyfrac, name), name
