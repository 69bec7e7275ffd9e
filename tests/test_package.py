import expodom


def test_exports_and_readme_library_example():
    for name in expodom.__all__:
        assert hasattr(expodom, name), name
    assert "DyadicWeight" not in expodom.__all__
    assert not hasattr(expodom, "DyadicWeight")

    # the README's "Library" example
    g = expodom.decode_graph6("F?LT?")
    assert expodom.parameter_values(g) == (3, 2, 2)
    result = expodom.in_class(g, expodom.ClassKind.EXPONENTIAL)
    assert not result.member and result.witness == "F?LT?"
    assert expodom.verify_corollary2(max_n=10).verified
