"""The public namespace: ``slowlight.__all__`` lists what the package exports."""

import slowlight


def test_public_names_are_sorted_unique_and_resolve():
    names = slowlight.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(slowlight, name), name


def test_test_oracles_are_not_exported():
    # the dense Bloch steady state is a test oracle, kept in tests/_oracles.py
    for name in ("BlochSteadyState", "bloch_steady_oracle"):
        assert name not in slowlight.__all__
        assert not hasattr(slowlight, name)
        assert not hasattr(slowlight.eit_core, name)
