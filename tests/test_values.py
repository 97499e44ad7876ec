"""Every library value survives pickling and copying, and the tuple-based
values behave as the tuples they hold."""

import copy
import pickle

import pytest

from colshuffle import (STATISTICS, ColouredConfiguration, Label,
                        LabelledConfiguration, LaurentPoly, RationalGF,
                        SeriesY, build_entry, check_shuffle_compatibility,
                        expand, parse_labelled_configuration,
                        parse_permutation, w_of)

LC = parse_labelled_configuration("2 * 1^1 2^0\n3^2 1^0\n1 -> -X^2\n2 -> X")


def _values():
    entry = build_entry("mat", d=2, e=1)
    report = check_shuffle_compatibility(
        STATISTICS["first_symbol"], trials=20, max_len=3, colours=2,
        statistic_name="first_symbol")
    assert report.counterexample is not None
    return {
        "ColouredPermutation": parse_permutation("3^1 1^0 2^2"),
        "ColouredConfiguration": LC.config,
        "LabelledConfiguration": LC,
        "SeriesY": expand(entry.closed_form, 3),
        "LaurentPoly": LaurentPoly({-1: 2, 3: -5}),
        "RationalGF": w_of(LC, 1),
        "Label": LC.label,
        "ZetaEntry": entry,
        "CompatReport": report,
    }


VALUES = _values()


@pytest.mark.parametrize("name", sorted(VALUES))
def test_every_value_pickles_and_copies(name):
    value = VALUES[name]
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                 copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value


def test_tuple_values_are_the_tuples_they_hold():
    perm = parse_permutation("2^1 1^0")
    assert perm == tuple(perm) and hash(perm) == hash(tuple(perm))
    assert parse_permutation("") == ColouredConfiguration() == SeriesY(()) == ()
    assert not ColouredConfiguration() and len(LC.config) == 2
    assert tuple(LC) == (LC.config, LC.label)
    # entrywise by the colour order: colour 1 sorts below colour 0
    assert parse_permutation("1^1 2^0") < parse_permutation("1^0 2^1")
    assert (LC.config.terms is LC.config and perm.entries is perm
            and SeriesY((LaurentPoly.one(),)).coefficients == (LaurentPoly.one(),))
    with pytest.raises(AttributeError):
        perm.entries = ()
    with pytest.raises(AttributeError):
        LC.label = Label()
