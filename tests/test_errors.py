import pytest

from nst.errors import NstError, read_record


class RecordError(NstError):
    pass


SPEC = {"count": int, "weight": float, "name": (str, None), "flag": bool, "items": list,
        "inner": dict}


def read(record, required=()):
    return read_record(record, SPEC, RecordError, "test record", required=required)


def test_returns_the_entries_with_integers_widened_for_float_keys():
    values = read({"count": 3, "weight": 2, "name": None, "flag": False, "items": [1],
                   "inner": {}})
    assert values == {"count": 3, "weight": 2.0, "name": None, "flag": False, "items": [1],
                      "inner": {}}
    assert type(values["count"]) is int and type(values["weight"]) is float
    assert read({}) == {}


@pytest.mark.parametrize(
    "record, message",
    [
        ([("count", 1)], "test record must be a mapping"),
        ({"cuont": 1}, "unknown test record: cuont"),
        ({"count": 1.0}, "count must be an integer, got 1.0"),
        ({"count": True}, "count must be an integer, got True"),
        ({"weight": False}, "weight must be a number"),
        ({"weight": "0.5"}, "weight must be a number"),
        ({"weight": None}, "weight must be a number"),
        ({"name": 3}, "name must be a string or null"),
        ({"flag": 1}, "flag must be true or false"),
        ({"items": (1,)}, "items must be a list"),
        ({"inner": []}, "inner must be a mapping"),
    ],
)
def test_refusals_name_the_key(record, message):
    with pytest.raises(RecordError, match=message):
        read(record)


def test_required_keys_must_be_present():
    assert read({"count": 1}, required=("count",)) == {"count": 1}
    with pytest.raises(RecordError, match="missing from test record: count, weight"):
        read({"name": "x"}, required=("count", "weight"))
