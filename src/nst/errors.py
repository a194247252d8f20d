from typing import Collection, Mapping


class NstError(Exception):
    """Base class for all errors raised by this package."""


# Each JSON type a record spec may name: the Python types that carry it, and its name.
_JSON_TYPES = {
    int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string"),
    bool: (bool, "true or false"), list: (list, "a list"), dict: (Mapping, "a mapping"),
    None: (type(None), "null"),
}


def read_record(
    record: object, spec: Mapping, error: type[NstError], what: str, required: Collection[str] = ()
) -> dict:
    """The entries of ``record``, each checked against its JSON type in ``spec``.

    ``spec`` maps each key the record may hold to ``int``, ``float``, ``str``,
    ``bool``, ``list`` or ``dict``, or to a tuple of them in which ``None``
    admits null. A bool is never a number, and an integer for a float key is
    returned as a float. A non-mapping, an unknown key, a missing ``required``
    key or a wrong-typed value raises ``error`` naming the key, since a misread
    value would silently run another setting. Absent keys stay absent, so
    they take the defaults of whatever is built from the result.
    """
    if type(record) is not dict and not isinstance(record, Mapping):
        raise error(f"{what} must be a mapping, got {record!r}")
    # Plain loops: this runs once per manifest line, and a refusal is rare.
    for key in record:
        if key not in spec:
            unknown = sorted(str(key) for key in record if key not in spec)
            raise error(f"unknown {what}: {', '.join(unknown)}")
    for key in required:
        if key not in record:
            missing = [key for key in required if key not in record]
            raise error(f"missing from {what}: {', '.join(missing)}")
    values = {}
    for key, value in record.items():
        kinds = spec[key]
        # Check in full unless the value is exactly a type its key admits.
        if type(value) is not kinds and (type(kinds) is not tuple or type(value) not in kinds):
            kinds = kinds if type(kinds) is tuple else (kinds,)
            is_bool = isinstance(value, bool)
            for kind in kinds:
                if isinstance(value, _JSON_TYPES[kind][0]) and is_bool == (kind is bool):
                    break
            else:
                expected = " or ".join(_JSON_TYPES[kind][1] for kind in kinds)
                raise error(f"{what}: {key} must be {expected}, got {value!r}")
            value = float(value) if kind is float and type(value) is int else value
        values[key] = value
    return values
