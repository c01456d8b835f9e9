"""Result records: each fills its fields in one step, and behaves as the
frozen dataclass its fields describe."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from wirecut import AllocationResult, Check, FeasibilityRange, IntervalSet, PartitionResult

# One record of each kind, its field values all distinct.
RECORDS = [
    PartitionResult("face-stationary", (0.0, 2.5), (0.0, 0.5), 0.5, 0),
    IntervalSet(((0.25, 1.0), (2.0, 3.0)), (0.0, 3.5)),
    FeasibilityRange(1.5, 2.5, 3.5, 4.5, 5.5),
    AllocationResult((3, 5), (0.25, 0.75), 1.0, (-0.125,)),
    Check("minimum vs grid (resolution 12)", 1e-12, 1e-9, True),
]


def values(record):
    return tuple(getattr(record, field.name) for field in dataclasses.fields(record))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_init_takes_the_fields_in_order_with_their_defaults(record):
    cls = type(record)
    fields = dataclasses.fields(cls)
    parameters = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in parameters] == [f.name for f in fields]
    for parameter, field in zip(parameters, fields):
        default = inspect.Parameter.empty if field.default is dataclasses.MISSING else field.default
        assert parameter.default == default, field.name
    names = [f.name for f in fields]
    for twin in (cls(*values(record)), cls(**dict(zip(names, values(record))))):
        assert values(twin) == values(record)
        # The CLI prints vars(result), so the fields stay in declared order.
        assert list(vars(twin)) == names
    required = [f for f in fields if f.default is dataclasses.MISSING]
    if len(required) < len(fields):
        short = cls(*values(record)[:len(required)])
        assert values(short)[len(required):] == tuple(f.default for f in fields[len(required):])


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_frozen(record):
    for field in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, field.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.extra = 1


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_copies_equal_the_record_and_hash_alike(record):
    cls = type(record)
    names = [f.name for f in dataclasses.fields(cls)]
    assert dataclasses.asdict(record) == dict(zip(names, values(record)))
    twins = [
        dataclasses.replace(record),
        cls(**dataclasses.asdict(record)),
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ]
    for twin in twins:
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record)
    assert hash(record) == hash(values(record))
    changed = dataclasses.replace(record, **{names[1]: "other"})
    assert changed != record and getattr(changed, names[1]) == "other"
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values(record))) + ")"
