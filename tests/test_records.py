"""Records, problems and results alike: each is built by its own __init__
alone, and behaves as the frozen dataclass its fields describe."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import sys

import pytest

import wirecut
from wirecut import (
    CIRCLE,
    AllocationProblem,
    AllocationResult,
    BoundQuery,
    Check,
    FeasibilityRange,
    GridSpec,
    InfeasibleBudgetError,
    IntervalSet,
    PartitionProblem,
    PartitionResult,
    Shape,
    geometry,
)

# One record of each kind, its field values all distinct.
RECORDS = [
    PartitionResult("face-stationary", (0.0, 2.5), (0.0, 0.5), 0.5, 0),
    IntervalSet(((0.25, 1.0), (2.0, 3.0)), (0.0, 3.5)),
    FeasibilityRange(1.5, 2.5, 3.5, 4.5, 5.5),
    AllocationResult((3, 5), (0.25, 0.75), 1.0, (-0.125,)),
    Check("minimum vs grid (resolution 12)", 1e-12, 1e-9, True),
]

# One problem of each kind; building it validates its fields.
PROBLEMS = [
    Shape(7),
    PartitionProblem(12.0, (Shape(3), CIRCLE)),
    BoundQuery(PartitionProblem(6.0, (4, 3)), 2.5, "upper"),
    AllocationProblem((1.0, 2.5, 0.75), 20),
    GridSpec(12),
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


@pytest.mark.parametrize("record", RECORDS + PROBLEMS, ids=lambda r: type(r).__name__)
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


def frozen_twin(cls):
    """A @dataclass(frozen=True) class of the same name, fields and defaults."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, f.default)
        for f in dataclasses.fields(cls)
    ], frozen=True)


def refusal(action):
    with pytest.raises(dataclasses.FrozenInstanceError) as caught:
        action()
    return str(caught.value)


@pytest.mark.parametrize("record", RECORDS + PROBLEMS, ids=lambda r: type(r).__name__)
def test_record_behaves_as_its_frozen_dataclass_twin(record):
    cls = type(record)
    twin = frozen_twin(cls)(*values(record))
    assert [(p.name, p.default) for p in inspect.signature(cls).parameters.values()] == [
        (p.name, p.default) for p in inspect.signature(type(twin)).parameters.values()]
    assert repr(record) == repr(twin)
    assert hash(record) == hash(twin) == hash(values(record))
    assert record == cls(*values(record)) and not record != cls(*values(record))
    # A twin is of another class: neither side claims equality.
    assert record != twin and twin != record and not record == twin
    assert record.__eq__(twin) is NotImplemented
    for name in (*(f.name for f in dataclasses.fields(cls)), "extra"):
        assert refusal(lambda: setattr(record, name, 1)) == refusal(lambda: setattr(twin, name, 1))
        assert refusal(lambda: delattr(record, name)) == refusal(lambda: delattr(twin, name))


@pytest.mark.parametrize("one, other", [
    (Shape(5), GridSpec(5)),
    (AllocationResult(1, 2, 3, 4), Check(1, 2, 3, 4)),
], ids=["Shape-GridSpec", "AllocationResult-Check"])
def test_records_of_two_classes_differ_whatever_their_fields(one, other):
    assert values(one) == values(other) and hash(one) == hash(other)
    assert one != other and other != one and not one == other


def state(value):
    """Everything a value holds, down through records and tuples, including
    attributes that are not fields (a Shape's weight)."""
    if isinstance(value, tuple):
        return tuple(map(state, value))
    if dataclasses.is_dataclass(value):
        return type(value), {name: state(item) for name, item in vars(value).items()}
    return value


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda r: type(r).__name__)
def test_problem_copies_keep_every_attribute(problem):
    twins = [
        dataclasses.replace(problem),
        copy.copy(problem),
        copy.deepcopy(problem),
        pickle.loads(pickle.dumps(problem)),
    ]
    for twin in twins:
        assert twin == problem and hash(twin) == hash(problem)
        assert state(twin) == state(problem)


@pytest.mark.parametrize("problem, changes, error, message", [
    (PartitionProblem(12, (3, 4)), {"shapes": (2, 4)}, ValueError, "at least 3 sides, got 2"),
    (PartitionProblem(12, (3, 4)), {"total_length": -1.0}, ValueError, "total length must be"),
    (Shape(5), {"sides": 2}, ValueError, "at least 3 sides, got 2"),
    (BoundQuery(PartitionProblem(12, (3, 4)), 5, "lower"), {"sense": "both"}, ValueError, "sense must be"),
    (BoundQuery(PartitionProblem(12, (3, 4)), 5, "lower"), {"problem": GridSpec(4)}, TypeError, "GridSpec"),
    (AllocationProblem((1, 2), 9), {"side_budget": 5}, InfeasibleBudgetError, "budget 5 cannot"),
    (AllocationProblem((1, 2), 9), {"wire_lengths": "12"}, ValueError, "sequence of numbers"),
    (GridSpec(4), {"resolution": 1}, ValueError, "at least 2, got 1"),
])
def test_replace_validates_as_the_constructor_does(problem, changes, error, message):
    with pytest.raises(error, match=message):
        dataclasses.replace(problem, **changes)


def test_replace_normalizes_as_the_constructor_does():
    problem = dataclasses.replace(PartitionProblem(12, (3, 4)), total_length=6, shapes=[4, "circle"])
    assert problem == PartitionProblem(6.0, (Shape(4), CIRCLE))
    assert type(problem.total_length) is float and type(problem.shapes) is tuple
    query = dataclasses.replace(BoundQuery(problem, 5, "lower"), threshold=2)
    assert type(query.threshold) is float and query.threshold == 2.0
    assert dataclasses.replace(AllocationProblem((1, 2), 9), wire_lengths=[3, 4]).wire_lengths == (3.0, 4.0)


def package_records():
    """Every class of the package that has dataclass fields."""
    for info in pkgutil.iter_modules(wirecut.__path__):
        module = importlib.import_module(f"wirecut.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value):
                yield value


def test_every_record_takes_its_methods_from_the_base():
    """A class declared @dataclass(frozen=True) would generate these methods
    again, one exec each, every time the package is imported."""
    records = list(package_records())
    assert {cls.__name__ for cls in records} == {type(r).__name__ for r in RECORDS + PROBLEMS}
    base = vars(geometry._Record)
    for cls in records:
        for name in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
            assert getattr(cls, name) is base[name], (cls.__name__, name)
        assert cls.__init__.__code__.co_filename == sys.modules[cls.__module__].__file__, cls.__name__
