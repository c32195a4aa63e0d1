"""The value classes of `partitions`, `surjections` and `verify` keep the
behaviour of the classes `dataclass` generated: repr, equality that checks
the class, ordering where it is defined, hashing of the field tuple, frozen
fields, pickle and copy round trips, and positional match.  The covering
classes of `heisenberg` are pinned in `test_heisenberg.py`."""

import copy
import pickle

import pytest

from qfiber.partitions import Partition
from qfiber.surjections import StepSequence, ThresholdSequence
from qfiber.verify import CheckReport

# class: (field values, repr, a larger value or None where there is no
# ordering, whether the fields are frozen)
CASES = {
    Partition: (((3, 1),), "Partition(parts=(3, 1))", Partition((3, 2)), True),
    StepSequence: (((2, 1, 3),), "StepSequence(steps=(2, 1, 3))", StepSequence((2, 2)), True),
    ThresholdSequence: (
        ((1, 4), 6), "ThresholdSequence(thresholds=(1, 4), domain_length=6)",
        ThresholdSequence((1, 4), 7), True,
    ),
    CheckReport: (
        ("main1", {"k": 2}, [1, 2], [1, 3], "fail", 0.25),
        "CheckReport(check_id='main1', parameters={'k': 2}, expected=[1, 2], actual=[1, 3],"
        " status='fail', elapsed=0.25)",
        None, False,
    ),
}
NAMES = {
    Partition: ["parts"],
    StepSequence: ["steps"],
    ThresholdSequence: ["thresholds", "domain_length"],
    CheckReport: ["check_id", "parameters", "expected", "actual", "status", "elapsed"],
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_classes_keep_their_generated_contract(cls):
    values, text, larger, frozen = CASES[cls]
    value, twin = cls(*values), cls(*values)
    names = NAMES[cls]
    assert list(cls.__match_args__) == names
    assert repr(value) == text
    assert cls(**dict(zip(names, values))) == value
    assert [getattr(value, name) for name in names] == list(values)
    # equality checks the class, and no field tuple or other class equals a value
    assert twin == value and twin is not value and not twin != value
    assert value != values and value != values[0]
    others = [other for other in CASES if other is not cls]
    for other in others:
        assert value != other(*CASES[other][0])
    # ordering exactly where it is defined, and never across classes
    if larger is None:
        for compare in (lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b,
                        lambda a, b: a >= b):
            with pytest.raises(TypeError):
                compare(value, twin)
    else:
        assert value < larger and value <= larger and larger > value and larger >= value
        assert value <= twin and value >= twin and not value < twin
        assert sorted([larger, value]) == [value, larger]
    for other in others:
        with pytest.raises(TypeError):
            value < other(*CASES[other][0])
    # a frozen value hashes as its field tuple; a mutable one is unhashable
    if frozen:
        assert hash(value) == hash(twin) == hash(tuple(values))
        assert len({value, twin}) == 1
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(value)
        twin.status = "pass"
        assert twin.status == "pass" and twin != value
        twin.status = value.status
        assert twin == value
    pickled = [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in (*pickled, copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value and copied is not value
    deep = copy.deepcopy(value)
    assert [getattr(deep, name) for name in names] == list(values)
    if not frozen:
        assert deep.parameters is not value.parameters and deep.expected is not value.expected
    match value:
        case Partition(first) | StepSequence(first):
            matched = (first,)
        case ThresholdSequence(first, second):
            matched = (first, second)
        case CheckReport(first, second, third, fourth, fifth, sixth):
            matched = (first, second, third, fourth, fifth, sixth)
        case _:
            pytest.fail(f"{value!r} does not match {cls.__name__} positionally")
    assert matched == values
