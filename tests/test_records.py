"""The package's records are NamedTuples, immutable field by field, and a
parameter set's strategies are tuples shared by every set with its exponents."""

import importlib
import inspect

import pytest

from sidhlab.isogeny import balanced_strategy

RECORDS = {
    "montgomery": {"ProjCoeff", "XPoint"},
    "isogeny": {"IsogenyStep", "ChainTrace"},
    "protocol": {"PublicKey", "SidhParams"},
    "countermeasure": {"PushforwardConfig", "NaiveRejectOutcome"},
    "faultsim": {"OracleVerdict"},
    "attack": {"AttackState", "ForgedKeys", "PrefixWalk"},
    "cli": {"TrialReport"},
}


def _records(module_name):
    module = importlib.import_module(f"sidhlab.{module_name}")
    return {
        name: cls
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and issubclass(cls, tuple) and hasattr(cls, "_fields")
    }


@pytest.mark.parametrize("module_name", sorted(RECORDS))
def test_records_are_the_named_tuples(module_name):
    assert set(_records(module_name)) == RECORDS[module_name]


@pytest.mark.parametrize(
    "module_name, name", [(m, n) for m, names in sorted(RECORDS.items()) for n in sorted(names)]
)
def test_no_field_can_be_assigned(module_name, name):
    cls = _records(module_name)[name]
    record = cls._make([None] * len(cls._fields))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_strategies_are_shared_tuples(toy):
    assert toy.strategy3 is toy.strategy3
    assert toy.strategy3 == tuple(balanced_strategy(toy.e3))
    assert toy.strategy4 == tuple(balanced_strategy(toy.e2 // 2))
