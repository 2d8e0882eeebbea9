"""The record contract: every dataclass of ``sigeq`` is frozen and slotted.

The records are declared with ``detection._record``, whose ``__init__``
stores each field through its slot and then runs ``__post_init__``.  These
tests pin what that must keep of a plain frozen dataclass: no instance
``__dict__``, no assignment, the dataclass's signature and defaults, the
checks of ``__post_init__`` under ``dataclasses.replace``, and copying and
pickling, whose copies keep their arrays read-only.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle

import numpy as np
import pytest

from sigeq import (
    AgentParams,
    AveragePower,
    Concept,
    DerivedQuantities,
    DynamicsTrace,
    EquilibriumReport,
    GameSpec,
    McEstimate,
    NoiseModel,
    PeakPower,
    Perturbation,
    ReceiverRule,
    RobustnessScan,
    ScanEntry,
    SignalDesign,
    SpecError,
    Tau,
    best_response_dynamics,
    derived_quantities,
    robustness_scan,
    single_cost_perturbations,
    solve,
)
from conftest import demo_spec, fragile_team_spec, load_script, team_point_spec

golden = load_script("golden")

MODULES = ("detection", "equilibrium", "nash", "oracle", "team")


def _scan() -> RobustnessScan:
    return robustness_scan(team_point_spec(), Concept.NASH, single_cost_perturbations(0.01))


# one instance of each record, built as the package builds it
INSTANCES = {
    AgentParams: lambda: demo_spec().transmitter,
    NoiseModel: lambda: fragile_team_spec("vector").noise,
    PeakPower: lambda: demo_spec().power,
    AveragePower: lambda: fragile_team_spec("avg").power,
    GameSpec: demo_spec,
    Tau: lambda: derived_quantities(demo_spec()).tau,
    DerivedQuantities: lambda: derived_quantities(demo_spec()),
    ReceiverRule: lambda: solve(demo_spec(), Concept.STACKELBERG).rule,
    SignalDesign: lambda: solve(demo_spec(), Concept.STACKELBERG).signals,
    EquilibriumReport: lambda: solve(demo_spec(), Concept.STACKELBERG),
    DynamicsTrace: lambda: best_response_dynamics(demo_spec()),
    McEstimate: lambda: McEstimate(0.1, 0.2, 0.3, 0.4, 0.01, 0.02, 0.03, 0.04, 1000, 7),
    Perturbation: lambda: Perturbation(eps_c10=0.01),
    ScanEntry: lambda: _scan().entries[0],
    RobustnessScan: _scan,
}
RECORDS = list(INSTANCES)


def test_every_dataclass_of_the_package_is_a_listed_record():
    found = {obj for name in MODULES
             for obj in vars(importlib.import_module(f"sigeq.{name}")).values()
             if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
             and obj.__module__.startswith("sigeq")}
    assert found == set(RECORDS) and len(RECORDS) == 15


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_slotted_and_frozen(cls):
    record = INSTANCES[cls]()
    assert type(record) is cls
    assert not hasattr(record, "__dict__")
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.extra = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del record.extra
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, dataclasses.fields(cls)[0].name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_keep_the_dataclass_signature(cls):
    # the same fields declared on a plain dataclass
    plain = dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(default=f.default, init=f.init))
        for f in dataclasses.fields(cls)])
    assert inspect.signature(cls) == inspect.signature(plain)
    assert list(inspect.signature(cls).parameters) == [
        f.name for f in dataclasses.fields(cls) if f.init]


def test_replace_runs_the_checks_of_the_record():
    agent = demo_spec().transmitter
    with pytest.raises(SpecError) as info:
        dataclasses.replace(agent, prior0=2.0)
    assert str(info.value) == "prior0: prior0 + prior1 must equal 1 within 1e-12"
    with pytest.raises(ValueError):
        # a stored field is not an argument of the constructor
        dataclasses.replace(agent, c00=1.0)
    moved = dataclasses.replace(agent, prior0=0.5, prior1=0.5)
    assert (moved.prior0, moved.c10, moved.false_alarm_margin) == (0.5, 0.4, 0.4 - 0.6)


def _encoded(record) -> dict:
    """Every value of a spec or report, floats as their repr (bit-exact),
    with the fields a spec stores at construction."""
    if isinstance(record, EquilibriumReport):
        return golden.report_record(record)
    stored = [record.transmitter.miss_margin, record.receiver.false_alarm_margin,
              record.noise.min_eigenvalue, record.noise.min_eigenvector]
    return golden.spec_record(record) | {"stored": repr(stored)}


def _arrays(value) -> list:
    """Every array a record holds, in its nested records too."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value) for a in _arrays(getattr(value, f.name))]
    return []


@pytest.mark.parametrize("build", [demo_spec, lambda: fragile_team_spec("vector"),
                                   lambda: solve(demo_spec(), Concept.NASH),
                                   lambda: solve(fragile_team_spec("vector"), Concept.TEAM)],
                         ids=["scalar-spec", "vector-spec", "scalar-report", "vector-report"])
def test_specs_and_reports_copy_and_pickle(build):
    record = build()
    shallow = copy.copy(record)
    assert shallow is not record and type(shallow) is type(record)
    assert all(getattr(shallow, f.name) is getattr(record, f.name)
               for f in dataclasses.fields(record))
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and not hasattr(twin, "__dict__")
        assert _encoded(twin) == _encoded(record)
        arrays = _arrays(twin)
        assert len(arrays) == len(_arrays(record))
        assert not any(a.flags.writeable for a in arrays)
