"""The package's records: immutable, built positionally in their documented
field order, and, for the model's parameters, refusing a bad point however
it is passed."""

import math

import pytest

from xxring import GibbsBlock, ModelParams, PairDensity, PropositionReport, Spectrum, ring_model
from xxring.analytic_n4 import ClosedFormN4

# each record's fields in their documented order, with distinct values
RECORDS = [
    (ModelParams, {"n": 4, "j": 1.0, "b": 0.5}),
    (Spectrum, {"params": ModelParams(4, 1.0, 0.5), "ring": ring_model(4)}),
    (PairDensity, {"u_plus": 0.1, "u_minus": 0.2, "w": 0.3, "z": 0.05}),
    (GibbsBlock, {"z_shifted": 1.5, "u": -0.25, "m": 0.125, "g_xx": -0.5, "g_zz": 0.0625,
                  "probabilities": (0.1, 0.2, 0.2, 0.5)}),
    (PropositionReport, {"proposition": 3, "rings": (2, 4), "samples": 10, "max_discrepancy": 1e-15,
                         "passed": True}),
    (ClosedFormN4, {"z": 16.0, "u_bar": -0.5, "m_bar": 0.25, "g_zz": -0.125, "g_xx": -0.375}),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[record.__name__ for record, _ in RECORDS])
def test_records_are_immutable_and_built_in_field_order(record, fields):
    # entanglement._validated's PairDensity(*values) relies on the order
    built = record(*fields.values())
    assert {name: getattr(built, name) for name in fields} == fields
    assert built == record(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(built, name, 0)


@pytest.mark.parametrize("n, j, b", [
    (0, 1.0, 0.0), (17, 1.0, 0.0), (4.5, 1.0, 0.0),
    (4, math.inf, 0.0), (4, math.nan, 0.0), (4, 1.0, -math.inf), (4, 1.0, math.nan),
    (16, 1e308, 0.0), (16, 0.0, 1e308),
])
def test_model_params_refuse_a_bad_point_positionally_as_by_keyword(n, j, b):
    with pytest.raises(ValueError) as by_keyword:
        ModelParams(n=n, j=j, b=b)
    with pytest.raises(ValueError) as positionally:
        ModelParams(n, j, b)
    assert str(positionally.value) == str(by_keyword.value)
