"""Unit tests for the declarative experiment-spec additions of the fault
plane: optional axes (byte-invisible until opted in), expected-shape
declarations and omit-default params serialisation."""

from dataclasses import dataclass, field

import pytest

from repro.errors import ConfigurationError
from repro.experiments.api import (
    Banded,
    ExperimentSpec,
    FaultAxis,
    Monotone,
    ParamAxis,
    TrialAxis,
    check_shapes,
)
from repro.harness.spec import params_to_dict


@dataclass(frozen=True)
class FakeParams:
    sizes: tuple = (2, 4)
    trials: int = 2
    faults: tuple = field(default=(), metadata={"omit_default": True})
    seed: int = 1

    @classmethod
    def full(cls):
        return cls()


def make_spec(shapes=()):
    return ExperimentSpec(
        exp_id="fake",
        title="fake",
        params_cls=FakeParams,
        axes=(FaultAxis(), ParamAxis(name="n", field="sizes"), TrialAxis()),
        run_cell=lambda params, coords, seed: {},
        tabulate=lambda params, values: None,
        shapes=tuple(shapes),
    )


class TestOptionalAxis:
    def test_empty_fault_axis_vanishes_from_grid(self):
        spec = make_spec()
        cells = spec.cells(FakeParams())
        assert len(cells) == 4
        assert all("fault" not in cell for cell in cells)
        assert cells[0] == {"n": 2, "trial": 0}

    def test_populated_fault_axis_prefixes_coords(self):
        spec = make_spec()
        cells = spec.cells(FakeParams(faults=("partition",)))
        assert len(cells) == 4
        assert all(cell["fault"] == "partition" for cell in cells)

    def test_unknown_fault_name_rejected_at_expansion(self):
        spec = make_spec()
        with pytest.raises(ConfigurationError, match="nosuch"):
            spec.cells(FakeParams(faults=("nosuch",)))

    def test_mandatory_axes_never_vanish(self):
        assert FaultAxis().optional is True
        assert ParamAxis(name="n", field="sizes").optional is False


class TestOmitDefault:
    def test_default_value_omitted(self):
        assert "faults" not in params_to_dict(FakeParams())

    def test_non_default_value_kept(self):
        d = params_to_dict(FakeParams(faults=("partition",)))
        assert d["faults"] == ("partition",)

    def test_plain_fields_always_present(self):
        d = params_to_dict(FakeParams())
        assert d["sizes"] == (2, 4)
        assert d["trials"] == 2


class TestShapes:
    def test_monotone_clean(self):
        shape = Monotone("m", along="n", direction="increasing")
        cells = [{"n": 2, "trial": 0}, {"n": 2, "trial": 1},
                 {"n": 4, "trial": 0}, {"n": 4, "trial": 1}]
        values = [{"m": 1.0}, {"m": 3.0}, {"m": 2.5}, {"m": 2.5}]
        # means: n=2 -> 2.0, n=4 -> 2.5: increasing
        assert shape.check(cells, values) == []

    def test_monotone_violation(self):
        shape = Monotone("m", along="n", direction="increasing")
        cells = [{"n": 2}, {"n": 4}]
        values = [{"m": 2.0}, {"m": 1.0}]
        violations = shape.check(cells, values)
        assert len(violations) == 1
        assert "not increasing" in violations[0]

    def test_monotone_tolerance_absorbs_jitter(self):
        shape = Monotone("m", along="n", direction="decreasing", tolerance=0.5)
        cells = [{"n": 2}, {"n": 4}]
        values = [{"m": 1.0}, {"m": 1.3}]  # rises 0.3 <= tolerance
        assert shape.check(cells, values) == []

    def test_monotone_groups_by_other_coords(self):
        shape = Monotone("m", along="n", direction="increasing")
        cells = [{"n": 2, "d": "a"}, {"n": 4, "d": "a"},
                 {"n": 2, "d": "b"}, {"n": 4, "d": "b"}]
        values = [{"m": 1.0}, {"m": 2.0}, {"m": 5.0}, {"m": 1.0}]
        violations = shape.check(cells, values)
        assert len(violations) == 1
        assert "'b'" in violations[0]

    def test_monotone_skips_missing_metric(self):
        shape = Monotone("m", along="n")
        assert shape.check([{"n": 2}, {"n": 4}], [{"m": 1.0}, {}]) == []

    def test_monotone_rejects_bad_direction(self):
        with pytest.raises(ConfigurationError):
            Monotone("m", along="n", direction="sideways")

    def test_banded_clean_and_violations(self):
        shape = Banded("p", lo=0.0, hi=1.0)
        cells = [{"n": 2}, {"n": 4}, {"n": 8}]
        assert shape.check(cells, [{"p": 0.0}, {"p": 0.5}, {"p": 1.0}]) == []
        violations = shape.check(cells, [{"p": -0.1}, {"p": 0.5}, {"p": 1.2}])
        assert len(violations) == 2
        assert "below lo" in violations[0]
        assert "above hi" in violations[1]

    def test_banded_needs_a_bound(self):
        with pytest.raises(ConfigurationError):
            Banded("p")

    def test_check_shapes_aggregates(self):
        spec = make_spec(
            shapes=(
                Banded("p", lo=0.0, hi=1.0),
                Monotone("m", along="n", direction="increasing"),
            )
        )
        params = FakeParams(trials=1)
        values = [{"p": 2.0, "m": 3.0}, {"p": 0.5, "m": 1.0}]
        violations = check_shapes(spec, params, values)
        assert len(violations) == 2
