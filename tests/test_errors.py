"""Every package error survives a pickle round trip: a fold's error comes
back from its worker process with its type, text and attributes."""

import pickle

import pytest

from swarmids import errors

EXAMPLES = {
    errors.SwarmidsError: errors.SwarmidsError("base"),
    errors.ConfigError: errors.ConfigError("folds must be at least 2, got 1"),
    errors.DataError: errors.DataError("dataset file not found: x.csv"),
    errors.ParseError: errors.ParseError("expected 43 fields, got 3", 7),
    errors.UnknownLabelError: errors.UnknownLabelError("teardropx"),
    errors.TrainingError: errors.TrainingError("training needs at least two classes"),
    errors.ObjectiveError: errors.ObjectiveError("0101", ValueError("fitness nan is not finite")),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_has_an_example():
    assert set(EXAMPLES) == {errors.SwarmidsError, *_subclasses(errors.SwarmidsError)}


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    error = EXAMPLES[cls]
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is cls
    assert (str(again), again.args) == (str(error), error.args)
    assert vars(again) == vars(error)


def test_objective_error_for_the_population():
    again = pickle.loads(pickle.dumps(errors.ObjectiveError(None, "3 values for 4 masks")))
    assert again.mask_bits is None
    assert str(again) == "objective failed for the population: 3 values for 4 masks"
