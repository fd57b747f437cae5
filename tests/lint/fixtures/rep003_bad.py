# lint-fixture: src/repro/algorithms/fixture_protocol.py
"""Bad REP003 fixture: half-implemented array-algorithm protocols."""


class MissingComplete:  # expect[REP003]
    def init_batch(self, topology, rngs):
        return None

    def step_batch(self, rounds, batch, topology, rngs, active):
        return None


class StepOnly:  # expect[REP003]
    def step_batch(self, rounds, batch, topology, rngs, active, faults=None):
        return None


class Coroutine:
    def as_array_algorithm(self):
        return BrokenTwin()  # expect[REP003]


class BrokenTwin:  # expect[REP003]
    def init_batch(self, topology, rngs):
        return None


class LegacyTwin:
    # The retired single-trial protocol is no array algorithm at all.
    def init_arrays(self, topology, rng):
        return None

    def step(self, rounds, state, topology, rng):
        return None


class LegacyCoroutine:
    def as_array_algorithm(self):
        return LegacyTwin()  # expect[REP003]
