# lint-fixture: src/repro/algorithms/fixture_protocol.py
"""Good REP003 fixture: complete protocols, None opt-out, inheritance."""


class ProtocolBase:
    def init_batch(self, topology, rngs):
        return None

    def step_batch(self, rounds, batch, topology, rngs, active, faults=None):
        return None

    def batch_complete(self, batch):
        return None


class InheritsCompletion(ProtocolBase):
    def init_batch(self, topology, rngs):
        return None

    def step_batch(self, rounds, batch, topology, rngs, active, faults=None):
        return None


class CoroutineOnly:
    def as_array_algorithm(self):
        return None


class Coroutine:
    def as_array_algorithm(self):
        return InheritsCompletion()


class UnrelatedStepper:
    # A lone step() method is not an array algorithm (schedulers step too).
    def step(self):
        return None
