"""Fixture: zero-observer breaks on the simulator side.

One tracer call sits outside any ``is not None`` gate (OBS001's
finding), and one gate body mutates engine state (EFF001's).
"""


class Cpu:
    def __init__(self, tracer, rng):
        self.tracer = tracer
        self.rng = rng
        self.counter = 0

    def step(self):
        tracer = self.tracer
        tracer.begin_segment("step")
        if tracer is not None:
            self.counter = self.counter + 1
