"""Fixture: explicitly seeded generators only (DET001 silent)."""

import random

import numpy as np

from repro.simulator import BlockSampler


def make_rng(seed):
    return np.random.default_rng(seed)


def make_stream(seed):
    return random.Random(seed)


def make_sampler(rng):
    return BlockSampler(lambda n: rng.exponential(1.0, n))
