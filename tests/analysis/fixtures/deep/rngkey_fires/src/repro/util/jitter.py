"""Fixture: a helper drawing from the module-level stdlib RNG."""

import random


def jitter() -> float:
    return random.random()
