"""Option kinds: what an experiment option or a command-line count admits.

A leaf module (no ``repro`` imports), so the command line can parse its
counts without importing the runner.  :mod:`repro.runner.registry`
declares experiment options with these kinds, and ``run_all`` checks
its budgets with them.
"""

from __future__ import annotations

import argparse
from typing import Any, Callable, NamedTuple


class Kind(NamedTuple):
    """A family of option values: what it admits, and its name in errors."""

    noun: str
    admits: Callable[[Any], bool]
    read: Callable[[str], Any] = int

    def parse(self, text: str) -> Any:
        """An argparse ``type``: the CLI refuses what the option refuses."""
        try:
            value = self.read(text)
            if self.admits(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {self.noun}, got {text!r}")


#: A seed; trials, runs, bits or instructions; a series of them; a switch.
SEED = Kind("an integer", lambda value: isinstance(value, int) and not isinstance(value, bool))
COUNT = Kind("a positive integer", lambda value: SEED.admits(value) and value >= 1)
COUNT_SERIES = Kind(
    "a non-empty list of positive integers",
    lambda value: isinstance(value, list) and bool(value) and all(map(COUNT.admits, value)),
)
FLAG = Kind("a boolean", lambda value: isinstance(value, bool))

#: ``run_all``'s retry budget and local worker count, and its watchdog;
#: ``run-all --max-retries``, ``--workers`` and ``--task-timeout`` parse
#: with them.
NON_NEGATIVE = Kind(
    "a non-negative integer", lambda value: SEED.admits(value) and value >= 0
)
SECONDS = Kind(
    "a positive number of seconds",
    lambda value: isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0,
    read=float,
)

#: ``serve --port`` (0 lets the OS pick) and ``serve --quota-burst``: a
#: bucket must hold the one token a submission costs.
PORT = Kind(
    "a port number from 0 to 65535",
    lambda value: NON_NEGATIVE.admits(value) and value <= 65535,
)
BURST = Kind(
    "a number of tokens of at least 1",
    lambda value: isinstance(value, (int, float)) and not isinstance(value, bool) and value >= 1,
    read=float,
)


class Option(NamedTuple):
    """One experiment option: its name, its default, and the kind of value
    an override must be."""

    name: str
    default: Any
    kind: Kind
