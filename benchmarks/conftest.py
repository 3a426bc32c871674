"""Benchmark fixtures: domains, datasets, and a shared evaluation cache.

Dataset-scale runs (Table II, Figs. 7-8) are expensive, so one full
HISyn+DGGT sweep per domain is computed lazily and shared by every bench in
the session.  Knobs:

* ``REPRO_BENCH_TIMEOUT`` — per-query budget in seconds (default 5; the
  paper uses 20 — see EXPERIMENTS.md for the deviation note);
* ``REPRO_BENCH_LIMIT`` — cap on cases per domain (default 0 = full sets).
"""

from __future__ import annotations

import os

import pytest

from repro.domains.astmatcher import build_domain as build_astmatcher
from repro.domains.astmatcher.queries import ASTMATCHER_QUERIES
from repro.domains.textediting import build_domain as build_textediting
from repro.domains.textediting.queries import TEXTEDITING_QUERIES
from repro.eval.harness import run_dataset

BENCH_TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "5"))
BENCH_LIMIT = int(os.environ.get("REPRO_BENCH_LIMIT", "0"))

_RESULT_CACHE = {}


def _cases(domain_name):
    cases = {
        "textediting": TEXTEDITING_QUERIES,
        "astmatcher": ASTMATCHER_QUERIES,
    }[domain_name]
    return cases[:BENCH_LIMIT] if BENCH_LIMIT else cases


def _domain(domain_name):
    """A fresh domain: its caches hold nothing a previous bench left.
    Timing on the process-shared domain would let one engine's run warm
    the path and outcome caches the next one is timed on."""
    return {
        "textediting": build_textediting,
        "astmatcher": build_astmatcher,
    }[domain_name](fresh=True)


def evaluation(domain_name, engine):
    """Cached full-dataset run for (domain, engine), each on its own
    fresh domain."""
    key = (domain_name, engine)
    if key not in _RESULT_CACHE:
        _RESULT_CACHE[key] = run_dataset(
            _domain(domain_name),
            _cases(domain_name),
            engine=engine,
            timeout_seconds=BENCH_TIMEOUT,
        )
    return _RESULT_CACHE[key]


@pytest.fixture(scope="session")
def textediting():
    return build_textediting()


@pytest.fixture(scope="session")
def astmatcher():
    return build_astmatcher()


@pytest.fixture(scope="session")
def te_cases():
    return _cases("textediting")


@pytest.fixture(scope="session")
def ast_cases():
    return _cases("astmatcher")
