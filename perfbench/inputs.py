"""Seeded inputs and their oracles.

Everything the program receives is generated here from the workload
seed: query orders, literal variants of suite queries, request
schedules and I/O examples.  The oracle for every input is derived from
the hand-written ground truth of the suite case it came from.
"""

from __future__ import annotations

import json
import random
import re
import string
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from common import BENCH_DIR

SUITE_DOMAINS = ("textediting", "astmatcher", "spreadsheet", "stringxform")
#: Domains whose executors take plain text (ASTMatcher's takes C++).
EXAMPLE_DOMAINS = ("textediting", "stringxform")
#: An assumption, not measured: see README.md, "Assumed input mix".
EXAMPLES_PER_CASE = 2

_QUOTED = re.compile(r'"([^"]*)"')


@dataclass(frozen=True)
class Case:
    case_id: str
    domain: str
    query: str
    ground_truth: str


def load_suites() -> Dict[str, List[Case]]:
    """The four shipped evaluation suites (424 cases), in suite order."""
    from repro.domains.astmatcher.queries import ASTMATCHER_QUERIES
    from repro.domains.textediting.queries import TEXTEDITING_QUERIES
    from repro.packs import load_pack, pack_factories

    raw = {
        "textediting": TEXTEDITING_QUERIES,
        "astmatcher": ASTMATCHER_QUERIES,
    }
    factories = pack_factories()
    for name in ("spreadsheet", "stringxform"):
        raw[name] = load_pack(factories[name].root).examples
    return {
        name: [
            Case(c.case_id, name, c.query, c.ground_truth) for c in raw[name]
        ]
        for name in SUITE_DOMAINS
    }


def known_misses() -> Dict[str, frozenset]:
    """Per workload, the case (or template) ids whose codelet differed
    from the ground truth at the commit that introduced the benchmark.
    They stay in every run and count against ``accuracy``; a wrong
    answer outside this list fails the run."""
    with open(BENCH_DIR / "known_misses.json", encoding="utf-8") as src:
        data = json.load(src)
    return {k: frozenset(v) for k, v in data.items() if k != "note"}


# ---------------------------------------------------------------------------
# cold-start: every suite query once, seeded order
# ---------------------------------------------------------------------------


def cold_start_orders(suites: Dict[str, List[Case]],
                      seed: int) -> Iterator[List[Case]]:
    """Seeded orders of all suite cases, one per cold pass: a run's
    passes see different orders, so which query pays a first-time search
    averages out within the run."""
    rng = random.Random(seed)
    cases = [c for name in SUITE_DOMAINS for c in suites[name]]
    while True:
        order = list(cases)
        rng.shuffle(order)
        yield order


# ---------------------------------------------------------------------------
# serve-novel: literal variants of suite queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Template:
    """A suite case whose quoted literal appears verbatim in its ground
    truth, so substituting a fresh token in both yields a new query with
    a known answer."""

    case: Case
    literal: str

    def variant(self, token: str) -> Tuple[str, str]:
        old, new = f'"{self.literal}"', f'"{token}"'
        return (
            self.case.query.replace(old, new),
            self.case.ground_truth.replace(old, new),
        )


def literal_templates(suites: Dict[str, List[Case]]) -> List[Template]:
    """Suite cases with a quoted query literal that the ground truth
    quotes too (the first such literal is the one substituted)."""
    out = []
    for name in SUITE_DOMAINS:
        for case in suites[name]:
            for literal in _QUOTED.findall(case.query):
                if f'"{literal}"' in case.ground_truth:
                    out.append(Template(case, literal))
                    break
    return out


def template_problems(templates: Sequence[Template]) -> List[str]:
    """Self-test: the substituted literal must occur exactly once,
    quoted, in both the query and the ground truth — otherwise a
    variant's oracle would be ambiguous."""
    problems = []
    for t in templates:
        quoted = f'"{t.literal}"'
        for where, text in (("query", t.case.query),
                            ("ground truth", t.case.ground_truth)):
            if text.count(quoted) != 1:
                problems.append(
                    f"{t.case.case_id}: {quoted} occurs "
                    f"{text.count(quoted)}x in the {where}"
                )
    return problems


@dataclass
class Request:
    """One serve-novel request with its oracle."""

    index: int
    template_id: str
    domain: str
    query: str
    expected: str
    repeat_of: Optional[int] = None

    def payload(self) -> Dict[str, object]:
        return {"query": self.query, "domain": self.domain}


#: A repeat copies a novel request at least this many positions
#: earlier, which has completed by then because the generator sends in
#: due order over fewer connections than that.
REPEAT_MIN_GAP = 8


class RequestFactory:
    """Seeded stream of novel literal variants and exact repeats.

    Novel requests walk seeded permutations of every template, so each
    template is used equally often.  :meth:`next` makes a repeat with
    probability ``repeat_share`` (of a novel request at least
    ``REPEAT_MIN_GAP`` positions earlier) and a novel request otherwise;
    :meth:`novel` always makes a novel one.
    """

    def __init__(self, templates: Sequence[Template], seed: int,
                 repeat_share: float):
        self._rng = random.Random(seed)
        self._templates = list(templates)
        self._order: List[Template] = []
        self._tokens: set = set()
        self.repeat_share = repeat_share
        self.issued: List[Request] = []

    def _token(self) -> str:
        while True:
            token = "".join(
                self._rng.choice(string.ascii_lowercase) for _ in range(8)
            )
            if token not in self._tokens:
                self._tokens.add(token)
                return token

    def next(self) -> Request:
        index = len(self.issued)
        sources = [
            r for r in self.issued[: max(0, index - REPEAT_MIN_GAP + 1)]
            if r.repeat_of is None
        ]
        if not sources or self._rng.random() >= self.repeat_share:
            return self.novel()
        src = self._rng.choice(sources)
        req = Request(index, src.template_id, src.domain, src.query,
                      src.expected, repeat_of=src.index)
        self.issued.append(req)
        return req

    def novel(self) -> Request:
        if not self._order:
            self._order = list(self._templates)
            self._rng.shuffle(self._order)
        template = self._order.pop()
        query, expected = template.variant(self._token())
        req = Request(len(self.issued), template.case.case_id,
                      template.case.domain, query, expected)
        self.issued.append(req)
        return req


def poisson_offsets(rng: random.Random, rate: float, n: int) -> List[float]:
    """Due times (seconds from the phase start) of ``n`` Poisson
    arrivals at ``rate`` per second."""
    t, out = 0.0, []
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append(t)
    return out


# ---------------------------------------------------------------------------
# verify-examples: I/O examples from the ground truth
# ---------------------------------------------------------------------------

_WORDS = ("alpha", "beta", "gamma", "delta", "note", "item", "stop", "x",
          "foo", "bar", "http", "ab", "Hello", "world")
_PUNCT = tuple(":;,-#!*&|.?_/>")


def _example_input(rng: random.Random, literals: Sequence[str]) -> str:
    """A small document of fixed shape — 3 paragraphs of 3 lines of 8
    tokens — mixing words, numbers, punctuation and the case's own
    literals, so conditions in the ground truth (STARTSWITH("#"),
    CONTAINS(NUMBERTOKEN()), ...) hold on some lines and not on others.
    Only the content depends on the seed, so every seed asks the
    executors for the same amount of work."""
    vocab = _WORDS + tuple(literals)
    paragraphs = []
    for _p in range(3):
        lines = []
        for _l in range(3):
            tokens = []
            for _t in range(8):
                r = rng.random()
                if r < 0.15:
                    tokens.append(str(rng.randint(0, 999)))
                elif r < 0.30:
                    tokens.append(rng.choice(_PUNCT))
                elif r < 0.38 and literals:
                    tokens.append(rng.choice(literals))
                else:
                    tokens.append(rng.choice(vocab))
            line = " ".join(tokens)
            if rng.random() < 0.5:
                line += rng.choice(".!?")
            if rng.random() < 0.3:
                line = rng.choice(_PUNCT + tuple(literals)) + line
            lines.append(line)
        paragraphs.append("\n".join(lines))
    return "\n\n".join(paragraphs)


@dataclass
class ExampleCase:
    case: Case
    examples: List[Tuple[str, str]]


def example_cases(
    suites: Dict[str, List[Case]], seed: int
) -> Tuple[List[ExampleCase], List[str]]:
    """Cases of the example domains with outputs computed by running the
    ground truth through the domain's registered executor on seeded
    inputs.  Returns the cases (seeded order) and the ids dropped
    because the ground truth itself raised on its inputs."""
    from repro.verify.executors import get_executor

    rng = random.Random(seed)
    kept, dropped = [], []
    for name in EXAMPLE_DOMAINS:
        execute = get_executor(name)
        for case in suites[name]:
            literals = _QUOTED.findall(case.ground_truth)
            try:
                examples = []
                for _ in range(EXAMPLES_PER_CASE):
                    text = _example_input(rng, literals)
                    examples.append((text, execute(case.ground_truth, text)))
            except Exception:  # the ground truth cannot run: drop, count
                dropped.append(case.case_id)
                continue
            kept.append(ExampleCase(case, examples))
    rng.shuffle(kept)
    return kept, dropped
