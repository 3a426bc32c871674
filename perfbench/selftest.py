"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

They also run at the start of every benchmark run (``run.py``), which
refuses to measure when one fails.  They check that the serve-novel
oracle is well defined, that inputs follow from the seed alone, and that
the open-loop generator charges a stall to the requests queued behind
it.
"""

from __future__ import annotations

import random
import sys
import time

import inputs
import loadgen
from common import SRC


def check_templates() -> None:
    templates = inputs.literal_templates(inputs.load_suites())
    problems = inputs.template_problems(templates)
    assert not problems, problems
    assert len(templates) == 191, len(templates)
    query, expected = templates[0].variant("zzqqxxyy")
    assert query.count('"zzqqxxyy"') == expected.count('"zzqqxxyy"') == 1


def check_schedule_reproducible() -> None:
    templates = inputs.literal_templates(inputs.load_suites())

    def draw(seed):
        factory = inputs.RequestFactory(templates, seed, 0.2)
        reqs = [factory.next() for _ in range(400)]
        rng = random.Random(seed)
        return ([(r.query, r.expected, r.repeat_of) for r in reqs],
                inputs.poisson_offsets(rng, 16.0, 400))

    first, again, other = draw(7), draw(7), draw(8)
    assert first == again, "same seed, different inputs"
    assert first[0] != other[0] and first[1] != other[1], "seed ignored"
    reqs, _offsets = first
    repeats = [(i, src) for i, (_q, _e, src) in enumerate(reqs)
               if src is not None]
    assert 0.1 < len(repeats) / len(reqs) < 0.3, len(repeats)
    for index, src in repeats:
        assert index - src >= inputs.REPEAT_MIN_GAP and reqs[src][2] is None
        assert reqs[index][:2] == reqs[src][:2]
    novel = [q for q, _e, src in reqs if src is None]
    assert len(set(novel)) == len(novel), "a novel query repeated"


def check_stall_accrues() -> None:
    """One connection, a request every 10 ms, request 3 stalls 300 ms:
    the requests queued behind it must show the stall in their latency
    and lateness, and the backlog must build up."""

    def send(_conn, index):
        time.sleep(0.3 if index == 3 else 0.002)
        return True, index

    n = 12
    phase = loadgen.run_phase(send, list(range(n)),
                              [0.01 * i for i in range(n)], connections=1)
    lat = [o.latency for o in phase.outcomes]
    assert all(o.ok for o in phase.outcomes)
    assert lat[2] < 0.1, lat
    assert lat[3] >= 0.3 and lat[4] >= 0.25, lat
    assert phase.outcomes[4].lateness >= 0.25, phase.outcomes[4].lateness
    assert phase.backlog_max >= 5, phase.backlog


def check_shipped_client() -> None:
    """The generator's connections are the shipped keep-alive client."""
    from repro.client import HttpClient

    import workloads

    send, clients = workloads._http_sender(port=1)
    assert all(type(c) is HttpClient and c.keep_alive for c in clients)
    for client in clients:
        client.close()


CHECKS = (check_templates, check_schedule_reproducible, check_stall_accrues,
          check_shipped_client)


def run_all() -> None:
    for check in CHECKS:
        check()


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    run_all()
    print(f"{len(CHECKS)} self-tests passed")
