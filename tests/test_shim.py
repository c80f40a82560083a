"""Shim-process tests: the single-connection serialization bottleneck."""

from __future__ import annotations

import random

import pytest

from repro.costs import PlatformCostModel
from repro.seuss.shim import ShimProcess, ShimStats
from repro.sim import Environment, Interrupt, Resource


@pytest.fixture
def shim(env):
    return ShimProcess(env, PlatformCostModel())


def test_single_request_takes_rtt(env, shim):
    def client():
        yield from shim.forward()
        return env.now

    assert env.run(until=env.process(client())) == pytest.approx(8.0)


def test_requests_serialize_on_the_connection(env, shim):
    finish_times = []

    def client():
        yield from shim.forward()
        finish_times.append(env.now)

    for _ in range(3):
        env.process(client())
    env.run()
    # Service times stack (7.78 each); propagation overlaps.
    assert finish_times == pytest.approx([8.0, 15.78, 23.56], abs=0.01)


def test_max_rate_is_128_6_per_s(shim):
    assert shim.max_rate_per_s == pytest.approx(128.6, abs=0.1)


def test_sustained_rate_matches_cap(env, shim):
    def client():
        yield from shim.forward()

    count = 500
    procs = [env.process(client()) for _ in range(count)]
    env.run(until=env.all_of(procs))
    rate = count / (env.now / 1000.0)
    assert rate == pytest.approx(shim.max_rate_per_s, rel=0.01)


def test_stats(env, shim):
    def client():
        yield from shim.forward()

    env.run(until=env.process(client()))
    assert shim.stats.forwarded == 1
    assert shim.stats.busy_ms == pytest.approx(7.78)


def test_a_hop_costs_one_event(env, shim):
    """The line is computed, not simulated: a request waits on its
    departure alone, whether the connection is free or taken."""

    def client():
        yield from shim.forward()

    for _ in range(3):
        env.start(client())
    assert len(env._pending) == 3
    env.run()
    assert env.events_processed == 3 + 3  # departures, then completions


# -- the oracle: the shim as a capacity-1 resource ------------------------


class ResourceShim:
    """The shim as a capacity-1 :class:`Resource`: a request is granted
    the connection, holds it for the service time, releases it and then
    travels the propagation delay, three events per request.  The line
    :class:`ShimProcess` computes must depart every request at the
    float this reaches."""

    def __init__(self, env: Environment, costs: PlatformCostModel) -> None:
        self.env = env
        self.costs = costs
        self.connection = Resource(env, capacity=1)
        self.stats = ShimStats()
        self.propagation_ms = max(0.0, costs.shim_rtt_ms - costs.shim_service_ms)

    def forward(self):
        request = self.connection.request()
        yield request
        try:
            yield self.env.timeout(self.costs.shim_service_ms)
        finally:
            self.connection.release(request)
        yield self.env.timeout(self.propagation_ms)
        self.stats.forwarded += 1
        self.stats.busy_ms += self.costs.shim_service_ms


def _drive(model, arrivals, loops=0, rounds=0):
    """Send one request per arrival time (ascending) through a fresh
    shim of class ``model``, plus ``loops`` closed-loop senders that
    each forward ``rounds`` times back to back, so every later request
    of theirs arrives at a departure instant.  Returns the departure
    times by sender and the shim's stats."""
    env = Environment()
    shim = model(env, PlatformCostModel())
    departures = {}

    def client(name):
        yield from shim.forward()
        departures[name] = env.now

    def loop(index):
        for round_ in range(rounds):
            yield from shim.forward()
            departures[("loop", index, round_)] = env.now

    def dispatch():
        for index, at in enumerate(arrivals):
            if at > env.now:
                yield env.timeout_at(at)
            env.process(client(index))

    for index in range(loops):
        env.process(loop(index))
    env.process(dispatch())
    env.run()
    return departures, shim.stats


def _line_instants(start, service_ms, count):
    """The instants a connection taken at ``start`` by a burst frees up
    again, by the same sequential addition the grants use."""
    instants, at = [], start
    for _ in range(count):
        at = at + service_ms
        instants.append(at)
    return instants


def _seeded_arrivals(seed, count=400):
    """Bursts at one instant, arrivals at the instants the connection
    frees up and the first request of a burst arrives, and idle gaps
    longer than the service time, mixed by a seeded generator."""
    rng = random.Random(seed)
    costs = PlatformCostModel()
    arrivals, now = [], 0.0
    while len(arrivals) < count:
        kind = rng.randrange(4)
        if kind == 0:  # a burst at one instant
            arrivals.extend([now] * rng.randint(2, 12))
        elif kind == 1:  # onto the line's release instants
            burst_at = now
            arrivals.append(burst_at)
            instants = _line_instants(burst_at, costs.shim_service_ms, rng.randint(1, 6))
            arrivals.extend(instants)
            now = instants[-1]
        elif kind == 2:  # at a departure instant of the request before
            arrivals.append(now)
            now = (now + costs.shim_service_ms) + (
                costs.shim_rtt_ms - costs.shim_service_ms
            )
            arrivals.append(now)
        else:  # an idle gap: the line drains
            now += rng.uniform(costs.shim_service_ms, 400.0)
            arrivals.append(now)
    return arrivals


class TestLineMatchesTheResource:
    """The computed line departs every request at exactly the float the
    resource-based shim reaches, and keeps the same stats."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 41, 97])
    def test_seeded_schedules(self, seed):
        arrivals = _seeded_arrivals(seed)
        line = _drive(ShimProcess, arrivals)
        resource = _drive(ResourceShim, arrivals)
        assert line[0] == resource[0]
        assert line[1] == resource[1]

    def test_a_burst_at_one_instant(self):
        arrivals = [5.0] * 20 + [300.0] * 7
        assert _drive(ShimProcess, arrivals) == _drive(ResourceShim, arrivals)

    def test_arrivals_at_release_instants(self):
        costs = PlatformCostModel()
        arrivals = [0.0, 0.0] + _line_instants(0.0, costs.shim_service_ms, 10)
        assert _drive(ShimProcess, arrivals) == _drive(ResourceShim, arrivals)

    def test_idle_gaps(self):
        arrivals = [0.0, 50.0, 57.78, 1_000.0, 1_003.0, 5_000.0]
        assert _drive(ShimProcess, arrivals) == _drive(ResourceShim, arrivals)

    def test_closed_loops_arrive_at_departure_instants(self):
        arrivals = [3.0, 3.0, 20.0]
        line = _drive(ShimProcess, arrivals, loops=3, rounds=50)
        assert line == _drive(ResourceShim, arrivals, loops=3, rounds=50)
        assert line[1].forwarded == 153

    def test_a_thousand_queued(self):
        arrivals = [0.0] * 1_000
        line, stats = _drive(ShimProcess, arrivals)
        assert (line, stats) == _drive(ResourceShim, arrivals)
        assert stats.forwarded == 1_000
        # The last one waited behind 999 services.
        assert line[999] == pytest.approx(1_000 * 7.78 + 0.22)


# -- interrupts ----------------------------------------------------------


@pytest.mark.parametrize(
    "where, interrupt_at",
    [("in service", 1.0), ("queued", 1.0), ("in propagation", 7.9)],
)
def test_an_interrupt_inside_the_hop_keeps_the_line_taken(env, shim, where, interrupt_at):
    """A request on the wire is sent anyway: interrupting its sender ends
    the sender's wait at once, but the connection stays taken until the
    request's service would end, so the next request departs as if the
    interrupted one had gone through.  Only departures count in the
    stats."""
    service_ms = shim.costs.shim_service_ms
    cut_short = []
    departures = []

    def sender():
        try:
            yield from shim.forward()
        except Interrupt:
            cut_short.append(env.now)
            return
        departures.append(env.now)

    first = env.process(sender())
    queued = env.process(sender()) if where == "queued" else None
    victim = queued if where == "queued" else first
    env.run(until=interrupt_at)
    victim.interrupt()
    env.process(sender())  # the next request, arriving now
    env.run()
    assert cut_short == [interrupt_at]
    line_free = _line_instants(0.0, service_ms, 2 if queued else 1)[-1]
    starts = max(interrupt_at, line_free)
    assert departures[-1] == (starts + service_ms) + shim.propagation_ms
    assert shim.stats.forwarded == len(departures) == (2 if queued else 1)
