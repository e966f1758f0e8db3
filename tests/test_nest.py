"""Sub-instance envelopes and the host helper: wire form, routing, drops,
early-slot buffering, and pinned behaviour of the three nesting hosts."""

from prefixsim import crypto, wire
from prefixsim.actions import DROP, Broadcast, Output
from prefixsim.crypto import MacScheme
from prefixsim.derived import PcFromGradedEngine
from prefixsim.msc import MscConfig, MscEngine
from prefixsim.nest import Host, Nested, innermost, rewrap
from prefixsim.pc import PcConfig, Variant, Vote
from prefixsim.scenario import run_scenario
from prefixsim.simnet import DelayPolicy, Simulation
from prefixsim.spc import SpcConfig, SpcEngine


def _times(metrics, honest):
    return {p: {kind: str(t) for kind, (_v, _pf, t) in metrics.outputs[p].items()} for p in honest}


def test_envelope_round_trip():
    scheme = MacScheme(4)
    vote = Vote(("scn", "msc", "slot", 2, "view", 1), 1, 3, (b"a",),
                scheme.sign_vector(3, crypto.VOTE1, ("x",), (b"a",)))
    msg = Nested(("scn", "msc"), 2, Nested(("scn", "msc", "slot", 2), 1, vote))
    data = wire.encode(msg)
    assert data[:2] == bytes([6, 5])  # registered object, one-byte tag
    assert wire.decode(data) == msg
    assert innermost(msg) is vote
    assert innermost(vote) is vote
    swapped = rewrap(msg, b"other")
    assert swapped == Nested(msg.inst, 2, Nested(msg.inner.inst, 1, b"other"))


class _Child:
    def on_input(self, value):
        return [Broadcast(("in", value))]

    def on_message(self, sender, msg):
        return [Output("got", (sender, msg))]


def test_malformed_key_or_inst_is_a_counted_drop():
    host = Host(("h",), lambda key: _Child(), lambda key, out: [out], first=1, stop=4)
    for bad in (Nested(("other",), 1, "m"), Nested(("h",), 0, "m"), Nested(("h",), 4, "m"),
                Nested(("h",), "1", "m"), Nested(("h",), None, "m"), ("h", 1, "m")):
        assert host.route(2, bad) == [DROP]
    assert not host.children
    assert host.route(2, Nested(("h",), 3, "m")) == [Output("got", (2, "m"))]

    cfg = SpcConfig(4, 1, 4, 1, ("t", "spc"))
    spc = SpcEngine(cfg, 0, MacScheme(4))
    for bad in (Nested(("t",), 1, "m"), Nested(cfg.instance, 0, "m"), Nested(cfg.instance, (1,), "m")):
        assert spc.on_message(1, bad) == [DROP]

    pcg = PcFromGradedEngine(PcConfig(4, 1, 2, Variant.THREE_ROUND, ("pcg",)), 0, MacScheme(4))
    for bad in (Nested(("pcg",), 2, "m"), Nested(("pcg",), -1, "m"), Nested(("x",), 0, "m")):
        assert pcg.on_message(1, bad) == [DROP]


def test_early_slot_traffic_waits_for_its_slot():
    host = Host(("h",), lambda key: _Child(), lambda key, out: [out], first=1, buffer=lambda key: key >= 2)
    assert host.route(1, Nested(("h",), 3, "early")) == []
    assert host.route(2, Nested(("h",), 1, "stale")) == []  # not buffered, not a drop
    assert host.waiting == {3: [(1, "early")]}
    # The slot's own input goes out first, then the traffic that raced ahead.
    assert host.start(3, "v") == [Broadcast(Nested(("h",), 3, ("in", "v"))), Output("got", (1, "early"))]
    assert host.waiting == {}
    assert host.route(1, Nested(("h",), 3, "late")) == [Output("got", (1, "late"))]

    cfg = MscConfig(4, 1, 1, ("t", "msc"), slots=2)
    engine = MscEngine(cfg, 0, MacScheme(4))
    engine.on_input((b"tx-1", b"tx-2"))
    for slot in (2, 3):  # slot 3 is past the configured run
        assert engine.on_message(1, Nested(cfg.instance, slot, "vote")) == []
    assert engine.slots.waiting == {2: [(1, "vote")]}
    assert not engine.slots.children


# The literal figures below were recorded when each host had its own
# envelope class; merging them into ``Nested`` must not move them.


def test_pinned_spc_split_view():
    r = run_scenario({"version": 1, "protocol": "spc", "n": 4, "f": 1, "L": 4, "gst": 0,
                      "delta_cap": 2, "seed": 5, "measure_bytes": True,
                      "inputs": {"kind": "unanimous"},
                      "adversary": {"kind": "split_view", "byzantine": [0]}})
    m = r.metrics
    assert not r.violations
    assert any(r.sim.engines[p].built_skips for p in r.honest)
    assert (m.message_count, m.fetch_messages, m.bytes_total) == (137, 0, 244186)
    assert _times(m, r.honest) == {p: {"low": "3", "high": "18"} for p in (1, 2, 3)}


def test_pinned_msc_censor():
    r = run_scenario({"version": 1, "protocol": "msc", "n": 4, "f": 1, "slots": 2, "gst": 0,
                      "delta_cap": 2, "seed": 6, "measure_bytes": True, "codec": "plain",
                      "adversary": {"kind": "censor", "reveal": {"2": [0]}}})
    m = r.metrics
    assert not r.violations
    assert (m.message_count, m.fetch_messages, m.bytes_total) == (256, 20, 516580)
    fed = {**{f"commit-1-{i}": "7" for i in range(4)}, **{f"commit-2-{i}": "18" for i in range(4)}}
    starved = {"commit-1-0": "6", "commit-1-1": "6", "commit-1-2": "8", "commit-1-3": "8",
               "commit-2-0": "17", "commit-2-1": "17", "commit-2-2": "19", "commit-2-3": "19"}
    highs = {"slot1-high": "11", "slot2-high": "22"}
    assert _times(m, r.honest) == {0: {**fed, **highs}, 1: {**starved, **highs}, 3: {**starved, **highs}}


def test_pinned_pc_from_graded():
    scheme = MacScheme(4)
    inputs = [(b"a", b"b", b"c"), (b"a", b"b", b"d"), (b"a", b"c", b"c"), (b"a", b"b", b"c")]
    cfg = PcConfig(4, 1, 3, Variant.THREE_ROUND, ("pcg",))
    sim = Simulation(4, lambda p: PcFromGradedEngine(cfg, p, scheme),
                     policy=DelayPolicy(gst=None, jitter=3),
                     seed=3, measure=wire.PlainCodec().measure)
    for p, vec in enumerate(inputs):
        sim.schedule_input(p, vec)
    m = sim.run()
    assert (m.message_count, m.fetch_messages, m.bytes_total) == (108, 0, 36252)
    want = {0: "49/8", 1: "99/16", 2: "101/16", 3: "103/16"}
    assert _times(m, range(4)) == {p: {"low": t, "high": t} for p, t in want.items()}
    assert all(m.output_value(p, "high") == (b"a", b"b", b"c") for p in range(4))
