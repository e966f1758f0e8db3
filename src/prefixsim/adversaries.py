"""Byzantine strategies and schedule controls for the simulator.

Strategies fall into three shapes:

* engine-backed: the Byzantine party runs the honest engine but its
  outgoing messages are rewritten (censor, equivocate, withhold-body,
  doctored-proof injection);
* fully scripted: no engine at all (silent, split-view);
* schedule-only: no Byzantine parties, just delivery-order control
  (:class:`Delayer` stretches chosen links).

Random link delays and suspension are not adversaries: they are the
``jitter`` and ``suspend`` of the simulation's
:class:`~prefixsim.simnet.DelayPolicy`.  Jitter is drawn on every link
whose delay no strategy picks, and suspension pauses one honest party
per round whatever the strategy.  So a strategy models only Byzantine
behaviour and per-link overrides, and any strategy can run under
suspension.

Every strategy draws randomness exclusively from the simulation's
seeded generator and signs only with Byzantine keys.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from . import crypto, msc, spc
from .crypto import Scheme
from .nest import innermost, rewrap
from .pc import Vote
from .simnet import Adversary, Time


class Silent(Adversary):
    """Byzantine parties never send anything (they keep no engine)."""

    def engine_for(self, party, build):
        return None


class Delayer(Adversary):
    """Stretch chosen links by a fixed factor before GST."""

    def __init__(self, links: Iterable[Tuple[int, int]], stretch: int = 8, byzantine=()):
        super().__init__(byzantine)
        self.links = frozenset(links)
        self.stretch = stretch

    def pick_delay(self, rng, sender, receiver, t):
        policy = self.sim.policy
        if policy.gst is not None and t >= policy.gst:
            return None
        if (sender, receiver) in self.links:
            return self.stretch
        return None


class Censor(Adversary):
    """Engine-backed: reveal slot proposals to a subset only.

    ``reveal[party]`` is the receiver set that still gets the party's
    proposals; everyone else is starved.  This is the canonical
    censorship strategy: the starved parties disagree with the fed ones
    at the censor's coordinate, the agreed prefix stops there, and the
    ranking update demotes the censor.
    """

    def __init__(
        self,
        reveal: Dict[int, Iterable[int]],
        lag_victims: Iterable[int] = (),
        lag: Time = 0,
    ):
        super().__init__(reveal.keys())
        self.reveal = {p: frozenset(r) for p, r in reveal.items()}
        # Lagging the censor's protocol votes toward the starved parties
        # lets their quorums form from honest votes first, which is what
        # actually shortens the agreed prefix and triggers the demotion.
        self.lag_victims = frozenset(lag_victims)
        self.lag = lag

    def on_send(self, party, msg, receivers):
        if isinstance(innermost(msg), msc.Proposal):
            allowed = self.reveal[party]
            return [(dest, msg, None) for dest in receivers if dest in allowed]
        return [
            (dest, msg, self.lag if self.lag and dest in self.lag_victims else None)
            for dest in receivers
        ]


class Equivocate(Adversary):
    """Engine-backed: send different proposal payloads to the two halves
    of the receiver set (multi-slot), or different round-1 votes (prefix
    consensus), re-signed with the Byzantine party's own key."""

    def __init__(self, byzantine, scheme: Scheme, lag_victims: Iterable[int] = (), lag: Time = 0):
        super().__init__(byzantine)
        self.ring = scheme.restricted(self.byzantine)
        self.lag_victims = frozenset(lag_victims)
        self.lag = lag

    def on_send(self, party, msg, receivers):
        alt = self._variant(party, msg)
        if alt is None:
            return [
                (dest, msg, self.lag if self.lag and dest in self.lag_victims else None)
                for dest in receivers
            ]
        half = len(receivers) // 2
        return [(dest, msg, None) for dest in receivers[:half]] + [(dest, alt, None) for dest in receivers[half:]]

    def _variant(self, party, msg):
        if isinstance(msg, msc.Proposal):
            return msc.Proposal(msg.inst, msg.slot, msg.payload + b"/alt")
        # Nested votes are left alone: equivocation there happens at the
        # proposal layer.
        if isinstance(msg, Vote) and msg.round == 1 and len(msg.value) > 0:
            flipped = msg.value[:-1] + (msg.value[-1] + b"/alt",)
            sig = self.ring.sign_vector(party, crypto.VOTE1, msg.inst, flipped)
            return Vote(msg.inst, 1, party, flipped, sig)
        return None


class SplitView(Adversary):
    """Scripted strong-consensus attack: the Byzantine party withholds
    its own view-entry object, then relays two different valid
    certificates to two victims (the first two honest parties) and
    nothing to the rest.  With the Byzantine party ranked first, the
    victims' instance inputs conflict at position one, the view agrees
    on the empty prefix, and the protocol advances by skip certificates
    instead."""

    def __init__(self, byzantine, view: int = 2):
        super().__init__(byzantine)
        self.view = view
        self._seen: Dict[int, list] = {p: [] for p in self.byzantine}
        self._done: set = set()

    def engine_for(self, party, build):
        return None

    def on_deliver(self, party, sender, msg):
        nv = innermost(msg)
        if not isinstance(nv, spc.NewView) or nv.view != self.view or party in self._done:
            return False
        seen = self._seen[party]
        if all(prior.cert != nv.cert for prior in seen):
            seen.append(nv)
        if len(seen) >= 2:
            self._done.add(party)
            honest = [p for p in range(self.sim.n) if p not in self.byzantine]
            self.sim.byz_send(party, honest[0], rewrap(msg, seen[0]))
            self.sim.byz_send(party, honest[1], rewrap(msg, seen[1]))
        return False


class WithholdBody(Adversary):
    """Engine-backed: view-entry objects (and slot proposals) go to a
    subset only, and incoming fetch requests are ignored, forcing honest
    parties onto the pull-based fetch path against honest holders."""

    def __init__(self, reveal: Dict[int, Iterable[int]]):
        super().__init__(reveal.keys())
        self.reveal = {p: frozenset(r) for p, r in reveal.items()}

    def _withheld(self, msg) -> bool:
        return isinstance(innermost(msg), (spc.NewView, msc.Proposal))

    def on_send(self, party, msg, receivers):
        if self._withheld(msg):
            allowed = self.reveal[party]
            return [(dest, msg, None) for dest in receivers if dest in allowed]
        return [(dest, msg, None) for dest in receivers]

    def on_deliver(self, party, sender, msg):
        return not isinstance(innermost(msg), spc.FetchReq)


class DoctoredProofs(Adversary):
    """Engine-backed: behaves honestly, additionally floods honest
    parties with corrupted commit/skip evidence -- wrong values under a
    valid proof, proofs with a flipped signature byte, and swapped
    low/high claims.  Honest predicates must reject every one.  The
    first ``LIMIT`` commits it sees are doctored."""

    LIMIT = 4

    def __init__(self, byzantine):
        super().__init__(byzantine)
        self.injected = 0

    def _corrupt_qc(self, proof):
        from .pc import QC

        victim = proof.votes[0]
        bad_sig = crypto.Signature(victim.sig.signer, bytes([victim.sig.blob[0] ^ 1]) + victim.sig.blob[1:])
        forged = Vote(victim.inst, victim.round, victim.sender, victim.value, bad_sig, victim.qcs)
        return QC(proof.round, (forged,) + proof.votes[1:])

    def on_deliver(self, party, sender, msg):
        inner = innermost(msg)
        if isinstance(inner, spc.NewCommit) and self.injected < self.LIMIT:
            self.injected += 1
            wrong_value = spc.NewCommit(inner.inst, inner.view, inner.value + (b"forged",), inner.proof)
            bad_proof = spc.NewCommit(inner.inst, inner.view, inner.value, self._corrupt_qc(inner.proof))
            for doctored in (wrong_value, bad_proof):
                out = rewrap(msg, doctored)
                for dest in self.sim.honest:
                    self.sim.byz_send(party, dest, out)
        return True
