"""Prefix-consensus protocol family with a deterministic adversarial simulator.

The package is organised as a small stack:

* :mod:`prefixsim.prefixes` -- vector algebra shared by every protocol.
* :mod:`prefixsim.crypto` -- pluggable signing/aggregation/hashing backends.
* :mod:`prefixsim.pc` -- the prefix-consensus voting engines and their
  public verification predicates.
* :mod:`prefixsim.wire` -- binary codecs (plain and communication-optimized)
  for every message and certificate.
* :mod:`prefixsim.nest` -- the envelope and host helper every layer uses
  to run keyed sub-instances (views, slots, lanes).
* :mod:`prefixsim.spc`, :mod:`prefixsim.msc` -- the leaderless agreement
  layer and the multi-slot replication layer built on top of it.
* :mod:`prefixsim.derived` -- graded/binary/validated consensus wrappers.
* :mod:`prefixsim.simnet`, :mod:`prefixsim.adversaries` -- the seeded
  discrete-event network with Byzantine strategies.
* :mod:`prefixsim.checks` -- executable safety/liveness invariant suites.
* :mod:`prefixsim.cli` -- scenario runner.
"""

__version__ = "0.1.0"
