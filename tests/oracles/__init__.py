"""Test oracles: the plain, obviously-correct forms of the library's fast paths.

Each module holds one layer's scalar specification, kept out of the
library so that no run and no setting can select it:

* :mod:`oracles.answers` — learning-round answers and evaluation draws one
  worker at a time, and one marketplace vote at a time;
* :mod:`oracles.cpe` — the Eq. (5) likelihood one model at a time, with a
  central finite-difference gradient;
* :mod:`oracles.routing` — ``domain_affinity`` by re-sorting each tier per
  task, and brute-force ``least_loaded`` and ``round_robin`` picks.

The equivalence tests and state machines hold the library to these.  An
oracle reaches a library run through a test-only seam (a monkeypatched
module function or method, or a re-registered router), never through a
configuration field.
"""
