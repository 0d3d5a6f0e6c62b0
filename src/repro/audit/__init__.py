"""Differential soundness audit (fuzzing + fault injection).

Self-validation layer for the FormAD reproduction: a seeded random
kernel generator over the project IR, three concrete-execution oracles
(dynamic race detection of the generated adjoint, shadow-traced
collision search for the engine's "safe" claims, finite-difference
numerics), a fault-injecting solver wrapper that proves the engine
degrades to safeguards instead of crashing or over-claiming, and a
delta-debugging shrinker for anything that fails. Exposed on the
command line as ``repro audit``; see ``docs/AUDIT.md``.

The campaign runner (:mod:`repro.audit.campaign`) runs the audit
inline or, with ``--jobs N``, across a persistent worker pool, with a
crash-safe resume journal, flake quarantine, and a replayable
regression corpus (:mod:`repro.audit.corpus`, ``repro corpus replay``).

Import what you need from the submodules. The package itself imports
none of them, so loading one (say :mod:`repro.audit.numcheck`, which
every adjoint benchmark op uses) does not load the campaign stack.
"""
