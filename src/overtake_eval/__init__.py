"""Rare-event testing workbench for two-lane overtaking scenarios.

Estimates an automated vehicle's accident rate in a three-vehicle cut-in
scenario three ways: plain naturalistic Monte Carlo, criticality-driven
importance sampling, and a regression-adjusted variant that shrinks the
variance with sparse control variates built from the logged importance
densities.  A brute-force enumeration oracle provides the reference value
the estimators are checked against.  Both samplers, the criticality
evaluator and the oracle read their pre-cut-in states off one lockstep
walk (``kernel.no_cutin_walk``).  The samplers seed and draw whole blocks
of episodes at once: an episode's seed is a SplitMix64 hash of its root
seed, environment and index, and its n-th draw is SplitMix64's n-th output
from that seed, a function of the seed and the draw's number alone.
A sampler call returns its episodes as one columnar block
(``sampling.Records``: arrays of index, seed, accident and weight, and the
critical logs in CSR form), which the estimators, the writers and the
loader use as it is.  The criticality cache fills on a miss, at most
once per block, from the no-cut-in walks of the episodes still live at
that step.  A campaign samples in one process.  A sampler call takes one
or several root seeds, so a replication study walks the episodes of every
replication that fits one block (``sampling.BLOCK``, 8192 episodes) in one
lockstep batch, and a worker pool splits its replications into chunks.

Import the submodules for their names: ``models``, ``config``, ``kernel``,
``sampling``, ``criticality``, ``estimators``, ``oracle``,
``harness`` and ``cli``.  The package itself loads no numpy, so the
command-line program (``cli``) can set its BLAS thread policy first.
"""

__version__ = "0.1.0"
