"""Value-of-information estimation for two-treatment adoption decisions.

The package estimates how much a proposed study is worth when the decision
it informs is taken by a market of adopters rather than a single rational
payer.  Two estimators are provided: a nested Monte Carlo reference
(:mod:`voi.nmc`) and a fast moment-matching approximation
(:mod:`voi.moment_matching`).  :mod:`voi.config` reads a decision problem and
its run settings from JSON (``configs/critical_event.json`` is the worked
example), and :mod:`voi.cli` exposes the ``voi`` command.
"""

__version__ = "0.1.0"
