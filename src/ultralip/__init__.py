"""ultralip: exact p-adic Lipschitz analysis of semialgebraic functions.

Exact arithmetic in Q_p over rational representatives, ultrametric balls
and cells, per-ball Jacobian-property certification, empirical and
certified Lipschitz constants, and preparation of factored-linear terms.
Each name is imported from its own module, as in
``from ultralip.prepare import prepare``; the package root holds only
``__version__``.
"""

__version__ = "0.1.0"
