"""Declarative SNN front-end (Section VII-B).

"SNN front-ends such as PyNN play an important role as they provide
API functions, oblivious to the underlying hardware, for describing an
SNN ... the digital neurons ... should be seamlessly integrated to the
front-ends." This package is that integration surface: networks are
described declaratively (a dict, or JSON on disk), and the builder
materialises a :class:`~repro.network.network.Network` plus the chosen
backend — the Flexon compiler then translates each population's model
to control signals behind the scenes, exactly the code-generator role
Section VII-B sketches.
"""

from repro.frontend.spec import (
    build_backend,
    build_network,
    build_simulation,
    load_spec,
)

__all__ = [
    "build_backend",
    "build_network",
    "build_simulation",
    "load_spec",
]
