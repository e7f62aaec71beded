"""Network-layer protocols: flooding variants, Routeless Routing, AODV, DSR,
DSDV, Gradient.

The package imports nothing: import a protocol from its module
(``repro.net.aodv``, ``repro.net.routeless``, ...), or take the public
names from :mod:`repro.api`.  ``repro.net.packet`` depends on no other
layer, so any layer (``repro.obs`` included) can import it at module level.
"""
