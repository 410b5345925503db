"""Finite-scale interpolation-set constructions and certificates.

The package defines no names of its own: each public name is read from
the module that defines it (``from interpsets import intsets``), so
``import interpsets`` loads none of its modules, and ``interpsets.cli``
and each CLI command load only what they run.
"""

__version__ = "0.1.0"
