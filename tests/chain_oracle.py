"""Face-lookup oracle for chain levels.

Finds every face row by computing the face with ``s.face`` and looking it up
in a dict from the basis one degree down.  The runtime complexes compute
their rows by index arithmetic on their prefixes' rows instead.
"""

from __future__ import annotations


def lookup_levels(s):
    """Each degree's basis and face rows, one row at a time, by ``s.face`` lookups.

    The basis is ``s.simplices[n]`` without its degenerate simplices; a
    complex without ``is_degenerate`` has none.
    """
    degenerate = getattr(s, "is_degenerate", lambda n, x: False)

    def rows(n, gens, index):
        return ([index.get(s.face(n, i, x)) for i in range(n + 1)] for x in gens)

    index: dict = {}
    for n in range(max(s.simplices) + 1):
        gens = tuple(x for x in s.simplices[n] if not degenerate(n, x))
        yield gens, rows(n, gens, index) if n else ()
        index = {x: i for i, x in enumerate(gens)}
